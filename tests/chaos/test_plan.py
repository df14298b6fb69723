"""Fault plans: generation determinism, serialization, application."""

import json

import pytest

from repro.chaos import FaultPlan, PlannedFault, fault_surface
from repro.grid.scenarios import get_scenario


def _generate(scenario_name, seed):
    scenario = get_scenario(scenario_name)
    tb = scenario.build(seed)
    plan = FaultPlan.generate(tb, horizon=scenario.fault_horizon,
                              kinds=scenario.fault_kinds,
                              max_faults=scenario.max_faults)
    return tb, plan


class TestGeneration:
    def test_same_seed_same_plan(self):
        _, first = _generate("three-site", 7)
        _, second = _generate("three-site", 7)
        assert first.to_dict() == second.to_dict()

    def test_seeds_explore_different_plans(self):
        plans = {_generate("three-site", s)[1].to_json() for s in range(12)}
        assert len(plans) > 1

    def test_events_sorted_and_on_surface(self):
        for seed in range(8):
            tb, plan = _generate("quickstart", seed)
            surface = fault_surface(tb)
            times = [ev.time for ev in plan.events]
            assert times == sorted(times)
            for ev in plan.events:
                assert ev.target in surface[ev.kind], ev

    def test_surface_excludes_submit_and_cluster_hosts(self):
        tb, _ = _generate("quickstart", 0)
        surface = fault_surface(tb)
        submit_hosts = {agent.host.name for agent in tb.agents.values()}
        lrm_hosts = {site.lrm_host.name for site in tb.sites.values()}
        for kind in ("crash", "isolate", "jm_kill"):
            assert not submit_hosts & set(surface[kind])
            assert not lrm_hosts & set(surface[kind])
        assert surface["proxy_expire"] == ["alice"]     # GSI agent only

    def test_monitor_kill_surface_requires_opt_in(self):
        # monitor_kill only targets gatekeepers of testbeds where some
        # agent actually opted into the Grid Monitor; elsewhere the
        # surface is empty and generation filters the kind out.
        tb, _ = _generate("quickstart", 0)
        assert fault_surface(tb)["monitor_kill"] == []
        monitored = get_scenario("monitored-gram").build(0)
        surface = fault_surface(monitored)
        gk_hosts = sorted(site.gk_host.name
                          for site in monitored.sites.values())
        assert surface["monitor_kill"] == gk_hosts

    def test_generation_draws_from_named_stream_only(self):
        # Consuming the plan stream must not perturb other streams:
        # generating a plan and then drawing from "other" gives the same
        # value as drawing from "other" without generating.
        scenario = get_scenario("three-site")
        tb1 = scenario.build(3)
        FaultPlan.generate(tb1, horizon=100.0)
        tb2 = scenario.build(3)
        assert tb1.sim.rng.stream("other").random() == \
            tb2.sim.rng.stream("other").random()


class TestSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(events=[
            PlannedFault(10.0, "crash", "wisc-gk", 120.0),
            PlannedFault(50.5, "partition", "submit-alice|anl-gk", 60.0),
            PlannedFault(99.0, "jm_kill", "anl-gk", None),
            PlannedFault(120.0, "proxy_expire", "alice", None),
        ])
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.events == plan.events
        assert restored.end_time == plan.end_time == 130.0

    def test_version_gate(self):
        data = {"version": 999, "events": []}
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict(data)

    def test_json_is_plain_data(self):
        _, plan = _generate("credential", 5)
        parsed = json.loads(plan.to_json())
        assert parsed["version"] == 1
        for ev in parsed["events"]:
            assert set(ev) == {"time", "kind", "target", "duration"}


class TestApplication:
    def test_apply_records_through_injector(self):
        tb, _ = _generate("credential", 0)
        plan = FaultPlan(events=[
            PlannedFault(40.0, "crash", "wisc-gk", 30.0),
            PlannedFault(50.0, "partition", "submit-carol|wisc-gk", 30.0),
            PlannedFault(60.0, "jm_kill", "wisc-gk", None),
            PlannedFault(70.0, "proxy_expire", "carol", 100.0),
        ])
        plan.apply(tb)
        assert tb.sim.trace.select("chaos", "plan_applied")
        tb.sim.run(until=200.0)
        kinds = [e.kind for e in tb.failures.injected]
        assert "crash" in kinds and "restart" in kinds
        assert "partition" in kinds and "heal" in kinds
        assert "proxy_expire" in kinds and "proxy_refresh" in kinds
        assert any(k.startswith("crash_service") for k in kinds)

    def test_unknown_kind_rejected(self):
        tb, _ = _generate("credential", 0)
        plan = FaultPlan(events=[PlannedFault(10.0, "meteor", "wisc-gk")])
        with pytest.raises(ValueError, match="meteor"):
            plan.apply(tb)

    def test_isolate_applies_and_rejoins(self):
        tb, _ = _generate("three-site", 1)
        plan = FaultPlan(events=[
            PlannedFault(30.0, "isolate", "alpha-gk", 40.0)])
        plan.apply(tb)
        tb.sim.run(until=35.0)
        assert not tb.net.reachable("submit-bob", "alpha-gk")
        tb.sim.run(until=80.0)
        assert tb.net.reachable("submit-bob", "alpha-gk")
        kinds = [e.kind for e in tb.failures.injected]
        assert kinds.count("isolate") == 1 and kinds.count("rejoin") == 1
