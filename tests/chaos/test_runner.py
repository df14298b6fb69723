"""Campaign runner and CLI: cells, sharding, audit, reports."""

import json
from pathlib import Path

import pytest

from repro.chaos import (
    FaultPlan,
    campaign_to_dict,
    run_campaign,
    run_digest,
    run_one,
    trace_fingerprint,
)
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.invariants import evaluate_invariants
from repro.chaos.report import format_report
from repro.chaos.runner import build_and_run, drive_to_quiescence
from repro.grid.scenarios import get_scenario

#: submit machine down 200-350 s, a JobManager killed while it is away,
#: then a partition: the plan CI's chaos-smoke job replays
SUBMIT_REBOOT_PLAN = Path(__file__).parent / "plans" / "submit_reboot.json"
#: submit machine of the `pool-reuse` personal pool down 300-450 s
POOL_SUBMIT_REBOOT_PLAN = SUBMIT_REBOOT_PLAN.with_name(
    "pool_submit_reboot.json")
#: user burst's factory killed at 650 s and restarted 200 s later, and a
#: JobManager killed at 700 s, on `burst-flash`
FACTORY_KILL_PLAN = SUBMIT_REBOOT_PLAN.with_name("factory_kill.json")
#: the MDS index host down 120-420 s while three `quickstart` jobs wait
#: for a broker pick, then anl's gatekeeper down 560-620 s under them
INDEX_CRASH_PLAN = SUBMIT_REBOOT_PLAN.with_name("index_crash.json")


class TestRunOne:
    def test_cell_is_clean_and_quiesced(self):
        result = run_one("three-site", 5)
        assert result.ok
        assert result.violations == [] and not result.error
        assert result.digest and result.trace_records > 0
        assert result.plan["version"] == 1

    def test_audit_passes_on_deterministic_sim(self):
        result = run_one("credential", 9, audit=True)
        assert result.ok and result.divergence == {}

    def test_audit_reports_where_a_divergent_rebuild_differs(
            self, monkeypatch):
        """Fingerprints are rendered only for a divergent audit: the
        report names both digests and the first record that differs."""
        from repro.chaos import runner

        real, builds = runner.build_and_run, []

        def build(scenario_name, seed, plan=None):
            if not builds:
                tb, plan = real(scenario_name, seed, plan=plan)
            else:         # the rebuild logs one record the first lacks
                scenario = get_scenario(scenario_name)
                tb = scenario.build(seed)
                tb.sim.trace.log("audit-probe", "extra")
                plan = plan or FaultPlan.generate(
                    tb, horizon=scenario.fault_horizon,
                    kinds=scenario.fault_kinds,
                    max_faults=scenario.max_faults)
                plan.apply(tb)
                drive_to_quiescence(tb, scenario, plan)
            builds.append(tb)
            return tb, plan

        monkeypatch.setattr(runner, "build_and_run", build)
        result = run_one("credential", 9, audit=True)
        first, second = (trace_fingerprint(tb) for tb in builds)
        div = result.divergence
        assert div["first_digest"] == result.digest == run_digest(builds[0])
        assert div["second_digest"] == run_digest(builds[1]) != result.digest
        i = div["index"]
        assert 0 < i < len(first) and first[:i] == second[:i]
        assert div["first"] == first[i]
        assert div["second"] == second[i]
        assert div["second"].endswith("|audit-probe|extra|{}")

    def test_replay_reproduces_the_generated_run(self):
        first = run_one("credential", 6)
        replay = run_one("credential", 6,
                         plan=FaultPlan.from_dict(first.plan))
        assert replay.digest == first.digest
        assert replay.plan == first.plan

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_submit_machine_reboot_is_survivable(self, seed):
        """A hand-written plan may crash a submit machine (generated ones
        do not yet): the agent comes back by itself, GSI on."""
        plan = FaultPlan.from_json(SUBMIT_REBOOT_PLAN.read_text())
        tb, _ = build_and_run("credential", seed, plan=plan)
        assert tb.sim.hosts["submit-carol"].crash_count == 1
        assert evaluate_invariants(tb) == []
        states = [job.state for job in
                  tb.agents["carol"].gridmanager.jobs_for_user()]
        assert states == ["DONE"] * 4

    def test_pool_submit_machine_reboot_is_survivable(self):
        """The same failure class for the second universe: the personal
        pool's queue comes back through the POOL_RECOVER edges and every
        vanilla job still completes."""
        plan = FaultPlan.from_json(POOL_SUBMIT_REBOOT_PLAN.read_text())
        tb, _ = build_and_run("pool-reuse", 0, plan=plan)
        assert tb.sim.hosts["submit-dave"].crash_count == 1
        assert evaluate_invariants(tb) == []
        pool = [s for s in tb.agents["dave"].statuses()
                if s.universe == "vanilla"]
        assert len(pool) == 40 and all(s.is_complete for s in pool)

    def test_factory_kill_and_restart_is_survivable(self):
        """Both crashes go through ``Service.crash`` and the operator
        restart builds a fresh factory: the audited replay is clean."""
        plan = FaultPlan.from_json(FACTORY_KILL_PLAN.read_text())
        result = run_one("burst-flash", 0, plan=plan, audit=True)
        assert result.ok and result.divergence == {}, result.violations

    def test_index_crash_holds_broker_picks_until_sites_register_again(
            self):
        """While the index is down a broker-placed job stays unsubmitted;
        the index host's boot action builds a fresh (empty) Collector,
        and the job is placed once the sites' registrars advertise to
        it again -- on their short retry, not their next 60 s renewal."""
        from repro.condor import Collector
        from repro.grid.testbed import GIIS_HOST
        from repro.mds.schema import GRID_ADTYPE

        scenario = get_scenario("quickstart")
        plan = FaultPlan.from_json(INDEX_CRASH_PLAN.read_text())
        tb = scenario.build(0)
        plan.apply(tb)
        agent, index = tb.agents["alice"], tb.sim.hosts[GIIS_HOST]
        brokered = [s.job_id for s in agent.statuses()
                    if s.job_id not in ("1.0", "2.0")]   # 1.0, 2.0 named
        before = index.get_service("collector")
        tb.run(until=410.0)
        assert index.get_service("collector") is None
        assert [agent.status(j).state for j in brokered] == \
            ["UNSUBMITTED"] * 3
        tb.run(until=425.0)
        rebuilt = index.get_service("collector")
        assert isinstance(rebuilt, Collector) and rebuilt is not before
        assert rebuilt.live_ads(GRID_ADTYPE) == []
        assert [agent.status(j).state for j in brokered] == \
            ["UNSUBMITTED"] * 3
        tb.run(until=460.0)
        assert all(agent.status(j).state != "UNSUBMITTED" for j in brokered)
        drive_to_quiescence(tb, scenario, plan)
        assert len(rebuilt.live_ads(GRID_ADTYPE)) == 2
        assert evaluate_invariants(tb) == []
        assert all(agent.status(j).is_complete for j in brokered)
        assert {agent.status(j).resource for j in brokered} == {"anl-gk"}
        placed = [r.time for r in tb.sim.trace.select("gridmanager",
                                                      "submitted")
                  if r.details["job"] in brokered]
        assert len(placed) == 3 and min(placed) > 420.0

    def test_errors_are_reported_not_raised(self):
        result = run_one("no-such-scenario", 0)
        assert not result.ok
        assert "unknown scenario" in result.error
        # ...but the campaign driver refuses typos before forking.
        with pytest.raises(KeyError, match="no-such"):
            run_campaign(scenarios=("no-such-scenario",), seeds=range(1))


class TestCampaign:
    def test_inline_campaign(self):
        campaign = run_campaign(scenarios=("credential",),
                                seeds=range(3), workers=1)
        assert campaign.runs == 3 and campaign.ok
        assert campaign.workers == 1
        assert campaign.seeds_per_second > 0

    def test_multiprocess_matches_inline(self):
        inline = run_campaign(scenarios=("credential", "three-site"),
                              seeds=range(2), workers=1)
        sharded = run_campaign(scenarios=("credential", "three-site"),
                               seeds=range(2), workers=2)
        assert sharded.ok
        assert [r.digest for r in sharded.results] == \
            [r.digest for r in inline.results]

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="typo"):
            run_campaign(scenarios=("typo",), seeds=range(1))

    def test_report_shapes(self):
        campaign = run_campaign(scenarios=("credential",),
                                seeds=range(2), workers=1)
        data = campaign_to_dict(campaign)
        assert data["runs"] == 2 and data["ok"] is True
        assert data["scenarios"]["credential"]["runs"] == 2
        assert data["failures"] == []
        text = format_report(campaign)
        assert "chaos campaign" in text and "OK:" in text


class TestCli:
    def test_run_subcommand(self, capsys, tmp_path):
        report = tmp_path / "campaign.json"
        code = chaos_main(["run", "--scenarios", "credential",
                           "--seeds", "2", "--workers", "1",
                           "--json", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["ok"] is True and data["runs"] == 2

    def test_default_command_is_run(self, capsys):
        code = chaos_main(["--scenarios", "credential", "--seeds", "1",
                           "--workers", "1"])
        assert code == 0
        assert "chaos campaign" in capsys.readouterr().out

    def test_repro_subcommand(self, capsys):
        assert chaos_main(["repro", "credential", "3", "--no-audit"]) == 0
        out = capsys.readouterr().out
        assert "digest=" in out and "OK: no violations" in out

    def test_repro_replays_stored_plan(self, capsys, tmp_path):
        chaos_main(["repro", "credential", "3", "--no-audit"])
        first = capsys.readouterr().out
        digest = next(line for line in first.splitlines()
                      if line.startswith("digest="))
        plan_json = first.split("plan:\n", 1)[1].rsplit("OK:", 1)[0]
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan_json)
        chaos_main(["repro", "credential", "3", "--no-audit",
                    "--plan", str(plan_file)])
        assert digest in capsys.readouterr().out
