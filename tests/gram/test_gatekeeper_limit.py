"""Gatekeeper JobManager limits: the era's interface-machine bottleneck."""

import pytest

from repro import GridTestbed, JobDescription
from repro.gram import GatekeeperBusy, GramJobRequest, Refusal
from repro.sim import call
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

from .conftest import MiniGrid


def refusals(sim, site: str, event: str) -> int:
    """How many `event` refusals the gatekeeper of `site` recorded."""
    return len(sim.trace.select(f"gatekeeper:{site}", event))


def test_limit_rejects_excess_submissions():
    grid = MiniGrid(seed=5, slots=8)
    grid.gatekeeper.max_jobmanagers = 2
    results = {"ok": 0, "busy": 0}

    def scenario():
        for i in range(4):
            try:
                answer = yield from grid.client.submit_phase1(
                    "site-gk", GramJobRequest(runtime=500.0), seq=i)
                assert answer["user_limit"] is None
                results["ok"] += 1
            except GatekeeperBusy as busy:
                assert busy.reason is Refusal.SITE_JOBMANAGERS
                assert busy.user_limit is None
                assert busy.retry_after == grid.gatekeeper.RETRY_AFTER
                assert "site" in str(busy)      # text stays for humans
                results["busy"] += 1

    grid.drive(scenario())
    assert results == {"ok": 2, "busy": 2}
    assert refusals(grid.sim, "site", "submit_rejected_busy") == 2
    submits = grid.sim.metrics.get("gatekeeper.submits")
    assert submits.labels == {"new": 2.0, "rejected_busy": 2.0}


def test_a_refusal_is_an_answer_and_is_never_cached():
    """On the wire a refusal is the refused shape of the phase-1 answer,
    not a marshalled exception, and the (client, seq) dedup table does
    not remember it: the same sequence number is accepted once there is
    room."""
    grid = MiniGrid(seed=5, slots=8)
    grid.gatekeeper.max_user_jobmanagers = 1
    seen = []

    def scenario():
        for seq, runtime in (("a", 10.0), ("b", 10.0)):
            seen.append((yield from call(
                grid.submit, "site-gk", "gatekeeper", "submit", seq=seq,
                request=GramJobRequest(runtime=runtime))))
        yield from grid.client.commit("site-gk", seen[0]["jmid"])
        yield grid.sim.timeout(100.0)   # "a" finishes: its slot frees
        seen.append((yield from call(
            grid.submit, "site-gk", "gatekeeper", "submit", seq="b",
            request=GramJobRequest(runtime=10.0))))

    grid.drive(scenario())
    accepted, refused, retried = seen
    assert set(accepted) == {"jmid", "contact", "seq", "user_limit"}
    assert accepted["user_limit"] == 1
    assert set(refused) == {"reason", "user_limit", "retry_after",
                            "message"}
    assert refused["reason"] is Refusal.USER_JOBMANAGERS
    assert refused["user_limit"] == 1
    assert retried["seq"] == "b" and retried["jmid"] != accepted["jmid"]


def test_terminal_jobmanagers_do_not_count():
    grid = MiniGrid(seed=5, slots=8)
    grid.gatekeeper.max_jobmanagers = 1
    outcome = {}

    def scenario():
        r = yield from grid.client.submit("site-gk",
                                          GramJobRequest(runtime=10.0))
        # wait for the first job to finish; its JM goes terminal
        yield grid.sim.timeout(100.0)
        r2 = yield from grid.client.submit("site-gk",
                                           GramJobRequest(runtime=10.0))
        outcome["second"] = r2["jmid"]
        yield grid.sim.timeout(100.0)

    grid.drive(scenario())
    assert outcome["second"]
    states = {j.state for j in grid.lrm.jobs.values()}
    assert states == {"COMPLETED"}


def test_agent_backs_off_and_eventually_runs_everything():
    """A batch bigger than the gatekeeper's limit drains via the
    GridManager's transient-failure retry path."""
    tb = GridTestbed(TestbedConfig(seed=5))
    site = tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
    site.gatekeeper.max_jobmanagers = 3
    agent = tb.add_agent(AgentSpec("alice"))
    ids = [agent.submit(JobDescription(runtime=100.0),
                        resource="wisc-gk") for i in range(9)]
    tb.run_until_quiet(max_time=3 * 10**4)
    done = [j for j in ids if agent.status(j).is_complete]
    assert len(done) == 9
    # the limit really bit
    assert refusals(tb.sim, "wisc", "submit_rejected_busy") > 0
    # exactly-once held through the rejections
    assert len([j for j in site.lrm.jobs.values()
                if j.state == "COMPLETED"]) == 9


# -- per-user fair-share caps -------------------------------------------------

def test_per_user_limit_rejects_only_the_hog():
    """One tenant at its cap cannot consume another tenant's headroom."""
    from repro.sim import Host

    grid = MiniGrid(seed=7, slots=8)
    grid.gatekeeper.max_user_jobmanagers = 2
    other = Host(grid.sim, "submit2")
    results = {"ok": 0, "user_busy": 0, "other_ok": 0}

    def scenario():
        for i in range(4):       # same caller: third+ submit over the cap
            try:
                answer = yield from grid.client.submit_phase1(
                    "site-gk", GramJobRequest(runtime=500.0),
                    seq=f"hog-{i}")
                assert answer["user_limit"] == 2
                results["ok"] += 1
            except GatekeeperBusy as busy:
                # Typed: the reason, the limit that refused, and how
                # long the site says to wait if nothing of ours ends.
                assert busy.reason is Refusal.USER_JOBMANAGERS
                assert busy.user_limit == 2
                assert busy.retry_after == grid.gatekeeper.RETRY_AFTER
                assert "submit" in str(busy)     # names the offender
                results["user_busy"] += 1
        # a different caller still has full headroom
        for i in range(2):
            answer = yield from call(other, "site-gk", "gatekeeper",
                                     "submit", seq=f"good-{i}",
                                     request=GramJobRequest(runtime=500.0))
            assert "reason" not in answer
            results["other_ok"] += 1

    grid.drive(scenario())
    assert results == {"ok": 2, "user_busy": 2, "other_ok": 2}
    assert refusals(grid.sim, "site", "submit_rejected_user_busy") == 2
    # global cap untouched
    assert refusals(grid.sim, "site", "submit_rejected_busy") == 0
    rejects = grid.sim.metrics.get("gatekeeper.rejects_by_user")
    assert rejects.labels == {"submit": 2.0}
    submits = grid.sim.metrics.get("gatekeeper.submits_by_user")
    assert submits.labels == {"submit": 2.0, "submit2": 2.0}


def test_per_user_slots_free_up_when_jobmanagers_finish():
    grid = MiniGrid(seed=7, slots=8)
    grid.gatekeeper.max_user_jobmanagers = 1
    outcome = {}

    def scenario():
        yield from grid.client.submit("site-gk",
                                      GramJobRequest(runtime=10.0))
        yield grid.sim.timeout(100.0)   # first JM reaches a terminal state
        r2 = yield from grid.client.submit("site-gk",
                                           GramJobRequest(runtime=10.0))
        outcome["second"] = r2["jmid"]
        yield grid.sim.timeout(100.0)

    grid.drive(scenario())
    assert outcome["second"]
    assert refusals(grid.sim, "site", "submit_rejected_user_busy") == 0


def test_two_agents_drain_behind_per_user_caps():
    """End to end: a hog and a light user share a capped site; both
    drain.  The hog's first accepted submit states the cap, so it holds
    its other jobs back itself and the site never has to refuse."""
    tb = GridTestbed(TestbedConfig(seed=11))
    site = tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
    site.gatekeeper.max_user_jobmanagers = 2
    hog = tb.add_agent(AgentSpec("hog"))
    light = tb.add_agent(AgentSpec("light"))
    hog_ids = [hog.submit(JobDescription(runtime=100.0),
                          resource="wisc-gk") for _ in range(8)]
    light_ids = [light.submit(JobDescription(runtime=100.0),
                              resource="wisc-gk") for _ in range(2)]
    peak = {"hog": 0}

    def watch():
        while not all(hog.status(j).is_terminal for j in hog_ids):
            peak["hog"] = max(peak["hog"],
                              site.gatekeeper._live["submit-hog"])
            yield tb.sim.timeout(1.0)

    tb.sim.spawn(watch())
    tb.run_until_quiet(max_time=3 * 10**4)
    assert all(hog.status(j).is_complete for j in hog_ids)
    assert all(light.status(j).is_complete for j in light_ids)
    assert peak["hog"] == 2                         # the cap really bit
    # ... without a refusal
    assert refusals(tb.sim, "wisc", "submit_rejected_user_busy") == 0
    throttled = tb.sim.metrics.get("gridmanager.submit_throttled")
    assert throttled.labelled("wisc-gk") > 0
    assert len([j for j in site.lrm.jobs.values()
                if j.state == "COMPLETED"]) == 10


def test_a_lowered_cap_is_relearned_from_one_refusal():
    """The stated limit is refreshed by every answer: a cap the site
    lowers behind the client's back costs one refusal, after which the
    client waits for room instead of retrying blind."""
    tb = GridTestbed(TestbedConfig(seed=11))
    site = tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8,
                                max_user_jobmanagers=3))
    agent = tb.add_agent(AgentSpec("alice"))
    ids = [agent.submit(JobDescription(runtime=100.0 + 40.0 * i),
                        resource="wisc-gk") for i in range(6)]
    tb.run(until=50.0)              # three in flight, limit 3 learned
    site.gatekeeper.max_user_jobmanagers = 1
    tb.run_until_quiet(max_time=3 * 10**4)
    assert all(agent.status(j).is_complete for j in ids)
    assert refusals(tb.sim, "wisc", "submit_rejected_user_busy") == 1
    assert not tb.sim.trace.select("gridmanager", "gatekeeper_busy_backoff")


# -- no string match decides anything ------------------------------------------

def test_nothing_classifies_an_error_by_its_text():
    """``"..." in str(exc)`` is how the refusal used to be recognised;
    the reason enum replaced it.  Gate: under ``core/`` and ``gram/`` no
    ``in`` / ``not in`` test has a ``str(...)`` call on either side."""
    import ast
    from pathlib import Path

    import repro

    def is_str_call(node):
        return isinstance(node, ast.Call) and \
            getattr(node.func, "id", None) == "str"

    src = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted([*(src / "core").rglob("*.py"),
                        *(src / "gram").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and \
                    any(isinstance(op, (ast.In, ast.NotIn))
                        for op in node.ops) and \
                    any(map(is_str_call, [node.left, *node.comparators])):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == []
