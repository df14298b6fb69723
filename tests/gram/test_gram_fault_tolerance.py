"""GRAM fault tolerance: the §4.2 failure classes at the protocol level.

The Condor-G GridManager automates the recovery choreography; these tests
drive it by hand to pin down the protocol-level guarantees the agent
relies on.
"""

import pytest

from repro.gram import DONE, FAILED, GramJobRequest
from repro.sim import RPCTimeout

from .conftest import MiniGrid


@pytest.fixture
def grid():
    return MiniGrid()


def get_jm(grid, jmid):
    return grid.gk_host.get_service(f"jm:{jmid}")


def test_jobmanager_crash_does_not_kill_lrm_job(grid):
    """Failure class 1: the daemon dies, the queued/running job survives."""
    results = {}

    def scenario():
        r = yield from grid.client.submit("site-gk",
                                          GramJobRequest(runtime=100.0))
        yield grid.sim.timeout(20.0)
        get_jm(grid, r["jmid"]).crash()
        # the gatekeeper's status -- the §4.2 probe -- now leaves it
        # out: the failure is observable, and told apart from a dead site
        answer = yield from grid.client.status(r["contact"], [r["jmid"]])
        results["probe"] = "alive" if r["jmid"] in answer else "dead"
        yield grid.sim.timeout(150.0)
        results["lrm_states"] = [j.state for j in grid.lrm.jobs.values()]

    grid.drive(scenario())
    assert results["probe"] == "dead"
    assert results["lrm_states"] == ["COMPLETED"]


def test_restarted_jobmanager_resumes_watching(grid):
    results = {}

    def scenario():
        r = yield from grid.client.submit("site-gk",
                                          GramJobRequest(runtime=100.0))
        yield grid.sim.timeout(20.0)
        get_jm(grid, r["jmid"]).crash()
        yield grid.sim.timeout(10.0)
        revived = yield from grid.client.restart_jobmanager(
            r["contact"], r["jmid"])
        results["revived"] = revived["revived"]
        # wait for the job to finish and the revived JM to notice
        yield grid.sim.timeout(150.0)
        answer = yield from grid.client.status(r["contact"], [r["jmid"]])
        results["final"] = answer[r["jmid"]]["state"]

    grid.drive(scenario())
    assert results["revived"] is True
    assert results["final"] == DONE


def test_restart_with_unknown_jmid_errors(grid):
    def scenario():
        result = yield from grid.client.restart_jobmanager("site-gk",
                                                           "no-such-jm")
        return result

    box = grid.drive(scenario())
    assert "error" in box


def test_restart_while_alive_is_noop(grid):
    def scenario():
        r = yield from grid.client.submit("site-gk",
                                          GramJobRequest(runtime=50.0))
        yield grid.sim.timeout(10.0)
        revived = yield from grid.client.restart_jobmanager(
            r["contact"], r["jmid"])
        return revived

    box = grid.drive(scenario())
    assert box["value"]["revived"] is False


def test_gatekeeper_host_crash_and_recovery(grid):
    """Failure class 2: the whole interface machine reboots.

    The LRM job survives (it lives on the cluster side); the state file
    survives (stable storage); after restart the gatekeeper can revive
    the JobManager, which reconnects to the LRM job.
    """
    results = {}

    def scenario():
        r = yield from grid.client.submit("site-gk",
                                          GramJobRequest(runtime=100.0))
        yield grid.sim.timeout(20.0)
        grid.gk_host.crash()
        # while down: the status probe times out (client cannot tell
        # crash from partition -- §4.2)
        try:
            yield from grid.client.status("site-gk", [r["jmid"]])
            results["ping_down"] = "ok"
        except RPCTimeout:
            results["ping_down"] = "timeout"
        yield grid.sim.timeout(30.0)
        grid.gk_host.restart()
        # back up, it answers -- without the JobManager the reboot lost
        results["ping_up"] = yield from grid.client.status(
            "site-gk", [r["jmid"]])
        revived = yield from grid.client.restart_jobmanager(
            r["contact"], r["jmid"])
        results["revived"] = revived["revived"]
        yield grid.sim.timeout(150.0)
        answer = yield from grid.client.status(r["contact"], [r["jmid"]])
        results["final"] = answer[r["jmid"]]["state"]
        results["lrm_jobs"] = len(grid.lrm.jobs)

    grid.drive(scenario())
    assert results["ping_down"] == "timeout"
    assert results["ping_up"] == {}
    assert results["revived"] is True
    assert results["final"] == DONE
    assert results["lrm_jobs"] == 1          # no duplicate submission


def test_job_completed_during_network_outage_reported_after(grid):
    """Failure class 4: partition heals after the job already finished;
    the revived/reconnected JobManager reports DONE, not a lost job."""
    results = {}

    def scenario():
        r = yield from grid.client.submit("site-gk",
                                          GramJobRequest(runtime=30.0))
        yield grid.sim.timeout(5.0)
        grid.net.partition("submit", "site-gk")
        yield grid.sim.timeout(100.0)        # job finishes during outage
        grid.net.heal("submit", "site-gk")
        answer = yield from grid.client.status(r["contact"], [r["jmid"]])
        results["final"] = answer[r["jmid"]]["state"]

    grid.drive(scenario())
    assert results["final"] == DONE


def test_two_phase_commit_exactly_once_under_loss():
    """With 30% message loss, retried 2PC submits still produce exactly
    one LRM job per logical submission."""
    grid = MiniGrid(seed=42, loss_rate=0.3, slots=8)
    grid.client.max_attempts = 30   # ride out unlucky loss streaks
    submitted = 5
    results = {}

    def scenario():
        responses = []
        for _ in range(submitted):
            r = yield from grid.client.submit(
                "site-gk", GramJobRequest(runtime=10.0))
            responses.append(r)
        yield grid.sim.timeout(400.0)
        results["jmids"] = {r["jmid"] for r in responses}

    grid.drive(scenario())
    assert len(results["jmids"]) == submitted
    assert len(grid.lrm.jobs) == submitted
    states = {j.state for j in grid.lrm.jobs.values()}
    assert states == {"COMPLETED"}
    # the loss actually exercised the retry path
    assert grid.net.dropped > 0


def test_v1_retry_can_duplicate_jobs():
    """The baseline the paper replaced: blind retry duplicates work."""
    from repro.gram import Gram1Client

    # Seed chosen so that at least one response (not request) is lost,
    # making a blind retry create a duplicate JobManager + LRM job.
    grid = MiniGrid(seed=1, loss_rate=0.4, slots=16)
    client = Gram1Client(grid.submit, retry=True)

    def scenario():
        for _ in range(5):
            try:
                yield from client.submit("site-gk",
                                         GramJobRequest(runtime=5.0))
            except Exception:  # noqa: BLE001
                pass
        yield grid.sim.timeout(300.0)

    grid.drive(scenario())
    assert len(grid.lrm.jobs) > 5   # duplicates happened


def test_v1_no_retry_can_lose_jobs():
    grid = MiniGrid(seed=3, loss_rate=0.5, slots=16)
    from repro.gram import Gram1Client

    client = Gram1Client(grid.submit, retry=False)
    results = {"ok": 0, "lost": 0}

    def scenario():
        for _ in range(10):
            try:
                yield from client.submit("site-gk",
                                         GramJobRequest(runtime=5.0))
                results["ok"] += 1
            except Exception:  # noqa: BLE001
                results["lost"] += 1
        yield grid.sim.timeout(300.0)

    grid.drive(scenario())
    assert results["lost"] > 0
