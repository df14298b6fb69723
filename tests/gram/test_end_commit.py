"""GRAM's end commit: a finished JobManager leaves its site.

The agent puts the jmid of each job whose end it has recorded on its
next ``gatekeeper.status`` ask (``done=``); the gatekeeper then deletes
that JobManager's records and takes it off.  A terminal JobManager that
hears no end commit within ``END_COMMIT_WINDOW`` leaves on its own and
keeps only its state record, so a late asker restarts it from that and
learns the end.  These tests are the safety argument: nothing but a
terminal JobManager of the caller's goes, no jmid is issued twice, and a
submit-machine crash on either side of the end commit still runs each
job exactly once.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.chaos.invariants import check_exactly_once
from repro.core.gridmanager import GridManager
from repro.gram import DONE, GramJobRequest
from repro.gram.jobmanager import REQUEST_NS, STATE_NS, JobManager
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.sim import Host, call

from .conftest import MiniGrid


def records(host, jmid):
    """The namespaces that still hold a record of `jmid` on `host`."""
    return [ns for ns in (STATE_NS, REQUEST_NS)
            if host.stable.get(ns, jmid) is not None]


def test_the_window_outlasts_four_status_periods():
    assert JobManager.END_COMMIT_WINDOW >= 4 * GridManager.PROBE_INTERVAL


# -- the gatekeeper's door -------------------------------------------------------

def _finished_and_running(grid):
    """One finished and one running JobManager of ours; (done, running)."""
    def scenario():
        short = yield from grid.client.submit(
            "site-gk", GramJobRequest(runtime=10.0))
        long = yield from grid.client.submit(
            "site-gk", GramJobRequest(runtime=5000.0))
        yield grid.sim.timeout(60.0)
        return short["jmid"], long["jmid"]

    return grid.drive(scenario(), until=70.0)["value"]


def test_an_end_commit_leaves_no_record(grid):
    done, running = _finished_and_running(grid)
    assert grid.gk_host.get_service(f"jm:{done}").state == DONE

    def scenario():
        return (yield from grid.client.status("site-gk", [running], [done]))

    answer = grid.drive(scenario(), until=80.0)["value"]
    assert list(answer) == [running]
    assert grid.gk_host.get_service(f"jm:{done}") is None
    assert records(grid.gk_host, done) == []
    assert grid.gatekeeper._jobmanagers["submit"].keys() == {running}


def test_an_end_commit_after_the_window_deletes_the_state_record(grid):
    done, _running = _finished_and_running(grid)
    grid.sim.run(until=70.0 + JobManager.END_COMMIT_WINDOW)
    assert grid.gk_host.get_service(f"jm:{done}") is None
    assert records(grid.gk_host, done) == [STATE_NS]    # GT2 keeps it

    grid.drive(grid.client.status("site-gk", [], [done]),
               until=grid.sim.now + 10.0)
    assert records(grid.gk_host, done) == []


@pytest.mark.parametrize("whose", ["running", "unknown", "another owner's"])
def test_a_done_that_names_no_finished_jobmanager_of_ours_changes_nothing(
        grid, whose):
    done, running = _finished_and_running(grid)
    other = Host(grid.sim, "other")
    sender, named = {
        "running": (grid.submit, running),
        "unknown": (grid.submit, "site-jm99"),
        "another owner's": (other, done),
    }[whose]
    before = {jmid: (grid.gk_host.get_service(f"jm:{jmid}"),
                     records(grid.gk_host, jmid)) for jmid in (done, running)}

    def scenario():
        return (yield from call(sender, "site-gk", "gatekeeper", "status",
                                jmids=(), done=(named,)))

    assert grid.drive(scenario(), until=80.0)["value"] == {}
    assert before == {
        jmid: (grid.gk_host.get_service(f"jm:{jmid}"),
               records(grid.gk_host, jmid)) for jmid in (done, running)}
    assert all(jm is not None and recs == [STATE_NS, REQUEST_NS]
               for jm, recs in before.values())


def test_a_rebooted_gatekeeper_reissues_no_jmid():
    grid = MiniGrid()
    first, _running = _finished_and_running(grid)
    grid.drive(grid.client.status("site-gk", [], [first]), until=80.0)
    assert records(grid.gk_host, first) == []
    grid.gk_host.crash()
    grid.gk_host.restart()

    def scenario():
        return (yield from grid.client.submit(
            "site-gk", GramJobRequest(runtime=10.0)))

    again = grid.drive(scenario(), until=100.0)["value"]["jmid"]
    assert again == "site-jm3"      # after jm1 (end-committed) and jm2


# -- the agent's side -----------------------------------------------------------

def make_tb():
    tb = GridTestbed(TestbedConfig(seed=5))
    site = tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("alice"))
    return tb, site, agent


def jobmanagers(site):
    return {name: svc for name, svc in site.gk_host.services.items()
            if name.startswith("jm:")}


def test_at_quiescence_only_running_or_windowed_jobmanagers_stay():
    tb, site, agent = make_tb()
    ids = [agent.submit(JobDescription(runtime=60.0 + 40.0 * i),
                        resource="site-gk") for i in range(6)]
    tb.run(until=400.0)
    live = jobmanagers(site)
    now = tb.sim.now
    for name, jm in live.items():
        ended = [r.time for r in tb.sim.trace.select(
            f"jobmanager:{jm.jmid}", "state") if r.details["state"] == DONE]
        # running, or finished less than a window ago
        assert not ended or now - ended[-1] < JobManager.END_COMMIT_WINDOW
    # the earlier jobs' ends rode the asks about the later ones
    jmids = [agent.queue.jobs[jid].jmid for jid in ids]
    assert records(site.gk_host, jmids[0]) == []
    tb.run_until_quiet()
    tb.run(until=tb.sim.now + JobManager.END_COMMIT_WINDOW)
    assert all(agent.status(jid).is_complete for jid in ids)
    assert jobmanagers(site) == {}
    assert check_exactly_once(tb) == []


def test_a_submit_crash_before_the_end_commit_resends_it_at_recovery():
    tb, site, agent = make_tb()
    short = agent.submit(JobDescription(runtime=50.0), resource="site-gk")
    agent.submit(JobDescription(runtime=3000.0), resource="site-gk")
    while not agent.status(short).is_terminal:
        tb.run(until=tb.sim.now + 1.0)
    jmid = agent.queue.jobs[short].jmid
    assert agent.gridmanager.sites["site-gk"].done == {jmid}
    agent.host.crash()          # the DONE is durable, its end commit not
    tb.run(until=tb.sim.now + 60.0)
    assert records(site.gk_host, jmid) == [STATE_NS, REQUEST_NS]
    agent.host.restart()
    assert agent.gridmanager.sites["site-gk"].done == {jmid}
    tb.run(until=tb.sim.now + 2 * GridManager.PROBE_INTERVAL)
    assert records(site.gk_host, jmid) == []
    tb.run_until_quiet()
    assert agent.status(short).is_complete
    assert agent.status(short).attempts == 1
    assert check_exactly_once(tb) == []


def test_a_jobmanager_retired_while_its_agent_was_down_is_not_rerun():
    tb, site, agent = make_tb()
    short = agent.submit(JobDescription(runtime=100.0), resource="site-gk")
    agent.submit(JobDescription(runtime=3000.0), resource="site-gk")
    tb.run(until=60.0)
    assert agent.status(short).state == "ACTIVE"
    jmid = agent.queue.jobs[short].jmid
    tb.failures.crash_host_at(60.0, agent.host)
    tb.run(until=400.0)     # finished ~160 s, retired ~280 s
    assert site.gk_host.get_service(f"jm:{jmid}") is None
    assert records(site.gk_host, jmid) == [STATE_NS]
    agent.host.restart()
    tb.run_until_quiet()
    status = agent.status(short)
    assert status.is_complete and status.attempts == 1
    assert tb.sim.metrics.counter("gridmanager.probe_outcomes").labelled(
        "restarted") == 1
    assert len(site.lrm.jobs) == 2
    assert check_exactly_once(tb) == []
