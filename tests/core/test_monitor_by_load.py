"""Status by site: the GridManager launches a site's Grid Monitor when
its own load there calls for one (§5.1 as the agent's answer to its own
load), and only the *launch* is gated.

Below ``GridManager.MONITOR_MIN_JOBS`` in flight at a site nothing about
the per-job §4.2 path changes -- not one RPC; at or above it the site is
watched through one report stream, which then lives until the monitor
retires itself.  Most tests lower the constant to 4 to stay small.
"""

from pathlib import Path

import pytest

from repro import GridTestbed, JobDescription
from repro.chaos import FaultPlan
from repro.chaos.digest import run_digest
from repro.chaos.invariants import evaluate_invariants
from repro.chaos.runner import build_and_run
from repro.core.gridmanager import GridManager
from repro.gram.client import Gram2Client
from repro.gram.monitor import GridMonitor
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.sim import rpc
from repro.sim.rpc import CallContext

PLAN = Path(__file__).parents[1] / "chaos" / "plans" / "monitor_by_load.json"


@pytest.fixture
def four(monkeypatch):
    monkeypatch.setattr(GridManager, "MONITOR_MIN_JOBS", 4)


@pytest.fixture
def tally(monkeypatch):
    stats = {}
    monkeypatch.setattr(rpc, "RPC_STATS", stats)
    return stats


def make_tb(seed=31, sites=("s0",), cpus=8):
    tb = GridTestbed(TestbedConfig(seed=seed))
    for name in sites:
        tb.add_site(SiteSpec(name, scheduler="pbs", cpus=cpus))
    return tb, tb.add_agent(AgentSpec("alice"))


def submit(agent, n, site="s0", runtime=600.0):
    return [agent.submit(JobDescription(runtime=runtime),
                         resource=f"{site}-gk") for _ in range(n)]


def count(stats, method):
    """RPCs of `method` so far, whatever the service."""
    return sum(n for (_svc, m), n in stats.items() if m == method)


def record_calls(monkeypatch, method):
    """Times and contacts of every ``Gram2Client.<method>`` call."""
    calls, real = [], getattr(Gram2Client, method)

    def recorded(self, contact, *args, **kwargs):
        calls.append((self.sim.now, contact))
        return (yield from real(self, contact, *args, **kwargs))

    monkeypatch.setattr(Gram2Client, method, recorded)
    return calls


def drain(tb, agent, cap=20_000.0):
    while tb.sim.now < cap and \
            not all(s.is_terminal for s in agent.statuses()):
        tb.run(until=tb.sim.now + 200.0)
    assert all(s.is_complete for s in agent.statuses())


# -- the launch is gated on load --------------------------------------------------

def test_below_the_constant_nothing_changes(four, tally, monkeypatch):
    def run(min_jobs):
        monkeypatch.setattr(GridManager, "MONITOR_MIN_JOBS", min_jobs)
        tally.clear()
        tb, agent = make_tb(sites=("s0", "s1"))
        submit(agent, 3, "s0", runtime=200.0)
        submit(agent, 3, "s1", runtime=300.0)
        drain(tb, agent)
        return dict(tally), run_digest(tb)

    stats, digest = run(4)
    assert count(stats, "start_monitor") == 0
    assert count(stats, "monitor_report") == 0
    assert count(stats, "status") > 0
    # ... and it is the very run of an agent that never launches one
    assert (stats, digest) == run(10**9)


def test_crossing_launches_once_per_site_and_status_stops_there(
        four, monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb(sites=("s0", "s1"))
    submit(agent, 6, "s0")
    submit(agent, 3, "s1")
    tb.run(until=400.0)

    assert [contact for _t, contact in started] == ["s0-gk"]
    assert {contact for _t, contact in asked} == {"s1-gk"}
    starts = tb.sim.metrics.counter("gridmanager.monitor_starts")
    assert starts.labelled("ok") == 1 and starts.value == 1
    assert tb.sim.metrics.counter("gridmanager.monitor_reports").value > 0


def test_the_monitor_outlives_the_load_and_retires_itself(
        four, monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb()
    for runtime in (100.0, 100.0, 100.0, 900.0, 1000.0):
        submit(agent, 1, runtime=runtime)
    gk = tb.sites["s0"].gk_host
    tb.run(until=500.0)
    # three of five jobs are gone: below the constant, monitor kept
    assert agent.scheduler.inflight_on("s0-gk") == 2
    assert any(name.startswith("monitor:") for name in gk.services)
    assert agent.scheduler.gridmanager._monitor_fresh("s0-gk")
    drain(tb, agent)
    # ... and its report stream carried the last two to the end
    assert len(started) == 1 and asked == []
    assert evaluate_invariants(tb) == []
    tb.run(until=tb.sim.now + 600.0)
    assert not any(name.startswith("monitor:") for name in gk.services)
    assert tb.sim.trace.select("monitor:submit-alice", "retire")
    assert len(started) == 1


# -- a stale heartbeat ------------------------------------------------------------

def test_stale_below_the_constant_resumes_probes_without_relaunch(
        four, monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb()
    submit(agent, 2, runtime=60.0)
    submit(agent, 2, runtime=900.0)
    tb.failures.crash_service_at(150.0, tb.sites["s0"].gk_host, "monitor:")
    tb.run(until=150.0)
    assert len(started) == 1 and asked == []
    assert agent.scheduler.inflight_on("s0-gk") == 2
    drain(tb, agent)
    # silence -> the two jobs left are probed, one each per pass; nobody
    # asks for a second monitor for two jobs
    assert len(started) == 1
    assert len(asked) >= 2 * 20 and min(t for t, _ in asked) > 150.0
    assert tb.sim.metrics.counter("gatekeeper.monitors_started").value == 1
    assert evaluate_invariants(tb) == []


def test_stale_at_the_constant_resumes_probes_and_relaunches_once_a_cooldown(
        four, monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb()
    submit(agent, 5, runtime=1500.0)
    # the WAN goes: reports stop, the monitor retires on its third lost
    # report, and every relaunch fails until the heal
    tb.failures.partition_at(100.0, agent.host.name, "s0-gk",
                             heal_after=500.0)
    tb.run(until=100.0)
    assert len(started) == 1 and asked == []
    drain(tb, agent)

    relaunches = [t for t, _ in started[1:]]
    during = [t for t in relaunches if t < 600.0]
    assert len(during) >= 3
    assert all(b - a >= GridManager.MONITOR_START_COOLDOWN
               for a, b in zip(relaunches, relaunches[1:]))
    probed = [t for t, _ in asked]
    assert probed and min(probed) > 100.0
    # the first relaunch after the heal took: the stream is back, the
    # probes stop again
    assert len([t for t in relaunches if t >= 600.0]) == 1
    assert max(probed) < max(relaunches) + GridManager.PROBE_INTERVAL
    assert tb.sim.metrics.counter("gatekeeper.monitors_started").value == 2
    assert evaluate_invariants(tb) == []


def test_horizon_is_made_of_the_interval_the_monitor_states(
        four, monkeypatch):
    """A monitor reporting every 100 s was judged against the class
    default's 75 s horizon: stale for ever, relaunched every cooldown."""
    def slow_monitor(self, contact, callback):
        return (yield from rpc.call(
            self.host, contact, "gatekeeper", "start_monitor",
            callback=tuple(callback), interval=100.0))

    monkeypatch.setattr(Gram2Client, "start_monitor", slow_monitor)
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb()
    submit(agent, 5, runtime=1200.0)
    drain(tb, agent)
    assert len(started) == 1 and asked == []
    assert tb.sim.metrics.counter("gridmanager.monitor_reports").value >= 10


# -- whose report it is ----------------------------------------------------------

def test_a_report_from_a_monitor_nobody_asked_for_is_refused(four, tally):
    tb, agent = make_tb()
    submit(agent, 2)
    tb.run(until=20.0)
    gm = agent.scheduler.gridmanager
    # somebody else's doing: a monitor for alice, reporting to her callback
    gatekeeper = tb.sites["s0"].gatekeeper
    gatekeeper.handle_start_monitor(
        CallContext(agent.host.name), (agent.host.name, gm.callback_service))
    tb.run(until=200.0)

    assert tb.sim.metrics.counter("gridmanager.monitor_reports").value == 0
    assert not gm._monitor_fresh("s0-gk")
    reports = tb.sim.metrics.counter("monitor.reports")
    assert reports.labelled("failed") == GridMonitor.MAX_REPORT_FAILURES
    assert reports.labelled("ok") == 0
    # refused is not acknowledged, and a refused monitor gives up
    assert tb.sim.trace.select("monitor:submit-alice", "retire")
    assert count(tally, "status") > 0
    drain(tb, agent)


def test_submit_reboot_relaunches_from_the_recovered_load(
        four, tally, monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    tb, agent = make_tb()
    submit(agent, 5, runtime=900.0)
    tb.failures.crash_host_at(100.0, agent.host, down_for=60.0)
    tb.run(until=100.0)
    submits = count(tally, "submit")
    assert len(started) == 1
    tb.run(until=400.0)

    # the heartbeat was volatile and is gone; the queue came back from
    # disk with five jobs in flight at s0, which is what calls for one
    assert agent.scheduler.inflight_on("s0-gk") == 5
    assert len(started) == 2 and started[1][0] > 160.0
    assert count(tally, "submit") == submits
    assert agent.scheduler.gridmanager._monitor_fresh("s0-gk")
    drain(tb, agent)
    assert evaluate_invariants(tb) == []


# -- the committed chaos plan -----------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_monitor_kill_crash_and_partition_above_the_constant(seed):
    """`gram-by-load`: nobody set ``grid_monitor``; 48 jobs in flight per
    site launch the monitors and four cpus drain them slowly enough that
    every fault still finds 32 there.  One monitor is killed, the other
    site's interface machine reboots, then the first site is cut off."""
    plan = FaultPlan.from_json(PLAN.read_text())
    tb, _ = build_and_run("gram-by-load", seed, plan=plan)
    assert not tb.agents["scale"].scheduler.grid_monitor
    assert evaluate_invariants(tb) == []
    jobs = tb.agents["scale"].scheduler.jobs.values()
    assert [job.state for job in jobs] == ["DONE"] * 96
    ran = sum(len([j for j in site.lrm.jobs.values()
                   if j.state == "COMPLETED"])
              for site in tb.sites.values())
    assert ran == 96        # exactly once, counted where the jobs ran
    # killed monitor, rebooted gatekeeper and healed partition each cost
    # one relaunch on top of the two first launches
    assert tb.sim.metrics.counter("gatekeeper.monitors_started").value >= 4
    assert tb.sim.metrics.counter(
        "gridmanager.probe_outcomes").labelled("restarted") >= 1
