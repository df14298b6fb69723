"""The Grid Monitor (§5.1): batched status fan-in and its fault paths.

Only an agent with ``AgentSpec(grid_monitor=True)`` watches its sites by
report; every other one asks each site's gatekeeper, at every load.  The
monitor changes the RPC pattern on the wire, so these tests cover both
halves of the §5.1 claim -- the reports displace the status asks AND
nothing the asking guaranteed is lost (exactly-once, zero stranded jobs,
deterministic digests) when the monitor crashes, the WAN partitions, a
JobManager dies behind a fresh monitor, or either machine reboots.
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
from repro.grid.scenarios import get_scenario, scale_gram_grid
from repro.sim import rpc
from repro.sim.rpc import CallContext

PLAN = Path(__file__).parents[1] / "chaos" / "plans" / "monitor_faults.json"


def make_tb(seed=3, n_sites=1, cpus=4, user="alice", grid_monitor=True):
    tb = GridTestbed(TestbedConfig(seed=seed))
    for i in range(n_sites):
        tb.add_site(SiteSpec(f"s{i}", scheduler="pbs", cpus=cpus))
    agent = tb.add_agent(AgentSpec(user, grid_monitor=grid_monitor))
    return tb, agent


def submit_jobs(tb, agent, n, runtime=120.0, step=10.0):
    n_sites = len(tb.sites)
    sites = sorted(tb.sites)
    return [agent.submit(JobDescription(runtime=runtime + step * i),
                         resource=f"{sites[i % n_sites]}-gk")
            for i in range(n)]


def run_to_terminal(tb, agent, ids, cap=20_000.0, chunk=500.0):
    while not all(agent.status(j).is_terminal for j in ids) \
            and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + chunk)


def record_calls(monkeypatch, method):
    """Times and contacts of every ``Gram2Client.<method>`` call."""
    calls, real = [], getattr(Gram2Client, method)

    def recorded(self, contact, *args, **kwargs):
        calls.append((self.sim.now, contact))
        return (yield from real(self, contact, *args, **kwargs))

    monkeypatch.setattr(Gram2Client, method, recorded)
    return calls


def test_monitored_run_batches_status_and_stays_correct(monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    tb, agent = make_tb(n_sites=2)
    ids = submit_jobs(tb, agent, 8)
    run_to_terminal(tb, agent, ids)

    assert all(agent.status(j).is_complete for j in ids)
    reg = tb.sim.metrics
    # one launch per site, with its first job there ...
    assert sorted(contact for _t, contact in started) == ["s0-gk", "s1-gk"]
    assert reg.counter("gridmanager.monitor_starts").labelled("ok") == 2
    # ... the fan-in happened ...
    assert reg.counter("gridmanager.monitor_reports").value > 0
    assert reg.counter("gridmanager.monitor_jobs_reported").value >= len(ids)
    # ... and completely displaced the status asks: heartbeats stayed
    # fresh, so no site's watcher had to ask its gatekeeper.
    assert reg.counter("gridmanager.probe_outcomes").value == 0
    assert evaluate_invariants(tb) == []


def test_a_default_agent_asks_its_site_and_never_launches_a_monitor(
        monkeypatch):
    """64 jobs in flight at one site, twice what once launched a monitor
    by load: the site is asked about them once per pass, and nobody asks
    for a monitor."""
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb(cpus=16, grid_monitor=False)
    submit_jobs(tb, agent, 64, runtime=900.0, step=1.0)
    tb.run(until=100.0)
    assert len(agent.gridmanager.sites["s0-gk"].inflight) == 64
    tb.run(until=600.0)

    assert started == []
    assert tb.sim.metrics.counter("gatekeeper.monitors_started").value == 0
    times = [t for t, _contact in asked]
    assert len(times) >= (600.0 - times[0]) // GridManager.PROBE_INTERVAL
    assert max(b - a for a, b in zip(times, times[1:])) < \
        2 * GridManager.PROBE_INTERVAL


def test_monitor_reports_replace_site_asks_one_for_one():
    """§5.1 against one ``status`` per site per interval: same workload,
    zero lost jobs either way.  Since the asks are batched per site a
    report stream no longer collapses anything: one report per site per
    interval replaces one ask per site per interval, at about the same
    RPC count."""
    def measure(grid_monitor):
        rpc.RPC_STATS = {}
        try:
            tb = scale_gram_grid(seed=11, jobs=200, n_sites=4, cpus=10,
                                 grid_monitor=grid_monitor)
            while tb.sim.now < 30_000.0:
                tb.run(until=tb.sim.now + 500.0)
                agent = tb.agents["scale"]
                if not any(not j.is_terminal
                           for j in agent.gridmanager.jobs_for_user()):
                    break
            stats = rpc.RPC_STATS
        finally:
            rpc.RPC_STATS = None
        agent = tb.agents["scale"]
        done = sum(1 for j in agent.gridmanager.jobs_for_user()
                   if j.state == "DONE")
        assert not [key for key in stats if key[0].startswith("jm:")
                    and key[1] == "status"]
        status = sum(n for (svc, m), n in stats.items() if m == "status")
        monitor = sum(n for (svc, m), n in stats.items()
                      if m in ("monitor_report", "start_monitor"))
        return done, status, monitor

    done_off, status_off, monitor_off = measure(False)
    done_on, status_on, monitor_on = measure(True)
    assert done_off == done_on == 200         # zero lost jobs either way
    assert monitor_off == 0                   # 50 jobs/site: still asked
    assert status_on == 0                     # asking fully displaced
    assert 0.75 <= monitor_on / status_off <= 1.25, (monitor_on, status_off)


def test_monitor_kill_degrades_to_polling_and_relaunches():
    tb, agent = make_tb(seed=5)
    ids = submit_jobs(tb, agent, 4, runtime=700.0)
    tb.run(until=40.0)     # monitor up, first reports in
    assert tb.sim.metrics.counter("gatekeeper.monitors_started").value == 1

    gk_host = tb.sites["s0"].gk_host
    tb.failures.crash_service_at(60.0, gk_host, "monitor:")
    run_to_terminal(tb, agent, ids)

    assert all(agent.status(j).is_complete for j in ids)
    # silence detected -> a fresh monitor was requested and launched
    assert tb.sim.metrics.counter(
        "gatekeeper.monitors_started").value >= 2
    assert tb.sim.trace.select("gridmanager", "monitor_started")
    assert evaluate_invariants(tb) == []


def test_monitor_partitioned_while_jobs_finish_strands_nothing():
    """Jobs go terminal site-side while the WAN is down: the monitor's
    reports all fail (and it retires), but the terminal states survive
    in the JobManagers and a relaunched monitor (or the status ask at
    a stale site) delivers them after the heal."""
    tb, agent = make_tb(seed=8)
    ids = submit_jobs(tb, agent, 4, runtime=100.0)
    tb.run(until=40.0)
    # partition spans the jobs' completion (~140-170s site time)
    tb.failures.partition_at(50.0, agent.host.name,
                             tb.sites["s0"].gk_host.name,
                             heal_after=400.0)
    run_to_terminal(tb, agent, ids)

    assert all(agent.status(j).is_complete for j in ids)
    reg = tb.sim.metrics
    assert reg.counter("monitor.reports").labelled("failed") >= 1
    assert evaluate_invariants(tb) == []


def test_gatekeeper_reboot_relaunches_monitor():
    tb, agent = make_tb(seed=13)
    ids = submit_jobs(tb, agent, 4, runtime=800.0)
    tb.run(until=40.0)
    tb.failures.crash_host_at(60.0, tb.sites["s0"].gk_host,
                              down_for=90.0)
    run_to_terminal(tb, agent, ids)

    assert all(agent.status(j).is_complete for j in ids)
    # the reboot killed the monitor with the machine; the client
    # relaunched it through the recovered gatekeeper
    assert tb.sim.metrics.counter(
        "gatekeeper.monitors_started").value >= 2
    assert evaluate_invariants(tb) == []


def test_jm_kill_behind_fresh_monitor_goes_suspect_and_recovers():
    """A dead JobManager is *invisible* to a healthy monitor (it scans
    live services).  The report-absence detector must mark exactly that
    job suspect so the site's next pass asks about it alone while
    everything else stays on the report stream."""
    tb, agent = make_tb(seed=21)
    ids = submit_jobs(tb, agent, 3, runtime=600.0)
    tb.run(until=40.0)
    tb.failures.crash_service_at(70.0, tb.sites["s0"].gk_host, "jm:")
    run_to_terminal(tb, agent, ids)

    assert all(agent.status(j).is_complete for j in ids)
    reg = tb.sim.metrics
    assert reg.counter("gridmanager.monitor_suspects").value >= 1
    assert reg.counter("gridmanager.probe_outcomes").labelled(
        "restarted") >= 1
    # exactly once: every LRM execution belongs to exactly one job
    lrm = tb.sites["s0"].lrm
    completed = [j for j in lrm.jobs.values() if j.state == "COMPLETED"]
    assert len(completed) == len(ids)
    assert evaluate_invariants(tb) == []


def test_monitors_retire_after_the_client_exits(monkeypatch):
    """No zombie daemons: once every job is delivered and the
    GridManager exits, the site-side monitors run out of work (or lose
    their client) and retire instead of reporting for ever."""
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb(seed=2, n_sites=2)
    ids = submit_jobs(tb, agent, 6, runtime=60.0)
    run_to_terminal(tb, agent, ids)
    # the report streams carried every job to the end
    assert len(started) == 2 and asked == []
    tb.run(until=tb.sim.now + 2500.0)    # well past both retire horizons

    lingering = [name for host in tb.sim.hosts.values()
                 for name in host.services if name.startswith("monitor:")]
    assert lingering == []
    # without GSI the monitor's owner is the submit host's name
    assert tb.sim.trace.select("monitor:submit-alice", "retire")
    assert len(started) == 2


def test_monitored_digest_is_deterministic_and_mode_independent():
    def digest(seed):
        tb = get_scenario("monitored-gram").build(seed)
        tb.run(until=3000.0)
        return run_digest(tb)

    base = digest(5)
    assert digest(5) == base                   # same seed reproduces
    assert digest(6) != base                   # seeds actually matter


# -- a stale heartbeat ------------------------------------------------------------

def test_stale_heartbeat_resumes_asks_and_relaunches_once_a_cooldown(
        monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb(seed=31, cpus=8)
    submit_jobs(tb, agent, 5, runtime=1500.0, step=0.0)
    # the WAN goes: reports stop, the monitor retires on its third lost
    # report, and every relaunch fails until the heal
    tb.failures.partition_at(100.0, agent.host.name, "s0-gk",
                             heal_after=500.0)
    tb.run(until=100.0)
    assert len(started) == 1 and asked == []
    ids = [job.job_id for job in agent.gridmanager.jobs_for_user()]
    run_to_terminal(tb, agent, ids)
    assert all(agent.status(j).is_complete for j in ids)

    relaunches = [t for t, _ in started[1:]]
    during = [t for t in relaunches if t < 600.0]
    assert len(during) >= 3
    assert all(b - a >= GridManager.MONITOR_START_COOLDOWN
               for a, b in zip(relaunches, relaunches[1:]))
    probed = [t for t, _ in asked]
    assert probed and min(probed) > 100.0
    # the first relaunch after the heal took: the stream is back, the
    # asks stop again
    assert len([t for t in relaunches if t >= 600.0]) == 1
    assert max(probed) < max(relaunches) + GridManager.PROBE_INTERVAL
    assert tb.sim.metrics.counter("gatekeeper.monitors_started").value == 2
    assert evaluate_invariants(tb) == []


def test_horizon_is_made_of_the_interval_the_monitor_states(monkeypatch):
    """A monitor reporting every 100 s judged against a 30 s interval's
    75 s horizon would be stale for ever and relaunched every cooldown."""
    monkeypatch.setattr(GridMonitor, "REPORT_INTERVAL", 100.0)
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb(seed=31, cpus=8)
    ids = submit_jobs(tb, agent, 5, runtime=1200.0, step=0.0)
    run_to_terminal(tb, agent, ids)
    assert all(agent.status(j).is_complete for j in ids)
    assert len(started) == 1 and asked == []
    assert tb.sim.metrics.counter("gridmanager.monitor_reports").value >= 10


# -- whose report it is ----------------------------------------------------------

def test_a_report_from_a_monitor_nobody_asked_for_is_refused(monkeypatch):
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb(seed=31, cpus=8, grid_monitor=False)
    ids = submit_jobs(tb, agent, 2, runtime=600.0, step=0.0)
    tb.run(until=20.0)
    gm = agent.gridmanager
    # somebody else's doing: a monitor for alice, reporting to her callback
    gatekeeper = tb.sites["s0"].gatekeeper
    gatekeeper.handle_start_monitor(
        CallContext(agent.host.name), (agent.host.name, gm.callback_service))
    tb.run(until=200.0)

    assert tb.sim.metrics.counter("gridmanager.monitor_reports").value == 0
    assert not agent.gridmanager.sites["s0-gk"].fresh(tb.sim.now)
    reports = tb.sim.metrics.counter("monitor.reports")
    assert reports.labelled("failed") == GridMonitor.MAX_REPORT_FAILURES
    assert reports.labelled("ok") == 0
    # refused is not acknowledged, and a refused monitor gives up
    assert tb.sim.trace.select("monitor:submit-alice", "retire")
    assert asked
    run_to_terminal(tb, agent, ids)
    assert all(agent.status(j).is_complete for j in ids)


def test_submit_reboot_relaunches_the_monitor(monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    tb, agent = make_tb(seed=31, cpus=8)
    ids = submit_jobs(tb, agent, 5, runtime=900.0, step=0.0)
    tb.failures.crash_host_at(100.0, agent.host, down_for=60.0)
    tb.run(until=100.0)
    submits = tb.sim.metrics.counter("gatekeeper.submits").value
    assert len(started) == 1
    tb.run(until=400.0)

    # the heartbeat was volatile and is gone; the queue came back from
    # disk with five jobs in flight at s0, which a monitor is launched for
    site = agent.gridmanager.sites["s0-gk"]
    assert len(site.inflight) == 5
    assert len(started) == 2 and started[1][0] > 160.0
    assert tb.sim.metrics.counter("gatekeeper.submits").value == submits
    assert site.fresh(tb.sim.now)
    run_to_terminal(tb, agent, ids)
    assert all(agent.status(j).is_complete for j in ids)
    assert evaluate_invariants(tb) == []


# -- the committed chaos plan -----------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_monitor_kill_crash_and_partition_from_the_committed_plan(seed):
    """`monitored-gram` under ``monitor_faults.json``: one site's monitor
    is killed, another site's interface machine reboots, then the first
    site is cut off from the submit machine."""
    plan = FaultPlan.from_json(PLAN.read_text())
    tb, _ = build_and_run("monitored-gram", seed, plan=plan)
    assert evaluate_invariants(tb) == []
    jobs = tb.agents["scale"].gridmanager.jobs_for_user()
    assert [job.state for job in jobs] == ["DONE"] * 80
    ran = sum(len([j for j in site.lrm.jobs.values()
                   if j.state == "COMPLETED"])
              for site in tb.sites.values())
    assert ran == 80        # exactly once, counted where the jobs ran
    # the killed monitor and the rebooted gatekeeper each cost one
    # relaunch on top of the four first launches
    assert tb.sim.metrics.counter("gatekeeper.monitors_started").value >= 6
    assert tb.sim.metrics.counter(
        "gridmanager.probe_outcomes").labelled("restarted") >= 1
