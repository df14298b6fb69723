"""The Grid Monitor (§5.1): batched status fan-in and its fault paths.

The GridManager launches a site's monitor when its own load there calls
for one (``tests/core/test_monitor_by_load.py``); here
``AgentSpec(grid_monitor=True)`` pins "from the first job" so that small
grids are monitored too.  The monitor
changes the RPC pattern on the wire, so these tests cover both halves of
the §5.1 claim -- the poll storm actually collapses (RPC-count
reduction) AND nothing the per-job machinery guaranteed is lost
(exactly-once, zero stranded jobs, deterministic digests) when the
monitor crashes, the WAN partitions, a JobManager dies behind a fresh
monitor, or the whole gatekeeper machine reboots.
"""

from repro import GridTestbed, JobDescription
from repro.chaos.digest import run_digest
from repro.chaos.invariants import evaluate_invariants
from repro.core.gridmanager import GridManager
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.grid.scenarios import get_scenario, scale_gram_grid
from repro.sim import rpc


def make_tb(seed=3, n_sites=1, cpus=4, user="alice"):
    tb = GridTestbed(TestbedConfig(seed=seed))
    for i in range(n_sites):
        tb.add_site(SiteSpec(f"s{i}", scheduler="pbs", cpus=cpus))
    agent = tb.add_agent(AgentSpec(user, grid_monitor=True))
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


def test_monitored_run_batches_status_and_stays_correct():
    tb, agent = make_tb(n_sites=2)
    ids = submit_jobs(tb, agent, 8)
    run_to_terminal(tb, agent, ids)

    assert all(agent.status(j).is_complete for j in ids)
    reg = tb.sim.metrics
    # the fan-in happened ...
    assert reg.counter("gridmanager.monitor_reports").value > 0
    assert reg.counter("gridmanager.monitor_jobs_reported").value >= len(ids)
    # ... and completely displaced the per-job status path: heartbeats
    # stayed fresh, so the watch loop never had to ask a JobManager.
    assert reg.counter("gridmanager.probe_outcomes").value == 0
    assert evaluate_invariants(tb) == []


def test_monitor_collapses_status_rpcs_at_least_10x(monkeypatch):
    """The §5.1 headline: same workload, >=10x fewer status-path RPCs
    than an agent that never launches a monitor -- and the agent left to
    decide (50 jobs in flight per site) does launch them."""
    def measure(grid_monitor, min_jobs=GridManager.MONITOR_MIN_JOBS):
        monkeypatch.setattr(GridManager, "MONITOR_MIN_JOBS", min_jobs)
        rpc.RPC_STATS = {}
        try:
            tb = scale_gram_grid(seed=11, jobs=200, n_sites=4, cpus=10,
                                 grid_monitor=grid_monitor)
            while tb.sim.now < 30_000.0:
                tb.run(until=tb.sim.now + 500.0)
                agent = tb.agents["scale"]
                if not any(not j.is_terminal
                           for j in agent.scheduler.jobs.values()):
                    break
            stats = rpc.RPC_STATS
        finally:
            rpc.RPC_STATS = None
        agent = tb.agents["scale"]
        done = sum(1 for j in agent.scheduler.jobs.values()
                   if j.state == "DONE")
        assert not [key for key in stats if key[1] == "probe"]
        status = sum(n for (svc, m), n in stats.items() if m == "status")
        monitor = sum(n for (svc, m), n in stats.items()
                      if m in ("monitor_report", "start_monitor"))
        return done, status, monitor

    done_off, status_off, _ = measure(False, min_jobs=10**9)
    done_on, status_on, monitor_on = measure(True)
    assert done_off == done_on == 200         # zero lost jobs either way
    assert status_on == 0                     # polling fully displaced
    assert measure(False)[:2] == (200, 0)     # ... by the agent's own choice
    reduction = status_off / max(status_on + monitor_on, 1)
    assert reduction >= 10.0, \
        f"only {reduction:.1f}x fewer status-path RPCs"


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
    in the JobManagers and a relaunched monitor (or the per-job status
    probe of a stale site) delivers them after the heal."""
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
    job suspect so the watch loop gives it the per-job §4.2 treatment
    while everything else stays on the batched path."""
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


def test_monitors_retire_after_the_client_exits():
    """No zombie daemons: once every job is delivered and the
    GridManager exits, the site-side monitors run out of work (or lose
    their client) and retire instead of reporting for ever."""
    tb, agent = make_tb(seed=2, n_sites=2)
    ids = submit_jobs(tb, agent, 6, runtime=60.0)
    run_to_terminal(tb, agent, ids)
    tb.run(until=tb.sim.now + 2500.0)    # well past both retire horizons

    lingering = [name for host in tb.sim.hosts.values()
                 for name in host.services if name.startswith("monitor:")]
    assert lingering == []
    # without GSI the monitor's owner is the submit host's name
    assert tb.sim.trace.select("monitor:submit-alice", "retire")


def test_monitored_digest_is_deterministic_and_mode_independent():
    def digest(seed):
        tb = get_scenario("monitored-gram").build(seed)
        tb.run(until=3000.0)
        return run_digest(tb)

    base = digest(5)
    assert digest(5) == base                   # same seed reproduces
    assert digest(6) != base                   # seeds actually matter
