"""ABLATION-PROBE -- §4.2 probing: detection latency vs overhead.

The GridManager "detects remote failures by periodically probing the
JobManagers of all the jobs it manages" -- here one ``status`` per site
per interval, about all of its jobs there.  The probe interval is the
fundamental dial: probe rarely and dead JobManagers go unnoticed (jobs
finish late); probe constantly and the agent sprays the WAN with
control traffic.  This ablation sweeps the interval under a fixed
JobManager-crash workload and reports completion delay, the dial's own
traffic (``gatekeeper.status`` asks, tallied by ``rpc.RPC_STATS``) and
all messages sent -- quantifying why a ~30s interval is a sane default.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.core.gridmanager import GridManager
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.sim import rpc

from _scenarios import drain

RUNTIME = 300.0
N_JOBS = 4


def run_interval(interval: float):
    old = GridManager.PROBE_INTERVAL
    GridManager.PROBE_INTERVAL = interval
    rpc.RPC_STATS = {}
    try:
        tb = GridTestbed(TestbedConfig(seed=801))
        tb.add_site(SiteSpec("site", scheduler="pbs", cpus=8))
        agent = tb.add_agent(AgentSpec("user"))
        ids = [agent.submit(JobDescription(runtime=RUNTIME),
                            resource="site-gk") for _ in range(N_JOBS)]

        def killer():
            yield tb.sim.timeout(60.0)
            for name, svc in list(tb.sites["site"].gk_host
                                  .services.items()):
                if name.startswith("jm:"):
                    svc.crash()

        tb.sim.spawn(killer())
        drain(tb, lambda: all(agent.status(j).is_terminal for j in ids),
              cap=2 * 10**4, chunk=500.0)
        done = sum(1 for j in ids if agent.status(j).is_complete)
        latest = max(agent.status(j).end_time or 0.0 for j in ids)
        messages = tb.net.sent
        return {
            "probe interval (s)": interval,
            "done": f"{done}/{N_JOBS}",
            "last completion (s)": latest,
            "delay vs ideal (s)": latest - RUNTIME,
            "status asks": rpc.RPC_STATS.get(("gatekeeper", "status"), 0),
            "messages sent": messages,
        }
    finally:
        GridManager.PROBE_INTERVAL = old
        rpc.RPC_STATS = None


def run_sweep():
    return [run_interval(i) for i in (10.0, 30.0, 120.0, 600.0)]


def test_ablation_probe_interval(benchmark, report):
    rows = benchmark.pedantic(run_sweep, iterations=1, rounds=1)
    report.table(
        "ABLATION-PROBE: JobManagers crash at t=60s; probe interval vs "
        "recovery delay and traffic", rows,
        order=["probe interval (s)", "done", "last completion (s)",
               "delay vs ideal (s)", "status asks", "messages sent"])
    for row in rows:
        assert row["done"] == f"{N_JOBS}/{N_JOBS}"
    # monotone trade-off: faster probing -> earlier completion, more
    # probe traffic (all messages sent also carry the testbed's
    # background soft state, which grows with the run's length)
    delays = [r["delay vs ideal (s)"] for r in rows]
    asks = [r["status asks"] for r in rows]
    assert delays[0] <= delays[-1]
    assert all(a > b for a, b in zip(asks, asks[1:]))
