"""ABLATION-GKLIMIT -- the interface-machine bottleneck.

2001-era gatekeeper machines ran one JobManager *process* per job and
melted under large batches (the pain that later motivated Condor-G's
Grid Monitor).  Sites capped concurrent JobManagers and refused excess
submissions; the agent backs off and retries.  This ablation sweeps the
cap for a fixed batch and reports the throughput cost of a constrained
interface machine -- and shows that exactly-once submission survives
arbitrary amounts of refusal/backoff churn.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

from _scenarios import drain

N_JOBS = 16
RUNTIME = 120.0
CPUS = 16


def run_limit(limit):
    tb = GridTestbed(TestbedConfig(seed=805))
    site = tb.add_site(SiteSpec("site", scheduler="pbs", cpus=CPUS))
    site.gatekeeper.max_jobmanagers = limit
    agent = tb.add_agent(AgentSpec("user"))
    ids = [agent.submit(JobDescription(runtime=RUNTIME),
                        resource="site-gk") for _ in range(N_JOBS)]
    drain(tb, lambda: all(agent.status(j).is_terminal for j in ids),
          cap=3 * 10**4, chunk=500.0)
    done = sum(1 for j in ids if agent.status(j).is_complete)
    ends = [agent.status(j).end_time for j in ids
            if agent.status(j).end_time is not None]
    executed = len([j for j in site.lrm.jobs.values()
                    if j.state == "COMPLETED"])
    return {
        "JM limit": limit if limit is not None else "none",
        "done": f"{done}/{N_JOBS}",
        "makespan (s)": max(ends) - min(agent.status(j).submit_time
                                        for j in ids) if ends else -1.0,
        "busy rejections": len(tb.sim.trace.select(
            f"gatekeeper:{site.name}", "submit_rejected_busy")),
        "LRM executions": executed,
    }


def run_sweep():
    return [run_limit(x) for x in (None, 8, 4, 2)]


def test_ablation_gatekeeper_limit(benchmark, report):
    rows = benchmark.pedantic(run_sweep, iterations=1, rounds=1)
    report.table(
        f"ABLATION-GKLIMIT: {N_JOBS} jobs x {RUNTIME:.0f}s on a "
        f"{CPUS}-cpu site; JobManager cap vs throughput", rows,
        order=["JM limit", "done", "makespan (s)", "busy rejections",
               "LRM executions"])
    for row in rows:
        assert row["done"] == f"{N_JOBS}/{N_JOBS}"
        assert row["LRM executions"] == N_JOBS     # exactly-once held
    unlimited = rows[0]["makespan (s)"]
    tightest = rows[-1]["makespan (s)"]
    assert tightest > unlimited               # the cap really costs
    assert rows[-1]["busy rejections"] > 0
