"""CLAIM-FT -- §4.2: Condor-G tolerates four failure classes.

"Condor-G is built to tolerate four types of failure: crash of the
Globus JobManager, crash of the machine that manages the remote resource
..., crash of the machine on which the GridManager is executing ...,
and failures in the network connecting the two machines."

For each class we run a batch of jobs, inject the failure mid-run, and
measure: completion rate, exactly-once execution (LRM jobs == logical
jobs), the recovery action the agent took (from the trace), and the
recovery latency (failure -> first successful contact re-established).
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

from _scenarios import drain

BATCH = 6
RUNTIME = 400.0


def run_class(failure_class: str):
    tb = GridTestbed(TestbedConfig(seed=701))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=BATCH * 2))
    agent = tb.add_agent(AgentSpec("user"))
    ids = [agent.submit(JobDescription(runtime=RUNTIME + 10 * i),
                        resource="site-gk")
           for i in range(BATCH)]
    fail_at = 120.0

    if failure_class == "jobmanager":
        def inject():
            yield tb.sim.timeout(fail_at)
            jms = [s for n, s in tb.sites["site"].gk_host.services.items()
                   if n.startswith("jm:")]
            for jm in jms[:3]:        # kill half the JobManagers
                jm.crash()

        tb.sim.spawn(inject())
    elif failure_class == "resource-machine":
        tb.failures.crash_host_at(fail_at, tb.sites["site"].gk_host,
                                  down_for=150.0)
    elif failure_class == "submit-machine":
        tb.failures.crash_host_at(fail_at, agent.host, down_for=100.0)
    elif failure_class == "network":
        tb.failures.partition_at(fail_at, agent.host.name, "site-gk",
                                 heal_after=250.0)

    def jobs_done():
        return all(agent.status(j).is_terminal for j in ids)

    drain(tb, jobs_done, cap=3 * 10**4, chunk=500.0)

    done = sum(1 for j in ids if agent.status(j).is_complete)
    lrm = tb.sites["site"].lrm
    executed = len(lrm.jobs)
    completed = sum(1 for j in lrm.jobs.values()
                    if j.state == "COMPLETED")
    restarts = len(tb.sim.trace.select("gridmanager",
                                       "jobmanager_restarted"))
    unreachable = len(tb.sim.trace.select("gridmanager",
                                          "resource_unreachable"))
    # Registry-derived view of the same run: counters and histograms
    # maintained incrementally by the daemons, no trace replay.
    reg = tb.sim.metrics
    probes = reg.counter("gridmanager.probe_outcomes")
    latency = reg.histogram("gridmanager.submit_latency")
    return {
        "failure class": failure_class,
        "jobs done": f"{done}/{BATCH}",
        "LRM executions": executed,
        "exactly-once": "yes" if executed == BATCH and completed == BATCH
                        else "NO",
        "JM restarts": restarts,
        "unreachable obs": unreachable,
        "resubmits": int(reg.counter("gridmanager.resubmits").value),
        "probes a/s/u": (f"{int(probes.labelled('alive'))}/"
                         f"{int(probes.labelled('silent'))}/"
                         f"{int(probes.labelled('unreachable'))}"),
        "submit p50(s)": round(latency.percentile(50), 2),
    }


def run_all():
    return [run_class(c) for c in ("none", "jobmanager",
                                   "resource-machine", "submit-machine",
                                   "network")]


def test_claim_fault_tolerance(benchmark, report):
    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    report.table("CLAIM-FT: the four §4.2 failure classes, "
                 f"{BATCH} jobs each (probes/resubmits/latency from the "
                 "metrics registry)", rows,
                 order=["failure class", "jobs done", "LRM executions",
                        "exactly-once", "JM restarts", "unreachable obs",
                        "resubmits", "probes a/s/u", "submit p50(s)"])
    for row in rows:
        assert row["jobs done"] == f"{BATCH}/{BATCH}", row
        assert row["exactly-once"] == "yes", row
    by_class = {r["failure class"]: r for r in rows}
    # the recovery *mechanism* matches the failure class:
    assert by_class["jobmanager"]["JM restarts"] >= 1
    assert by_class["resource-machine"]["unreachable obs"] >= 1
    assert by_class["network"]["unreachable obs"] >= 1
    assert by_class["none"]["JM restarts"] == 0
    # registry counters agree with the trace-derived observations:
    for cls in ("resource-machine", "network"):
        assert by_class[cls]["probes a/s/u"].split("/")[2] != "0", by_class
    assert by_class["none"]["submit p50(s)"] > 0
