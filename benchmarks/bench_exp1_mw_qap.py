"""EXP1 -- §6 Experience 1: the MW-QAP record-setting run.

Paper row: a Condor-G agent managed desktop workstations, commodity
clusters and supercomputer nodes at **10 sites** (8 Condor pools, one
PBS cluster, one LSF supercomputer), about **2,500 CPUs** total,
delivering **95,000+ CPU-hours in under 7 days** with an **average of
653** and a **peak of 1,007** concurrently busy processors, solving
**540 billion Linear Assignment Problems** under a branch-and-bound
master with workers as independent Condor jobs using Remote I/O.

Scaled reproduction (CPU_SCALE=10, TIME_SCALE=100; see _scenarios): the
same 10-site structure at 1/10 the CPUs for 1/100 the wall-clock.
Glideins sustain a personal pool across every site (allocations expire
and are re-flooded; Condor-pool desktop owners reclaim machines), ~100
standard-universe workers chew through a master's task pool over remote
syscalls, and the busy-CPU statistics are measured from the startd
sandbox trace.  examples/masterworker_qap.py runs the *real* QAP
mathematics through the identical machinery.
"""

import pytest

from repro import GridTestbed
from repro.grid.metrics import concurrency, timeline
from repro.workloads.masterworker import SyntheticMaster
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

from _scenarios import CPU_SCALE, TIME_SCALE, drain

HORIZON = 6048.0          # 7 days / TIME_SCALE
WORKERS = 100             # peak ~1,000 paper-CPUs at CPU_SCALE=10
MEAN_WORK = 30.0
SITES = (
    *[(f"pool{i}", "condor", 25,
       {"owner_mtbf": 2200.0, "owner_busy_time": 700.0})
      for i in range(8)],
    ("pbs-cluster", "pbs", 25, {}),
    ("lsf-super", "lsf", 25, {}),
)
TOTAL_CPUS = sum(c for _, _, c, _ in SITES)


def run_exp1():
    tb = GridTestbed(TestbedConfig(seed=601))
    for name, kind, cpus, lrm_options in SITES:
        tb.add_site(SiteSpec(name, scheduler=kind, cpus=cpus,
                             lrm_options=lrm_options))
    agent = tb.add_agent(AgentSpec("metaneos"))

    contacts = [s.contact for s in tb.sites.values()]
    allocation = 1500.0

    def sustainer():
        """Re-flood glideins as allocations expire (§4.4 flooding)."""
        while True:
            live = agent.glideins.live_count()
            deficit = max(0, int(TOTAL_CPUS * 0.6) - live)
            if deficit > 0:
                per_site = max(1, deficit // len(contacts))
                agent.flood_glideins(contacts, per_site=per_site,
                                     walltime=allocation,
                                     idle_timeout=900.0)
            yield tb.sim.timeout(allocation / 3)

    tb.sim.spawn(sustainer())

    # Keep ~85% of the worker fleet busy for most of the horizon.
    n_tasks = int(0.70 * WORKERS * HORIZON / MEAN_WORK)
    master = SyntheticMaster(agent, n_tasks=n_tasks, mean_work=MEAN_WORK,
                             worker_poll=60.0)
    master.submit_workers(WORKERS)
    drain(tb, lambda: master.done, cap=HORIZON, chunk=500.0)
    return tb, agent, master


def test_exp1_mw_qap_run(benchmark, report):
    tb, agent, master = benchmark.pedantic(run_exp1, iterations=1,
                                           rounds=1)
    busy = concurrency(tb.sim.trace, component_prefix="startd:")
    jobs = [job for job in agent.queue.jobs.values()
            if job.universe != "grid"]
    elapsed_days_scaled = (tb.sim.now * TIME_SCALE) / 86400.0
    cpu_hours_scaled = (busy.cpu_seconds * TIME_SCALE * CPU_SCALE) / 3600.0

    rows = [
        {"metric": "sites (8 Condor + PBS + LSF)", "paper": "10",
         "measured(scaled)": "10", "raw sim": "10"},
        {"metric": "CPUs available", "paper": "~2,500",
         "measured(scaled)": f"{int(TOTAL_CPUS * CPU_SCALE):,}",
         "raw sim": f"{TOTAL_CPUS}"},
        {"metric": "duration (days)", "paper": "< 7",
         "measured(scaled)": f"{elapsed_days_scaled:.2f}",
         "raw sim": f"{tb.sim.now:,.0f}s"},
        {"metric": "CPU-hours delivered", "paper": "> 95,000",
         "measured(scaled)": f"{cpu_hours_scaled:,.0f}",
         "raw sim": f"{busy.cpu_seconds / 3600:,.1f}h"},
        {"metric": "avg busy CPUs", "paper": "653",
         "measured(scaled)": f"{busy.average_busy * CPU_SCALE:,.0f}",
         "raw sim": f"{busy.average_busy:.1f}"},
        {"metric": "peak busy CPUs", "paper": "1,007",
         "measured(scaled)": f"{busy.peak_busy * CPU_SCALE:,}",
         "raw sim": f"{busy.peak_busy}"},
        {"metric": "tasks completed", "paper": "540e9 LAPs",
         "measured(scaled)": f"{master.tasks_completed:,}",
         "raw sim": f"requeued={master.tasks_requeued}"},
        {"metric": "worker restarts (preempt/expiry)", "paper": "(many)",
         "measured(scaled)": f"{sum(j.restarts for j in jobs):,}",
         "raw sim": ""},
    ]
    report.table("EXP1: MW-QAP run -- paper vs scaled reproduction "
                 f"(CPU_SCALE={CPU_SCALE:g}, TIME_SCALE={TIME_SCALE:g})",
                 rows, order=["metric", "paper", "measured(scaled)",
                              "raw sim"])

    edges, series = timeline(tb.sim.trace, bucket=HORIZON / 12,
                             component_prefix="startd:")
    if len(edges):
        report.note("EXP1b: busy-worker timeline (12 buckets, raw slots)",
                    " ".join(f"{b:.0f}" for b in series))

    # Shape assertions (scale-free):
    assert master.tasks_completed > 0.9 * master.tasks_dispatched
    assert busy.peak_busy > busy.average_busy          # ramp + churn
    assert busy.average_busy * CPU_SCALE > 300          # hundreds busy
    assert busy.peak_busy * CPU_SCALE <= TOTAL_CPUS * CPU_SCALE
    assert sum(j.restarts for j in jobs) > 0            # churn happened
    assert master.tasks_requeued > 0                    # and was absorbed
