"""ABLATION-MONITOR -- §5.1: at what load does a site's Grid Monitor pay?

The GridManager launches a site's monitor when its own in-flight jobs
there reach ``GridManager.MONITOR_MIN_JOBS``.  This sweep is where that
constant comes from: the ``gram-poll`` shape of the repository benchmark
(five sites, pbs/lsf/loadleveler, about five waves of 120-200 s jobs,
round-robin placement, no MDS/GSI/streaming) at n jobs per site, once
with an agent that never launches a monitor and once with one that
launches from the first job, fault-free and under one gatekeeper crash
plus one ``jm_kill``.  Three things are compared -- RPCs per job,
simulated makespan, and the time from a fault to the ``jobmanager_
restarted`` that repairs it (mean over the two faults) -- and the
constant is the smallest n at which monitoring loses none of them
(docs/PERFORMANCE.md, "The Grid Monitor", carries the table this
prints).

Why there is a crossover at all: a report stream is judged stale only
after 2.5 intervals (75 s) where a probe notices silence within one
(30 s), so a monitored site starts its repair later; but the probe pass
is serial and pays two 10 s timeouts per job at a dead site, so from a
few dozen jobs per site on one dead gatekeeper delays every other
site's probes by minutes, while the monitored pass walks only stale
sites and suspects.
"""

import random
import statistics

from repro import AgentSpec, GridTestbed, JobDescription, SiteSpec, \
    TestbedConfig
from repro.core.gridmanager import GridManager
from repro.sim import rpc

from _scenarios import drain

SITES = 5
SCHEDULERS = ("pbs", "lsf", "loadleveler")
PER_SITE = (2, 4, 8, 16, 32, 64)
SEEDS = (2411, 2412, 2413)
CRASH_AT, CRASH_FOR, KILL_AT = 40.0, 60.0, 70.0
#: what is compared, and "loses" = worse than the polled run by more
#: than this share (the same-seed bound the repository benchmark holds
#: simulated time to; the two runs draw different network jitter)
COMPARED = ("rpcs_per_job", "makespan_s", "repair_s")
TOLERANCE = 0.02


def run_once(n: int, seed: int, monitored: bool, faulted: bool) -> dict:
    """One drained run: an agent that launches from the first job
    (`monitored`) or, the constant out of reach, never."""
    constant, GridManager.MONITOR_MIN_JOBS = \
        GridManager.MONITOR_MIN_JOBS, 10**9
    rpc.RPC_STATS = {}
    try:
        tb = GridTestbed.from_config(TestbedConfig(
            seed=seed, with_mds=False, with_repo=False,
            sites=tuple(SiteSpec(f"site{i:02d}", scheduler=SCHEDULERS[i % 3],
                                 cpus=max(2, round(n / 5)),
                                 register_mds=False) for i in range(SITES)),
            agents=(AgentSpec("gram", broker_kind="userlist",
                              personal_pool=False,
                              grid_monitor=monitored),)))
        agent = tb.agents["gram"]
        rng = random.Random(seed)
        step = 80.0 / (SITES * n)
        runtimes = [round(120.0 + (i + rng.random()) * step, 3)
                    for i in range(SITES * n)]
        rng.shuffle(runtimes)
        ids = [agent.submit(JobDescription(executable="gram.exe", runtime=rt,
                                           stream_stdout=False))
               for rt in runtimes]
        if faulted:
            tb.failures.crash_host_at(CRASH_AT, tb.sites["site00"].gk_host,
                                      down_for=CRASH_FOR)
            tb.failures.crash_service_at(KILL_AT, tb.sites["site01"].gk_host,
                                         "jm:")
        drain(tb, lambda: all(agent.status(j).is_terminal for j in ids),
              cap=20_000.0, chunk=50.0)
        rpcs = sum(rpc.RPC_STATS.values())
    finally:
        rpc.RPC_STATS = None
        GridManager.MONITOR_MIN_JOBS = constant
    assert all(agent.status(j).is_complete for j in ids), (n, seed)
    row = {"rpcs_per_job": rpcs / len(ids),
           "makespan_s": max(agent.status(j).end_time for j in ids)}
    if faulted:
        contact = {j: agent.status(j).resource for j in ids}
        restarts = {"site00-gk": [], "site01-gk": []}
        for rec in tb.sim.trace.select("gridmanager", "jobmanager_restarted"):
            restarts.get(contact[rec.details["job"]], []).append(rec.time)
        # the crash is repaired when the last JobManager it killed is
        # back; the jm_kill when the one it killed is
        row["crash_repair_s"] = max(restarts["site00-gk"]) - CRASH_AT
        row["kill_repair_s"] = min(
            t for t in restarts["site01-gk"] if t >= KILL_AT) - KILL_AT
        row["repair_s"] = (row["crash_repair_s"] + row["kill_repair_s"]) / 2
    return row


def medians(n: int, monitored: bool, faulted: bool) -> dict:
    runs = [run_once(n, seed, monitored, faulted) for seed in SEEDS]
    return {key: round(statistics.median(r[key] for r in runs), 2)
            for key in runs[0]}


def sweep() -> list[dict]:
    """One row per load: every measured quantity as ``<name> poll`` /
    ``<name> mon`` (the faulted runs' carry ``faulted``) and the compared
    ones on which monitoring loses."""
    rows = []
    for n in PER_SITE:
        row, losses = {"jobs/site": n}, []
        for faulted in (False, True):
            poll, mon = (medians(n, monitored, faulted)
                         for monitored in (False, True))
            for key in poll:
                name = f"faulted {key}" if faulted else key
                row[f"{name} poll"], row[f"{name} mon"] = poll[key], mon[key]
                if key in COMPARED and \
                        mon[key] > poll[key] * (1.0 + TOLERANCE):
                    losses.append(name)
        row["monitoring loses"] = ", ".join(losses) or "nothing"
        rows.append(row)
    return rows


def test_ablation_monitor_threshold(benchmark, report):
    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    for faulted in (False, True):
        # one table per condition; the faulted one drops the prefix
        report.table(
            "ABLATION-MONITOR: never launch (poll) vs launch from the "
            "first job (mon), "
            f"{'one crash + one jm_kill' if faulted else 'fault-free'}; "
            f"medians of seeds {SEEDS}",
            [{key.removeprefix("faulted "): value
              for key, value in row.items()
              if key.startswith("faulted ") == faulted
              or not key.endswith((" poll", " mon"))} for row in rows])
    # the constant is the smallest swept load at which monitoring loses
    # nothing, and it loses nothing above it either
    clean = [row["jobs/site"] for row in rows
             if row["monitoring loses"] == "nothing"]
    assert clean and clean[0] == GridManager.MONITOR_MIN_JOBS, rows
    assert clean == [n for n in PER_SITE if n >= clean[0]], rows
