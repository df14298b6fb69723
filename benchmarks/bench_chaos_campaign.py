"""CHAOS-SCALE -- campaign throughput: seeds/second, single- vs
multi-process.

The chaos engine's value scales with how many ``(scenario, seed)`` cells
it can afford to run; this benchmark measures campaign throughput for
the inline runner and for a seed-sharded ``ProcessPoolExecutor`` pool,
and reports the speedup.  On a multi-core box the 4-worker pool must
beat the inline runner by >1.5x; on a single-core container the
assertion degrades to "sharding must not corrupt results", which is
checked unconditionally by digest comparison.
"""

import os

import pytest

from repro.chaos import FaultPlan, PlannedFault, run_campaign, shrink_plan
from repro.sim.snapshot import ForkPoint

SCENARIOS = ("credential", "three-site")
SEEDS = range(8)
WORKERS = 4


@pytest.mark.benchmark(group="chaos")
def test_campaign_scaling(report):
    inline = run_campaign(scenarios=SCENARIOS, seeds=SEEDS, workers=1)
    pooled = run_campaign(scenarios=SCENARIOS, seeds=SEEDS,
                          workers=WORKERS)

    assert inline.ok and pooled.ok
    # Sharding must be invisible in the results: same cells, same runs.
    assert [r.digest for r in pooled.results] == \
        [r.digest for r in inline.results]

    speedup = pooled.seeds_per_second / inline.seeds_per_second \
        if inline.seeds_per_second else 0.0
    rows = [
        {"runner": "inline", "workers": 1, "runs": inline.runs,
         "wall_s": round(inline.wall_seconds, 2),
         "seeds_per_s": round(inline.seeds_per_second, 2)},
        {"runner": "pool", "workers": WORKERS, "runs": pooled.runs,
         "wall_s": round(pooled.wall_seconds, 2),
         "seeds_per_s": round(pooled.seeds_per_second, 2)},
    ]
    report.table(
        f"CHAOS-SCALE: campaign throughput "
        f"(speedup {speedup:.2f}x on {os.cpu_count()} cpus)",
        rows, order=["runner", "workers", "runs", "wall_s",
                     "seeds_per_s"])

    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup > 1.5, (
            f"{WORKERS}-worker pool only {speedup:.2f}x over inline")


# -- shrink-from-snapshot -----------------------------------------------------

SHRINK_SEED = 11

#: one culprit (crash the cluster head node while jobs are in flight:
#: it keeps no state and nothing boots it again) plus three decoys
#: ddmin must strip -- the seeded shrink-lab violation.
SHRINK_PLAN = FaultPlan(events=[
    PlannedFault(4000.0, "crash", "lab-lrm", 300.0),
    PlannedFault(4050.0, "partition", "submit-dana|lab-gk", 120.0),
    PlannedFault(4150.0, "jm_kill", "lab-gk", None),
    PlannedFault(4250.0, "isolate", "lab-gk", 60.0),
])


@pytest.mark.benchmark(group="chaos")
@pytest.mark.skipif(not ForkPoint.supported(), reason="needs os.fork")
def test_shrink_from_snapshot(report):
    """CHAOS-SHRINK -- ddmin candidate replays: from t=0 vs forked from
    a pre-fault snapshot.

    The shrink-lab cell is prefix-heavy (faults land after ~4000s of a
    ~7000s run), so replaying every ddmin candidate from zero spends
    most of its time re-simulating an identical fault-free prefix.  The
    snapshot path simulates that prefix once and forks it per candidate:
    the replayed-sim-seconds ratio is deterministic and must be >= 2x;
    wall time follows (asserted loosely -- the suffix is event-sparse,
    so the observed wall win is larger).
    """
    invariants = {"terminal_or_held"}
    zero_stats: dict = {}
    fork_stats: dict = {}
    minimal_zero, _ = shrink_plan(
        "shrink-lab", SHRINK_SEED, SHRINK_PLAN, invariants=invariants,
        stats=zero_stats)
    minimal_fork, _ = shrink_plan(
        "shrink-lab", SHRINK_SEED, SHRINK_PLAN, invariants=invariants,
        from_snapshot=True, stats=fork_stats)

    assert minimal_zero.to_dict() == minimal_fork.to_dict()
    assert len(minimal_fork) == 1

    sim_ratio = zero_stats["replayed_sim_seconds"] / \
        fork_stats["replayed_sim_seconds"]
    wall_ratio = zero_stats["wall_seconds"] / fork_stats["wall_seconds"] \
        if fork_stats["wall_seconds"] else 0.0
    rows = [
        {"mode": stats["mode"], "replays": stats["replays"],
         "sim_s_replayed": round(stats["replayed_sim_seconds"]),
         "wall_s": round(stats["wall_seconds"], 2)}
        for stats in (zero_stats, fork_stats)
    ]
    report.table(
        f"CHAOS-SHRINK: candidate replays from-zero vs fork "
        f"(sim-seconds {sim_ratio:.2f}x, wall {wall_ratio:.2f}x)",
        rows, order=["mode", "replays", "sim_s_replayed", "wall_s"])

    assert sim_ratio >= 2.0, (
        f"snapshot shrink replayed only {sim_ratio:.2f}x fewer "
        "sim-seconds")
    assert wall_ratio >= 1.2, (
        f"snapshot shrink wall win only {wall_ratio:.2f}x")
