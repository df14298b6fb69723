"""``run.py spread``: how much the end-to-end metrics move between runs.

The acceptance protocol of the driver, run by hand: ten timing runs of
every workload at ``--scale 1``, each on another seed; for each metric
the distance between the first and third quartile of its ten values as a
share of their median.  A spread above a third of the metric's bound
fails.  The same is computed for ``jobs_per_s`` as it would read without
calibration (``process_time`` as taken), together with the exponent with
which each workload's host time followed the reference step: the
evidence ``calibrate.py`` rests on.  The committed ``spread.json`` is
one such measurement.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics

from calibrate import NOMINAL_STEP_S
from metrics import END_TO_END, RUN_SECONDS
from suite import HERE, environment, run_rep
from workloads import WORKLOADS

RUNS = 10
RAW = "raw_jobs_per_s"


def iqr_share(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def followed(runs: list):
    """The exponent with which host time per job followed the reference
    step over `runs`: 1 when the simulator slowed exactly as much as the
    yardstick did, below 1 when the yardstick overreacted.  None when
    the runs saw too narrow a range of slowdowns to tell."""
    slowdowns = [run["slowdown"] for run in runs]
    if max(slowdowns) < 1.25 * min(slowdowns):
        return None
    return -statistics.linear_regression(
        [math.log(run["slowdown"]) for run in runs],
        [math.log(run[RAW]) for run in runs]).slope


def _row(rep: dict) -> dict:
    timing = rep["passes"][1:]      # the first pass counts RPCs, untimed
    row = {m.name: rep["metrics"][m.name]["value"] for m in END_TO_END}
    row.update({
        "seed": rep["seed"],
        RAW: rep["attempted"] / rep["host_s"]["raw_median"],
        "slowdown": statistics.median(p["slowdown"] for p in timing)})
    return row


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="run.py spread")
    parser.add_argument("--first-seed", type=int, default=1001,
                        help=f"the runs use this seed and the {RUNS - 1} "
                             "after it")
    parser.add_argument("--out", default=str(HERE / "out" / "spread.json"))
    args = parser.parse_args(argv)

    bounds = {m.name: m.bound for m in END_TO_END}
    bounds[RAW] = bounds["jobs_per_s"]
    workloads, too_wide = {}, []
    for name in WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            rep = run_rep(name, seed, RUN_SECONDS, 1.0, trace=0)
            if not rep["correct"]:
                raise SystemExit(f"{name} seed {seed}: {rep['failures']}")
            runs.append(_row(rep))
            print(f"{name} seed {seed}: jobs_per_s "
                  f"{runs[-1]['jobs_per_s']:.1f} (uncalibrated "
                  f"{runs[-1][RAW]:.1f})", flush=True)
        spread = {metric: iqr_share([run[metric] for run in runs])
                  for metric in bounds}
        workloads[name] = {
            "runs": runs, "spread": spread, "followed": followed(runs),
            "median": {metric: statistics.median(run[metric] for run in runs)
                       for metric in bounds}}
        too_wide += [f"{name}: {metric} spreads {share:.1%}, more than a "
                     f"third of its bound {bounds[metric]:.0%}"
                     for metric, share in spread.items()
                     if metric != RAW and share > bounds[metric] / 3]

    print(f"\n{'IQR / median':<18}" + "".join(f"{n:>16}" for n in workloads))
    for metric in bounds:
        print(f"{metric:<18}" + "".join(
            f"{w['spread'][metric]:>16.2%}" for w in workloads.values()))
    print(f"{'followed':<18}" + "".join(
        f"{w['followed'] or 0:>16.2f}" for w in workloads.values())
        + "   (0: slowdowns too alike to tell)")
    slowdowns = [run["slowdown"] for w in workloads.values()
                 for run in w["runs"]]
    print(f"slowdown {min(slowdowns):.2f} - {max(slowdowns):.2f}")
    with open(args.out, "w") as out:
        json.dump({
            "generated_by": "benchmarks/suite/run.py spread",
            "environment": dict(environment(args.first_seed, 1.0,
                                            RUN_SECONDS), runs=RUNS),
            # host seconds the reference step took, median over all runs
            "reference_step_s": NOMINAL_STEP_S
            * statistics.median(slowdowns),
            "workloads": workloads}, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"\nwrote {args.out}")
    for line in too_wide:
        print(f"FAILED {line}")
    return 1 if too_wide else 0
