"""Suite mode: every workload, timing reps + one traced rep, one report.

Each rep is ``run.py --workload ...`` in a fresh subprocess with
``PYTHONHASHSEED=0``, one at a time (the box has two cores and the
timings want one to themselves).  Host-time metrics are reported as the
median over reps with min-max and the rep count; every exact metric, the
event count, the RPC tally and the digest must be identical across all
reps and the traced rep, or the suite fails.  A disturbed timing pass
(wall/host > 1.15) is dealt with inside the rep, which leaves it out of
its medians (``single.measure``); how many there were is recorded.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, manifest
from tracing import OUT_DIR
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: timing reps per workload; `compare` reads their min-max as the spread
REPS = 3


def run_rep(name: str, seed: int, seconds: float, scale: float,
            trace: int) -> dict:
    """One subprocess run; returns driver result + suite report merged."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", str(scale)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("suite-report "):
        raise RuntimeError(
            f"{name} (trace {trace}) printed no result, exit "
            f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(lines[-2].split(" ", 1)[1])
    report.update(json.loads(lines[-1]))
    return report


def environment(seed: int, scale: float, seconds: float) -> dict:
    """What every results file records about where it was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "seed": seed, "scale": scale,
            "seconds": seconds}


def _run_workload(name: str, args) -> tuple:
    """``(result entry, problems)`` for one workload."""
    reps = [run_rep(name, args.seed, args.seconds, args.scale, trace=0)
            for _ in range(REPS)]
    traced = run_rep(name, args.seed, args.seconds, args.scale, trace=1)

    problems = [f"{name}: {line}" for rep in reps + [traced]
                for line in rep["failures"]]
    first = reps[0]
    for i, rep in enumerate(reps[1:] + [traced], start=2):
        for key in ("digest", "exact", "rpcs"):
            # the traced rep's first pass carries the RPC tally too
            if rep[key] != first[key]:
                problems.append(f"{name}: {key} of rep {i} differs from "
                                "rep 1 (same seed, same code)")

    end_to_end = {}
    for metric in END_TO_END:
        values = [rep["metrics"][metric.name]["value"] for rep in reps]
        end_to_end[metric.name] = {
            "value": statistics.median(values), "min": min(values),
            "max": max(values), "reps": len(values), "unit": metric.unit}
    entry = {
        "jobs": first["attempted"],
        "failed": max(rep["failed"] for rep in reps + [traced]),
        "digest": first["digest"],
        "events": first["exact"]["events"],
        "end_to_end": end_to_end,
        "per_layer": {m.name: traced["metrics"][m.name]["value"]
                      for m in PER_LAYER},
        "rpcs": first["rpcs"],
        "timing_passes": [rep["host_s"] for rep in reps],
        # process_time as read, before calibration: not a metric
        "raw_jobs_per_s": first["attempted"] / statistics.median(
            rep["host_s"]["raw_median"] for rep in reps),
        "machine_slowdown": statistics.median(
            p["slowdown"] for rep in reps for p in rep["passes"]),
    }
    return entry, problems


def _print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: {entry['jobs']} jobs, {entry['events']} events, "
          f"digest {entry['digest'][:12]} ==")
    print(f"  machine slowdown {entry['machine_slowdown']:.2f} (1 = nominal)"
          f", uncalibrated jobs/s {entry['raw_jobs_per_s']:.6g}")
    for metric in END_TO_END:
        e = entry["end_to_end"][metric.name]
        spread = "exact" if metric.exact else \
            f"{e['min']:.6g} - {e['max']:.6g}, {e['reps']} reps"
        print(f"  {metric.name:<34} {e['value']:>14.6g} {metric.unit:<10}"
              f" ({spread})")
    for metric in PER_LAYER:
        value = entry["per_layer"][metric.name]
        print(f"  {metric.name:<34} {value:>14.6g} {metric.unit}")


def main(args) -> int:
    env = dict(environment(args.seed, args.scale, args.seconds), reps=REPS)
    print("benchmark suite: " + ", ".join(
        f"{k}={v}" for k, v in env.items()), flush=True)
    results, problems = {}, []
    for name in WORKLOADS:
        print(f"running {name} ...", flush=True)
        results[name], found = _run_workload(name, args)
        problems += found
        _print_workload(name, results[name])

    out = args.out or OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"generated_by": "benchmarks/suite/run.py",
         "environment": env, "workloads": results},
        indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    if args.scale == 1.0:   # a smoke run leaves the repository as it was
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        print(f"wrote {ROOT / 'BENCHMARK.json'}")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if problems else 0
