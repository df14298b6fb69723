#!/usr/bin/env python3
"""The benchmark suite's one command.

    python3 benchmarks/suite/run.py [--seed N] [--scale F]
        every workload: three timing reps + a traced rep, each in a
        fresh subprocess; prints every metric by name with its unit,
        checks the outputs, writes out/results.json and (at --scale 1)
        BENCHMARK.json

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload in this process (what the driver calls
        and what the suite's subprocesses are); the last line of stdout
        is the result object

    python3 benchmarks/suite/run.py compare A.json B.json [--digest-epoch]
        verdict per (workload, end-to-end metric) between two results
        files of the same seed and scale; exit 1 on any ``worse``, on a
        workload missing from B, and on a digest, event count or RPC
        tally that differs without ``--digest-epoch``

    python3 benchmarks/suite/run.py spread [--first-seed N]
        ten timing runs of every workload, each on another seed, and
        the inter-quartile spread of every end-to-end metric (~15 min)

Run from the repository root.  ``src/`` is put on the path here, so no
PYTHONPATH is needed (setting it does no harm).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
DEFAULT_SEED = 706


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    if argv[:1] == ["spread"]:
        import spread
        return spread.main(argv[1:])

    from metrics import RUN_SECONDS
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures (default "
                             f"{RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink job counts and cpus for smoke use")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (suite mode; default "
                             "benchmarks/suite/out/results.json)")
    args = parser.parse_args(argv)

    if args.workload is None:
        import suite
        return suite.main(args)

    import single
    run = single.trace if args.trace else single.measure
    report = run(args.workload, args.seed, args.seconds, args.scale)
    for line in report["failures"]:
        print(f"FAILED {args.workload}: {line}", file=sys.stderr)
    driver_keys = ("correct", "attempted", "failed", "metrics")
    print("suite-report " + json.dumps(
        {k: v for k, v in report.items() if k not in driver_keys}))
    print(json.dumps({k: report[k] for k in driver_keys}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
