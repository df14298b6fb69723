#!/usr/bin/env python
"""Compare a fresh ``BENCH_*.json`` against the committed baseline.

Usage: check_bench_regression.py BASELINE FRESH [--factor 2.0]

Fails (exit 1) if, for any cell present in both files:

* the fresh ``digest`` differs from the baseline's (behaviour moved: a
  cell name stands for one parameter set and the files carry their
  seed, so the same cell must reproduce the same run), or
* the fresh wall time exceeds ``factor`` x the baseline's (a kernel
  performance regression).

Cells only in one file are reported but don't fail the check -- CI runs
a downsized subset of the committed full-scale cells.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed slowdown vs baseline (default 2.0)")
    args = parser.parse_args(argv)

    baseline_doc = json.loads(args.baseline.read_text())
    fresh_doc = json.loads(args.fresh.read_text())
    baseline = baseline_doc["cells"]
    fresh = fresh_doc["cells"]
    same_seed = baseline_doc.get("seed") == fresh_doc.get("seed")

    failures = []
    for name, cell in sorted(fresh.items()):
        base = baseline.get(name)
        if base is None:
            print(f"{name}: no baseline cell; skipping")
            continue
        if not same_seed:
            print(f"{name}: seeds differ; skipping digest check")
        elif cell["digest"] != base["digest"]:
            moved = sorted(k for k in cell.keys() & base.keys()
                           if k not in ("digest", "wall_s")
                           and cell[k] != base[k])
            failures.append(
                f"{name}: digest {cell['digest'][:12]} != baseline "
                f"{base['digest'][:12]} (behaviour moved; other keys "
                f"that differ: {moved or 'none'})")
        fresh_s = cell["wall_s"]
        limit = args.factor * base["wall_s"]
        verdict = "OK" if fresh_s <= limit else "REGRESSION"
        print(f"{name}: {fresh_s:.2f}s (baseline {base['wall_s']:.2f}s, "
              f"limit {limit:.2f}s) {verdict}")
        if fresh_s > limit:
            failures.append(
                f"{name}: {fresh_s:.2f}s > {args.factor:.1f}x baseline "
                f"({base['wall_s']:.2f}s)")
    for name in sorted(set(baseline) - set(fresh)):
        print(f"{name}: in baseline only; not re-measured")

    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures))
        return 1
    print("\nbenchmark check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
