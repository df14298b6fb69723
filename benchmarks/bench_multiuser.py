"""MULTIUSER -- the grid as a shared facility: N agents, one testbed.

§2.1's premise is that every user runs their *own* Condor-G agent, so a
realistic grid is many personal agents competing for the same
gatekeepers.  This suite measures that contention path: 50 users x 100
jobs each over 20 GRAM sites (and a smaller GlideIn cell), with both
fair-share layers engaged -- per-user JobManager caps at the gatekeeper
and the client-side per-resource in-flight throttle in each GridManager.

Each cell runs once and records its
:func:`repro.chaos.digest.run_digest` (checked against the committed
cell by ``check_bench_regression.py``).  Alongside wall time, each
cell reports Jain's fairness index over per-user CPU-seconds and done
counts (from :func:`repro.grid.metrics.user_rollup`), because a
fair-share mechanism that starves a tenant would still "pass" on
throughput alone.

Results land in ``BENCH_multiuser.json`` (committed at the repo root; CI
regenerates the smoke cell and checks it with
``benchmarks/check_bench_regression.py``).

Environment knobs:

* ``BENCH_MULTIUSER_CELLS`` -- comma-separated subset of cells to run
  (default: all).  CI sets ``smoke-gram``.
* ``BENCH_MULTIUSER_OUT``   -- where to write the JSON (default: the
  committed ``BENCH_multiuser.json`` at the repo root).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.chaos.digest import run_digest
from repro.grid.metrics import fairness, user_rollup
from repro.grid.scenarios import multiuser_glidein_grid, multiuser_gram_grid
from repro.states import is_terminal

SEED = 811
CAP = 200_000.0
CHUNK = 5000.0

#: name -> (builder, builder kwargs)
CELLS = {
    "gram": (multiuser_gram_grid,
             dict(users=50, jobs_per_user=100, n_sites=20, cpus=25)),
    "glidein": (multiuser_glidein_grid,
                dict(users=10, jobs_per_user=60, n_sites=5,
                     glideins_per_site=4)),
    "smoke-gram": (multiuser_gram_grid,
                   dict(users=8, jobs_per_user=15, n_sites=4, cpus=10)),
}

_results: dict[str, dict] = {}


def _cells_to_run() -> list[str]:
    raw = os.environ.get("BENCH_MULTIUSER_CELLS", "")
    if not raw:
        return list(CELLS)
    return [c.strip() for c in raw.split(",") if c.strip()]


def _out_path() -> Path:
    raw = os.environ.get("BENCH_MULTIUSER_OUT", "")
    if raw:
        return Path(raw)
    return Path(__file__).resolve().parent.parent / "BENCH_multiuser.json"


def _nonterminal(tb) -> int:
    """Unfinished *payloads*: on the GlideIn path the workload lives in
    each agent's condor queue and the grid jobs are long-lived pilots
    (they retire at walltime, long after the last payload)."""
    count = 0
    for agent in tb.agents.values():
        if agent.schedd is not None and agent.schedd.jobs:
            count += sum(1 for j in agent.schedd.jobs.values()
                         if not is_terminal(j.state))
        else:
            count += sum(1 for j in agent.scheduler.jobs.values()
                         if not j.is_terminal)
    return count


def _counter_total(tb, name: str) -> float:
    metric = tb.sim.metrics.get(name)
    return metric.value if metric is not None else 0.0


def _payload_done(row: dict) -> int:
    """Workload completions for one user: the condor queue holds the
    payloads on the GlideIn path (grid jobs there are the pilots)."""
    return row["condor_done"] if row["condor_jobs"] else row["done"]


def _run_cell(cell: str) -> dict:
    """One timed end-to-end run of `cell`; returns wall/digest/fairness."""
    build, kwargs = CELLS[cell]
    gc.collect()
    wall0 = time.perf_counter()
    tb = build(seed=SEED, **kwargs)
    while tb.sim.now < CAP and _nonterminal(tb):
        tb.run(until=tb.sim.now + CHUNK)
    wall = time.perf_counter() - wall0
    rollup = user_rollup(tb)
    result = {
        "wall_s": round(wall, 2),
        "digest": run_digest(tb),
        "sim_end": tb.sim.now,
        "unfinished": _nonterminal(tb),
        "done_total": sum(_payload_done(row) for row in rollup.values()),
        "fairness_cpu": round(
            fairness(row["cpu_seconds"] for row in rollup.values()), 4),
        "fairness_done": round(
            fairness(_payload_done(row) for row in rollup.values()), 4),
        "throttled": _counter_total(tb, "gridmanager.submit_throttled"),
        "user_rejects": _counter_total(tb, "gatekeeper.rejects_by_user"),
    }
    del tb
    gc.collect()
    return result


@pytest.mark.parametrize("cell", list(CELLS))
def test_multiuser_cell(cell, report):
    if cell not in _cells_to_run():
        pytest.skip(f"cell {cell!r} not in BENCH_MULTIUSER_CELLS")
    _, kwargs = CELLS[cell]
    result = _run_cell(cell)
    assert result["unfinished"] == 0, \
        f"{cell}: {result['unfinished']} jobs unfinished at cap"
    assert result["done_total"] == \
        kwargs["users"] * kwargs["jobs_per_user"], \
        f"{cell}: not every submitted job reached DONE"
    _results[cell] = {
        **kwargs,
        "wall_s": result["wall_s"],
        "digest": result["digest"],
        "sim_makespan": result["sim_end"],
        "fairness_cpu": result["fairness_cpu"],
        "fairness_done": result["fairness_done"],
        "throttled": result["throttled"],
        "user_rejects": result["user_rejects"],
    }
    report.table(f"MULTIUSER {cell}", [{
        "users": kwargs["users"],
        "jobs/user": kwargs["jobs_per_user"],
        "sites": kwargs["n_sites"],
        "wall (s)": result["wall_s"],
        "fairness (cpu)": result["fairness_cpu"],
        "throttled": int(result["throttled"]),
    }])


def test_write_results(report):
    """Persist every measured cell (runs last: file order == run order)."""
    if not _results:
        pytest.skip("no multiuser cells ran")
    out = _out_path()
    cells: dict[str, dict] = {}
    if out.exists():
        # Partial runs (BENCH_MULTIUSER_CELLS) refresh only their cells;
        # the other committed cells survive.
        try:
            cells = json.loads(out.read_text()).get("cells", {})
        except (json.JSONDecodeError, OSError):
            cells = {}
    cells.update(_results)
    payload = {
        "generated_by": "benchmarks/bench_multiuser.py",
        "seed": SEED,
        "cells": cells,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report.note("MULTIUSER results file", f"wrote {out}")
