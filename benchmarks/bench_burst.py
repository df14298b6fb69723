"""BURST -- the autoscaled grid under bursty, adversarial traffic.

The §6 experience section recounts a portal melting a gatekeeper with
a flash crowd of submissions.  This suite turns that incident into a
measured, surviving scenario: synthetic traffic (flash crowds, diurnal
cycles, heavy-tailed runtimes, hundreds of users multiplexed over a few
agents) replayed against testbeds where the GlideInFactory autoscaler
provisions capacity and gatekeeper admission control sheds overload into
the GridManager's congestion-backoff path.

Per cell we report:

* **TTFJ** (time to first job): p50/p95 queue wait over every arrival;
* **utilization**: busy-slot seconds over provisioned-slot seconds;
* **fairness**: Jain's index over per-user mean waits -- an autoscaler
  that serves the flash crowd by starving the background users would
  "pass" on TTFJ alone;
* **provision ratio**: glideins provisioned vs the sweep-line peak of
  concurrent demand (the over-provisioning guard);
* **lost jobs**: arrivals that never reached a terminal state (must be
  zero -- the overload cell survives, it does not shed work).

Each cell runs once and records its
:func:`repro.chaos.digest.run_digest`.

Results land in ``BENCH_burst.json`` (committed at the repo root; CI
regenerates the smoke cell and checks it with
``benchmarks/check_bench_regression.py``).

Environment knobs:

* ``BENCH_BURST_CELLS`` -- comma-separated subset of cells to run
  (default: all).  CI sets ``smoke-flash``.
* ``BENCH_BURST_OUT``   -- where to write the JSON (default: the
  committed ``BENCH_burst.json`` at the repo root).
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.chaos.digest import run_digest
from repro.grid.metrics import fairness
from repro.grid.scenarios import (BURST_POLICY, burst_flash_grid,
                                  burst_overload_grid, get_scenario)

SEED = 811
CHUNK = 1000.0


def _flash(seed):
    return burst_flash_grid(seed)


def _diurnal(seed):
    return get_scenario("burst-diurnal").build(seed)


def _overload(seed):
    return burst_overload_grid(seed)


def _smoke_flash(seed):
    return burst_flash_grid(seed, users=200, cpus=8, base_rate=0.05,
                            flash_at=(200.0,), flash_multiplier=8.0,
                            flash_duration=120.0, horizon=600.0,
                            runtime_min=15.0, runtime_cap=120.0)


#: name -> (builder, sim-time cap, provision-ratio bound or None).
#: Flash cells must hold the issue's 1.5x over-provisioning guard; the
#: diurnal cell gets headroom for the deliberate WAIT_BOOST (1.5x) on
#: top of a moving target, and the overload cell has no factory at all.
CELLS = {
    "flash": (_flash, 20_000.0, 1.5),
    "diurnal": (_diurnal, 25_000.0, 2.0),
    "overload": (_overload, 40_000.0, None),
    "smoke-flash": (_smoke_flash, 15_000.0, 1.5),
}

_results: dict[str, dict] = {}


def _cells_to_run() -> list[str]:
    raw = os.environ.get("BENCH_BURST_CELLS", "")
    if not raw:
        return list(CELLS)
    return [c.strip() for c in raw.split(",") if c.strip()]


def _out_path() -> Path:
    raw = os.environ.get("BENCH_BURST_OUT", "")
    if raw:
        return Path(raw)
    return Path(__file__).resolve().parent.parent / "BENCH_burst.json"


def _counter_total(tb, name: str) -> float:
    metric = tb.sim.metrics.get(name)
    return metric.value if metric is not None else 0.0


def _gauge_integral(tb, name: str) -> float:
    metric = tb.sim.metrics.get(name)
    return metric.integral if metric is not None else 0.0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
    return ordered[max(0, idx)]


def _job_window(traffic, record):
    job = traffic._job(record)
    if job is None or job.start_time is None:
        return None
    end = job.end_time if job.end_time is not None else job.start_time
    return (job.submit_time, end)


def _peak_demand(traffic) -> int:
    """Sweep-line peak of concurrently in-flight arrivals."""
    events = []
    for record in traffic.records:
        window = _job_window(traffic, record)
        if window is None:
            continue
        events.append((window[0], 1))
        events.append((window[1], -1))
    peak = level = 0
    for _, delta in sorted(events):
        level += delta
        peak = max(peak, level)
    return peak


def _run_cell(cell: str) -> dict:
    build, cap, ratio_bound = CELLS[cell]
    glidein_cell = ratio_bound is not None
    gc.collect()
    wall0 = time.perf_counter()
    tb = build(SEED)
    traffic = tb.traffic
    while tb.sim.now < cap and \
            (not traffic.finished or traffic.unfinished()):
        tb.run(until=tb.sim.now + CHUNK)
    wall = time.perf_counter() - wall0

    waits = traffic.waits()
    by_user = {user: sum(ws) / len(ws)
               for user, ws in traffic.per_user_waits().items() if ws}
    peak = _peak_demand(traffic)
    provisioned = _counter_total(tb, "factory.provisioned")
    live_gauge = tb.sim.metrics.get("glidein.live")
    if glidein_cell:
        peak_glideins = max(1, math.ceil(
            peak / BURST_POLICY.jobs_per_glidein))
        # peak *concurrent* supply vs peak demand: cumulative provisions
        # legitimately exceed one wave's peak under diurnal scale-up /
        # reap cycles, but the standing fleet must track demand
        peak_supply = live_gauge.max if live_gauge is not None else 0.0
        supplied = _gauge_integral(tb, "glidein.live")
        busy = _gauge_integral(tb, "startd.busy_slots")
    else:
        peak_glideins = 0
        peak_supply = 0.0
        supplied = _gauge_integral(tb, "lrm.busy_slots") \
            + _gauge_integral(tb, "lrm.queue_depth")
        busy = _gauge_integral(tb, "lrm.busy_slots")
    result = {
        "wall_s": round(wall, 2),
        "digest": run_digest(tb),
        "sim_makespan": tb.sim.now,
        "arrivals": len(traffic.records),
        "lost_jobs": len(traffic.unfinished()),
        "ttfj_p50": round(_percentile(waits, 0.50), 1),
        "ttfj_p95": round(_percentile(waits, 0.95), 1),
        "fairness_wait": round(fairness(by_user.values()), 4),
        "utilization": round(busy / supplied, 3) if supplied else 0.0,
        "peak_demand": peak,
        "provisioned": provisioned,
        "peak_supply": peak_supply,
        "provision_ratio": round(peak_supply / peak_glideins, 2)
        if peak_glideins else 0.0,
        "reaped": _counter_total(tb, "factory.reaped"),
        "admission_rejects": _counter_total(
            tb, "gatekeeper.admission_rejects"),
    }
    del tb
    gc.collect()
    return result


@pytest.mark.parametrize("cell", list(CELLS))
def test_burst_cell(cell, report):
    if cell not in _cells_to_run():
        pytest.skip(f"cell {cell!r} not in BENCH_BURST_CELLS")
    _, _, ratio_bound = CELLS[cell]
    result = _run_cell(cell)

    # The §6 survival criteria: nothing lost, overload shed by
    # admission control rather than by melting down.
    assert result["lost_jobs"] == 0, \
        f"{cell}: {result['lost_jobs']} arrivals never finished"
    assert result["arrivals"] > 0
    if ratio_bound is not None:
        # autoscaling must track demand, not blow past it
        assert result["provision_ratio"] <= ratio_bound, \
            f"{cell}: peak supply {result['peak_supply']} vs peak " \
            f"demand {result['peak_demand']}"
        # TTFJ stays bounded through the burst (policy wait_target x a
        # generous grace for provisioning latency)
        assert result["ttfj_p95"] <= 10 * BURST_POLICY.wait_target, \
            f"{cell}: TTFJ p95 {result['ttfj_p95']}s unbounded"
    else:
        assert result["admission_rejects"] > 0, \
            f"{cell}: overload never tripped admission control"

    _results[cell] = result
    report.table(f"BURST {cell}", [{
        "arrivals": result["arrivals"],
        "wall (s)": result["wall_s"],
        "TTFJ p50/p95 (s)": f"{result['ttfj_p50']}/{result['ttfj_p95']}",
        "fairness (wait)": result["fairness_wait"],
        "utilization": result["utilization"],
        "provision ratio": result["provision_ratio"],
        "admission rejects": int(result["admission_rejects"]),
    }])


def test_write_results(report):
    """Persist every measured cell (runs last: file order == run order)."""
    if not _results:
        pytest.skip("no burst cells ran")
    out = _out_path()
    cells: dict[str, dict] = {}
    if out.exists():
        try:
            cells = json.loads(out.read_text()).get("cells", {})
        except (json.JSONDecodeError, OSError):
            cells = {}
    cells.update(_results)
    payload = {
        "generated_by": "benchmarks/bench_burst.py",
        "seed": SEED,
        "cells": cells,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report.note("BURST results file", f"wrote {out}")
