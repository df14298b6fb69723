"""One pass of one workload: set up, run to quiescence, verify.

A *pass* builds a fresh testbed from ``(workload, seed, scale)``, queues
every job, runs the simulator until every workload job is terminal, and
checks the outputs.  Host time is ``time.process_time()``, divided by
the machine slowdown the reference loop of ``calibrate.py`` measured
between the timed sections (see there for why); the reading as taken and
wall time are recorded beside it, so a disturbed pass (wall much larger
than host) can be told from a slow one.

Timing passes run with every instrument off.  The *counting* pass
installs only the digest-neutral ``RPC_STATS`` tally; the *traced* pass
adds spans, cProfile inside ``run.chunk`` and the gc callback (see
``tracing.py``).  All passes of one ``(workload, seed, scale)`` must
agree bit for bit on everything the simulation computes.
"""

from __future__ import annotations

import gc
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro import GridTestbed
from repro.chaos.digest import run_digest
from repro.chaos.invariants import evaluate_invariants
from repro.sim import rpc

from calibrate import Stopwatch
from tracing import Tracer
from workloads import CAP, CHUNK, Workload


@dataclass
class PassResult:
    """What one pass measured.  ``exact`` holds everything that must
    repeat bit for bit on the same code, seed and scale."""

    jobs: int
    host_s: float           # run phase, calibrated process_time
    setup_s: float          # build + warm-up + submit (+ fault plan), same
    raw_host_s: float       # run phase, process_time as read
    wall_s: float           # run phase, perf_counter
    slowdown: float         # machine slowdown vs nominal during the run
    exact: dict
    #: jobs not complete, not run exactly once or named in a violation
    failed_jobs: int = 0
    #: every reason the outputs are wrong, failed jobs included
    failures: list = field(default_factory=list)
    rpc_stats: Optional[dict] = None
    digest: str = ""
    #: tb.sim.metrics.snapshot()["metrics"], traced pass only
    sim_metrics: Optional[dict] = None


def _percentile(sorted_xs: list, q: float) -> float:
    """Linearly interpolated percentile (same rule as sim.stats)."""
    pos = q / 100.0 * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def _job_metrics(statuses: list) -> dict:
    """The simulated-time end-to-end metrics, from ``agent.status()``."""
    done = [s for s in statuses if s.end_time is not None]
    started = [s for s in statuses if s.start_time is not None]
    turnaround = sorted(s.end_time - s.submit_time for s in done)
    start_wait = sorted(s.start_time - s.submit_time for s in started)
    out = {"sim_makespan_s": 0.0, "turnaround_p50_s": 0.0,
           "turnaround_p99_s": 0.0, "start_wait_p50_s": 0.0}
    if done:
        out["sim_makespan_s"] = (max(s.end_time for s in done)
                                 - min(s.submit_time for s in statuses))
        out["turnaround_p50_s"] = _percentile(turnaround, 50)
        out["turnaround_p99_s"] = _percentile(turnaround, 99)
    if started:
        out["start_wait_p50_s"] = _percentile(start_wait, 50)
    return out


def _counter(tb: GridTestbed, name: str, label: Optional[str]) -> float:
    metric = tb.sim.metrics.get(name)
    if metric is None:
        return 0.0
    return metric.value if label is None else metric.labelled(label)


def _verify(workload: Workload, tb: GridTestbed, statuses: list,
            tracer: Tracer) -> tuple:
    """``(failed job count, every reason the outputs are wrong)``.

    A job counts as failed when it is not complete at the cap, or is
    named in an invariant violation; exactly-once is the counter check
    on ring-buffered workloads and the full ``chaos.invariants`` suite
    (which needs the whole trace) on ``faulted-full``.
    """
    failed = {s.job_id: f"{s.job_id} ended {s.state}"
              for s in statuses if not s.is_complete}
    other = []
    for name, label in workload.once_counters:
        got = _counter(tb, name, label)
        if got != len(statuses):
            other.append(f"{name}[{label}] = {got:g}, expected "
                         f"{len(statuses)} (a job ran twice or never)")
    if workload.full_invariants:
        with tracer.span("verify.invariants"):
            violations = evaluate_invariants(tb)
        for v in violations:
            job = v.context.get("job")
            if job:
                failed.setdefault(job, str(v))
            else:
                other.append(str(v))
    return len(failed), list(failed.values()) + other


def set_up(workload: Workload, seed: int, scale: float,
           tracer: Optional[Tracer] = None,
           watch: Optional[Stopwatch] = None) -> tuple:
    """Everything before the timed run: ``(testbed, jobs, not_before)``.

    In order: ``workload.config`` builds the topology; ``prepare`` does
    what must precede the warm-up (glide-ins); ``warmup_s`` simulated
    seconds pass (glidein binding, MDS registration); ``submit`` queues
    every job; ``faults`` is applied.  `jobs` is ``[(agent, job_id),
    ...]``; the run may not end before simulated time `not_before` (the
    last fault plus the workload's settle time).  Each step is a span of
    `tracer` and a section of `watch` when they are given.
    """
    tracer = tracer or Tracer(workload.name, enabled=False)
    section = watch.section if watch is not None else nullcontext
    rng = random.Random(seed)
    with tracer.span("setup"):
        with section(), tracer.span("setup.build"):
            tb = GridTestbed.from_config(workload.config(seed, scale))
            if workload.prepare is not None:
                workload.prepare(tb)
        warm_until = tb.sim.now + workload.warmup_s
        while tb.sim.now < warm_until:
            with section(), tracer.span("setup.warmup"):
                tb.run(until=min(tb.sim.now + CHUNK, warm_until))
        with section(), tracer.span("setup.submit"):
            jobs = workload.submit(tb, rng, scale)
            not_before = tb.sim.now
            if workload.faults is not None:
                plan = workload.faults(tb, rng)
                plan.apply(tb)
                not_before = plan.end_time + workload.settle
    return tb, jobs, not_before


def run_pass(workload: Workload, seed: int, scale: float,
             tracer: Optional[Tracer] = None,
             count_rpcs: bool = False) -> PassResult:
    """One full pass.  `tracer` turns on spans + cProfile + gc timing
    (and implies `count_rpcs`); with neither, nothing is instrumented."""
    tracer = tracer or Tracer(workload.name, enabled=False)
    count_rpcs = count_rpcs or tracer.enabled
    gc.collect()
    rpc.RPC_STATS = {} if count_rpcs else None
    try:
        setup = Stopwatch()
        tb, jobs, not_before = set_up(workload, seed, scale, tracer, setup)

        events0 = tb.sim._seq
        open_jobs = jobs
        run = Stopwatch()
        with tracer.span("run"):
            while tb.sim.now < CAP:
                open_jobs = [(a, j) for a, j in open_jobs
                             if not a.status(j).is_terminal]
                if not open_jobs and tb.sim.now >= not_before:
                    break
                with run.section(), tracer.profiled_span("run.chunk"):
                    tb.run(until=tb.sim.now + CHUNK)
        rpc_stats = rpc.RPC_STATS
    finally:
        rpc.RPC_STATS = None

    statuses = [agent.status(job_id) for agent, job_id in jobs]
    exact = _job_metrics(statuses)
    exact["events"] = tb.sim._seq
    exact["run_events"] = tb.sim._seq - events0
    exact["sim_end_s"] = tb.sim.now
    exact["trace_records"] = len(tb.sim.trace) + tb.sim.trace.dropped
    if rpc_stats is not None:
        exact["rpcs"] = sum(rpc_stats.values())
    result = PassResult(
        jobs=len(jobs), host_s=run.host_s, setup_s=setup.host_s,
        raw_host_s=run.raw_host_s, wall_s=run.wall_s,
        slowdown=run.raw_host_s / run.host_s,
        exact=exact, rpc_stats=rpc_stats)
    result.failed_jobs, result.failures = _verify(
        workload, tb, statuses, tracer)
    with tracer.span("verify.digest"):
        result.digest = run_digest(tb)
    if tracer.enabled:
        result.sim_metrics = tb.sim.metrics.snapshot()["metrics"]
    return result
