"""One run of one workload in this process: the unit the driver calls.

``--trace 0`` -- the *timing* run.  A counting pass first (RPC tally on,
not timed: it warms the interpreter and supplies ``rpcs_per_job``), then
timing passes with every instrument off until ``--seconds`` are spent.
Reports every end-to-end metric; host times are medians over the timing
passes, ``setup_s`` over :data:`SETUP_SAMPLES` set-ups.

``--trace 1`` -- the *traced* run.  A warm-up pass, one untraced timing
pass, one traced pass (spans, cProfile in ``run.chunk``, RPC tally, sim
metrics, gc callback) and the layer microbenchmarks.  Reports every
per-layer metric and writes ``out/trace-<workload>.json``.

Either way every pass must agree bit for bit -- digest, event count,
simulated-time metrics, RPC tally -- or the run is reported incorrect.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

import layers
from calibrate import Stopwatch
from harness import PassResult, run_pass, set_up
from metrics import END_TO_END, PER_LAYER
from tracing import LAYERS, Tracer, group_rpcs
from workloads import WORKLOADS

#: timing passes a ``--trace 0`` run makes even when ``--seconds`` is
#: too short for them
MIN_TIMING_PASSES = 3
#: set-up times a ``--trace 0`` run takes its median over.  Every pass
#: has one; extra set-ups (testbed built, jobs queued, never run) fill up
#: the rest, for as long as :data:`EXTRA_SETUP_S` lasts: a set-up of
#: 0.02 host-s read five times does not stay within its bound.
SETUP_SAMPLES = 15
EXTRA_SETUP_S = 2.0
#: a pass whose wall time exceeds its host time by more than this was
#: descheduled; it is dropped from the medians when others remain
DISTURBED = 1.15


def _disagreements(passes: list) -> list:
    """Why the passes are not bit-identical (empty when they are)."""
    first, out = passes[0], []
    for i, other in enumerate(passes[1:], start=2):
        if other.digest != first.digest:
            out.append(f"pass {i}: digest {other.digest[:12]} != "
                       f"{first.digest[:12]} of pass 1")
        for key, value in other.exact.items():
            if key in first.exact and first.exact[key] != value:
                out.append(f"pass {i}: {key} {value!r} != "
                           f"{first.exact[key]!r} of pass 1")
        if other.rpc_stats is not None and first.rpc_stats is not None \
                and other.rpc_stats != first.rpc_stats:
            out.append(f"pass {i}: RPC tally differs from pass 1")
    return out


def _report(workload: str, seed: int, scale: float, trace: bool,
            passes: list, metrics: dict, table: tuple,
            extra: dict) -> dict:
    first = passes[0]
    failures = first.failures + _disagreements(passes)
    failed_jobs = first.failed_jobs
    if failures and not failed_jobs:
        failed_jobs = first.jobs     # the run as a whole is not credible
    return {
        "correct": not failures,
        "attempted": first.jobs,
        "failed": failed_jobs,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in table},
        # everything below is for the suite's own report, not the driver
        "workload": workload, "seed": seed, "scale": scale, "trace": trace,
        "failures": failures[:20],
        "digest": first.digest,
        "exact": first.exact,
        "passes": [{"host_s": p.host_s, "raw_host_s": p.raw_host_s,
                    "wall_s": p.wall_s, "setup_s": p.setup_s,
                    "slowdown": p.slowdown} for p in passes],
        **extra,
    }


def measure(name: str, seed: int, seconds: float, scale: float) -> dict:
    """The ``--trace 0`` run."""
    workload = WORKLOADS[name]
    counting = run_pass(workload, seed, scale, count_rpcs=True)
    timing: list[PassResult] = []
    started = time.perf_counter()
    last = 0.0
    while len(timing) < MIN_TIMING_PASSES or \
            time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        timing.append(run_pass(workload, seed, scale))
        last = time.perf_counter() - t0
    calm = [p for p in timing if p.wall_s <= DISTURBED * p.raw_host_s]
    used = calm or timing
    host_s = statistics.median(p.host_s for p in used)
    setups = [p.setup_s for p in used]
    deadline = time.perf_counter() + EXTRA_SETUP_S
    while len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline:
        gc.collect()
        watch = Stopwatch()
        set_up(workload, seed, scale, watch=watch)
        setups.append(watch.host_s)
    jobs = counting.jobs
    metrics = dict(counting.exact)
    metrics.update(
        jobs_per_s=jobs / host_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        setup_s=statistics.median(setups),
        rpcs_per_job=counting.exact["rpcs"] / jobs,
        completed_share=1.0 - counting.failed_jobs / jobs)
    return _report(
        name, seed, scale, False, [counting] + timing, metrics, END_TO_END,
        {"host_s": {"median": host_s,
                    "raw_median": statistics.median(
                        p.raw_host_s for p in used),
                    "min": min(p.host_s for p in used),
                    "max": max(p.host_s for p in used),
                    "passes": len(used),
                    "disturbed": len(timing) - len(calm)},
         "rpcs": group_rpcs(counting.rpc_stats)})


def _sim_value(sim_metrics: dict, name: str, field: str = "value",
               label: str = "") -> float:
    entry = sim_metrics.get(name)
    if entry is None:
        return 0.0
    if label:
        return entry.get("labels", {}).get(label, 0.0)
    return entry[field]


def trace(name: str, seed: int, seconds: float, scale: float) -> dict:
    """The ``--trace 1`` run."""
    workload = WORKLOADS[name]
    warm = run_pass(workload, seed, scale)
    plain = run_pass(workload, seed, scale)
    tracer = Tracer(name)
    traced = run_pass(workload, seed, scale, tracer=tracer)
    jobs, sim, rpcs = traced.jobs, traced.sim_metrics, \
        group_rpcs(traced.rpc_stats)

    def rpc(*keys: str) -> int:
        return sum(rpcs.get(key, 0) for key in keys)

    self_s = {layer: s / traced.slowdown
              for layer, s in tracer.layer_self_s().items()}
    total_self = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_share"] = self_s[layer] / total_self
    submits = _sim_value(sim, "gatekeeper.submits")
    rejects = sum(n for label, n in sim.get("gatekeeper.submits", {})
                  .get("labels", {}).items() if label.startswith("rejected"))
    cycles = rpc("collector.query")
    metrics.update({
        "sim.kernel.events": traced.exact["events"],
        "sim.kernel.events_per_job": traced.exact["events"] / jobs,
        "sim.kernel.events_per_s": traced.exact["run_events"]
        / plain.host_s,
        "sim.rpc.calls": traced.exact["rpcs"],
        "sim.fastcopy.calls": tracer.profile_calls("fastcopy.py",
                                                   "fast_deepcopy"),
        "sim.trace.records": traced.exact["trace_records"],
        "lrm.poll_rpcs_per_job": rpc("lrm.poll") / jobs,
        "core.status_rpcs_per_job": rpc("jm:*.status", "jm:*.probe") / jobs,
        "core.monitor_rpcs_per_job": rpc("gramcb:*.monitor_report",
                                         "gatekeeper.start_monitor") / jobs,
        "gram.submit_rpcs_per_job": rpc("gatekeeper.submit",
                                        "jm:*.commit") / jobs,
        "gram.callback_rpcs_per_job": rpc("gramcb:*.gram_callback") / jobs,
        "gram.jm_restarts": _sim_value(sim, "gatekeeper.jm_restarts"),
        "gram.reject_share": rejects / submits if submits else 0.0,
        "core.resubmits": _sim_value(sim, "gridmanager.resubmits"),
        "core.submit_throttled": _sim_value(
            sim, "gridmanager.submit_throttled"),
        "core.submit_latency_p50_s": _sim_value(
            sim, "gridmanager.submit_latency", "p50"),
        "condor.advertise_rpcs": rpc("collector.advertise"),
        "condor.negotiation_cycles": cycles,
        "condor.matches_per_cycle": rpc("schedd.matched") / cycles
        if cycles else 0.0,
        "condor.claims_reused": _sim_value(sim, "schedd.claims_reused"),
        "lrm.queue_wait_p50_s": _sim_value(sim, "lrm.queue_wait", "p50"),
        "gram.commit_wait_p50_s": _sim_value(
            sim, "jobmanager.commit_wait", "p50"),
        "gass.transfers_per_job": _sim_value(sim, "gass.transfers") / jobs,
        "grid.build_s": tracer.host_s("setup.build") / traced.slowdown,
        "grid.submit_s": tracer.host_s("setup.submit") / traced.slowdown,
        "grid.warmup_s": tracer.host_s("setup.warmup") / traced.slowdown,
        "chaos.invariants_s": tracer.host_s("verify.invariants")
        / traced.slowdown,
        "chaos.digest_s": tracer.host_s("verify.digest") / traced.slowdown,
        "runtime.gc_s": tracer.gc_s / traced.slowdown,
        "runtime.gc_collections": tracer.gc_collections,
        "trace_overhead_ratio": traced.host_s / plain.host_s,
    })
    metrics.update(layers.run_all(seconds / 2))
    path = tracer.write({"seed": seed, "scale": scale, "rpcs": rpcs,
                         "layer_self_s": self_s, "sim_metrics": sim})
    return _report(name, seed, scale, True, [traced, warm, plain], metrics,
                   PER_LAYER, {"rpcs": rpcs, "trace_file": str(path)})
