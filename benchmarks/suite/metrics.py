"""The benchmark's metric tables: names, units, directions, bounds.

One place defines every name a later PR may claim against.  The tables
feed ``BENCHMARK.json`` (:func:`manifest`), the printed report, the
``compare`` verdicts and ``test_suite.py``; ``README.md`` carries the
same tables with the reasoning.

Host times are *calibrated* seconds (``calibrate.py``); simulated times
are sim-seconds.  "exact" metrics repeat bit for bit on the same code,
seed and scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from layers import MICROBENCHMARKS
from tracing import LAYERS
from workloads import WORKLOADS

COMMAND = ["python3", "benchmarks/suite/run.py"]
PATHS = ["benchmarks/suite"]
#: seconds one driver run measures for (``--seconds``)
RUN_SECONDS = 15


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                     # "higher" | "lower"
    what: str
    #: end-to-end only, the ``bound`` of ``BENCHMARK.json``: the driver
    #: draws a new seed for every run, so it is a little over three times
    #: the widest ten-seed spread measured on any workload (README)
    bound: Optional[float] = None
    #: end-to-end only, the bound of ``run.py compare``, whose two sides
    #: share seed, scale and reps: ISSUE 11's 10 % for host times (they
    #: spread 2-5 % there), 2 % for exact metrics (no noise at all), any
    #: drop for ``completed_share``
    same_seed: Optional[float] = None
    exact: bool = False

    def worsening(self, before: float, after: float) -> float:
        """By what share of `before` the metric got worse (<0: better)."""
        delta = (after - before) / abs(before) if before else 0.0
        return delta if self.better == "lower" else -delta


END_TO_END = (
    Metric("jobs_per_s", "1/s", "higher",
           "workload jobs completed per calibrated host-second of the run "
           "phase (median over timing passes): the simulator user's "
           "headline", bound=0.20, same_seed=0.10),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the measuring process", bound=0.10, same_seed=0.10),
    Metric("setup_s", "s", "lower",
           "build testbed + warm-up + submit every job, calibrated "
           "host-seconds before the timed run (median over passes)",
           bound=0.25, same_seed=0.20),
    Metric("rpcs_per_job", "count/job", "lower",
           "every rpc.call/notify of the pass / jobs: the modelled wire "
           "load (§5.1)", bound=0.10, same_seed=0.02, exact=True),
    Metric("sim_makespan_s", "s", "lower",
           "last job end_time - first submit_time from agent.status(), "
           "not the chunked clock", bound=0.22, same_seed=0.02, exact=True),
    Metric("turnaround_p50_s", "s", "lower",
           "submit -> agent observes the terminal state, median",
           bound=0.20, same_seed=0.02, exact=True),
    Metric("turnaround_p99_s", "s", "lower",
           "same, tail", bound=0.22, same_seed=0.02, exact=True),
    Metric("start_wait_p50_s", "s", "lower",
           "submit -> agent observes the start (the GlideIn "
           "delayed-binding claim), median", bound=0.20, same_seed=0.02,
           exact=True),
    Metric("completed_share", "share", "higher",
           "1 - failed_share: jobs complete at the cap, executed exactly "
           "once and named in no invariant violation / jobs attempted",
           bound=0.001, same_seed=0.0, exact=True),
)

_LAYER_SELF = tuple(
    m for layer in LAYERS for m in (
        Metric(f"{layer}.self_s", "s", "lower",
               "cProfile tottime of the layer's source files inside "
               "run.chunk spans, calibrated"),
        Metric(f"{layer}.self_share", "share", "lower",
               "the layer's self_s / the sum over layers")))

PER_LAYER = _LAYER_SELF + (
    Metric("sim.kernel.events", "count", "lower",
           "events scheduled in the pass (Simulator._seq)"),
    Metric("sim.kernel.events_per_job", "count/job", "lower",
           "sim.kernel.events / jobs"),
    Metric("sim.kernel.events_per_s", "1/s", "higher",
           "run-phase events / untraced calibrated host-second"),
    Metric("sim.rpc.calls", "count", "lower", "every rpc.call/notify"),
    Metric("sim.fastcopy.calls", "count", "lower",
           "fast_deepcopy invocations (cProfile call count)"),
    Metric("sim.trace.records", "count", "lower",
           "trace records logged (retained + evicted)"),
    Metric("lrm.poll_rpcs_per_job", "count/job", "lower",
           "JobManager->LRM lrm.poll RPCs / jobs: the site-side storm"),
    Metric("core.status_rpcs_per_job", "count/job", "lower",
           "per-job jm:* status + probe RPCs / jobs"),
    Metric("core.monitor_rpcs_per_job", "count/job", "lower",
           "monitor_report + start_monitor RPCs / jobs"),
    Metric("gram.submit_rpcs_per_job", "count/job", "lower",
           "gatekeeper.submit + jm:* commit RPCs / jobs (2PC)"),
    Metric("gram.callback_rpcs_per_job", "count/job", "lower",
           "gram_callback RPCs / jobs"),
    Metric("gram.jm_restarts", "count", "lower",
           "gatekeeper.jm_restarts counter"),
    Metric("gram.reject_share", "share", "lower",
           "gatekeeper submits refused / gatekeeper submits"),
    Metric("core.resubmits", "count", "lower",
           "gridmanager.resubmits counter"),
    Metric("core.submit_throttled", "count", "lower",
           "gridmanager.submit_throttled counter"),
    Metric("core.submit_latency_p50_s", "s", "lower",
           "gridmanager.submit_latency histogram, sim-seconds"),
    Metric("condor.advertise_rpcs", "count", "lower",
           "collector.advertise RPCs"),
    Metric("condor.negotiation_cycles", "count", "lower",
           "collector.query RPCs (one per negotiation cycle and pool "
           "member lookup)"),
    Metric("condor.matches_per_cycle", "count", "higher",
           "schedd.matched RPCs / condor.negotiation_cycles"),
    Metric("condor.claims_reused", "count", "higher",
           "schedd.claims_reused counter"),
    Metric("lrm.queue_wait_p50_s", "s", "lower",
           "lrm.queue_wait histogram, sim-seconds"),
    Metric("gram.commit_wait_p50_s", "s", "lower",
           "jobmanager.commit_wait histogram, sim-seconds"),
    Metric("gass.transfers_per_job", "count/job", "lower",
           "gass.transfers counter / jobs"),
    Metric("grid.build_s", "s", "lower", "setup.build span"),
    Metric("grid.submit_s", "s", "lower", "setup.submit span"),
    Metric("grid.warmup_s", "s", "lower", "setup.warmup span"),
    Metric("chaos.invariants_s", "s", "lower", "verify.invariants span"),
    Metric("chaos.digest_s", "s", "lower", "verify.digest span"),
    Metric("runtime.gc_s", "s", "lower",
           "collector time inside run.chunk (gc.callbacks)"),
    Metric("runtime.gc_collections", "count", "lower",
           "collections inside run.chunk"),
    Metric("trace_overhead_ratio", "ratio", "lower",
           "traced / untraced run-phase host time of the same pass"),
) + tuple(Metric(b.name, b.unit, b.better, b.what)
          for b in MICROBENCHMARKS)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
