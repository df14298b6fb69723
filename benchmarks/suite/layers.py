"""Layer microbenchmarks: direct calls to each layer's public functions.

Each one times a fixed batch of calls over and over until its share of
the budget is spent, with the host-speed calibrator between batches, and
reports the median batch as a rate (or, for the two whole-operation
benchmarks, as calibrated seconds per operation).  They are per-layer
metrics: they say what a layer *can* do in isolation, the traced pass
says what it *did* inside a workload, and an optimization must show in
an end-to-end metric to count (ROADMAP 3).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.classads import parse, symmetric_match
from repro.condor.jobs import job_ad
from repro.condor.startd import machine_ad
from repro.sim import Host, Network, Service, Simulator, call
from repro.sim.fastcopy import fast_deepcopy
from repro.sim.snapshot import SimSnapshot

from calibrate import Stopwatch
from harness import set_up
from workloads import POOL_RANK, POOL_REQUIREMENTS, TRACE_RING, WORKLOADS

#: what a JobManager answers to ``status`` (gram/jobmanager.py)
STATUS_PAYLOAD = {"jmid": "site03-jm17", "state": "ACTIVE",
                  "failure_reason": "", "exit_code": None}


@dataclass(frozen=True)
class Micro:
    name: str
    unit: str
    better: str
    what: str
    #: returns ``(batch, ops)`` -- a zero-argument callable and how many
    #: operations one call of it performs -- or ``(batch, ops, prepare)``
    #: when every batch needs fresh state built outside the clock
    setup: Callable[[], tuple]


def _median_batch_s(batch: Callable[[], None], budget_s: float,
                    prepare: Optional[Callable[[], None]] = None) -> float:
    """Median calibrated host-seconds of one `batch` call (`prepare`
    runs before each one, outside the clock)."""
    samples = []
    deadline = time.perf_counter() + budget_s
    watch = Stopwatch()
    while not samples or time.perf_counter() < deadline:
        if prepare is not None:
            prepare()
            watch = Stopwatch()     # a fresh opening step
        with watch.section():
            batch()
        samples.append(watch.last_s)
    return statistics.median(samples)


# -- sim.kernel ---------------------------------------------------------------

def _timer():
    sim = Simulator(seed=1)

    def ticker():
        while True:
            yield sim.timeout(1.0)

    for _ in range(100):
        sim.spawn(ticker())
    return (lambda: sim.run(until=sim.now + 200.0)), 100 * 200


def _cancel():
    sim = Simulator(seed=1)

    def batch():
        for _ in range(20_000):
            sim.timeout(10.0).cancel()
        sim.run(until=sim.now + 1.0)      # sweep the tombstones

    return batch, 20_000


# -- sim.rpc --------------------------------------------------------------------

class _Echo(Service):
    service_name = "echo"

    def handle_plain(self, ctx, payload):
        return payload

    def handle_generator(self, ctx, payload):
        return payload
        yield   # a generator handler takes the full (non-inline) path


def _rpc(method: str):
    def setup():
        sim = Simulator(seed=1)
        Network(sim)
        client, server = Host(sim, "client"), Host(sim, "server")
        _Echo(server)

        def caller():
            for _ in range(1500):
                yield from call(client, "server", "echo", method,
                                payload=STATUS_PAYLOAD)

        def batch():
            client.spawn(caller())
            sim.run()

        return batch, 1500
    return setup


# -- sim.fastcopy / sim.trace / sim.stats ---------------------------------------

def _fastcopy():
    def batch():
        for _ in range(30_000):
            fast_deepcopy(STATUS_PAYLOAD)
    return batch, 30_000


def _trace():
    sim = Simulator(seed=1, trace_max_records=TRACE_RING)

    def batch():
        log = sim.trace.log
        for _ in range(30_000):
            log("jobmanager:site03-jm17", "state", job="gridjob-17",
                state="ACTIVE")
    return batch, 30_000


def _stats():
    sim = Simulator(seed=1)

    def batch():
        counter = sim.metrics.counter
        for _ in range(100_000):
            counter("gridmanager.probe_outcomes").inc(label="alive")
    return batch, 100_000


# -- classads -------------------------------------------------------------------

def _pool_ads():
    """A job ad and a machine ad as ``pool-negotiate`` builds them."""
    job = job_ad("pool", requirements=POOL_REQUIREMENTS, rank=POOL_RANK)
    machine = machine_ad("glidein-1@site00-lrm", site="site00",
                         glidein=True)
    return job, machine


def _classads_parse():
    def batch():
        for _ in range(500):
            parse(POOL_REQUIREMENTS)
    return batch, 500


def _classads_eval():
    job, machine = _pool_ads()

    def batch():
        for _ in range(2000):
            job.eval("Requirements", target=machine)
            job.eval("Rank", target=machine)
    return batch, 4000


def _classads_match():
    job, machine = _pool_ads()

    def batch():
        for _ in range(2000):
            symmetric_match(job, machine)
    return batch, 2000


# -- whole operations -----------------------------------------------------------

NEGOTIATE_SCALE = 0.1      # 150 jobs meet 20 idle glideins


def _negotiate():
    """One batch = the first negotiation interval after the jobs land;
    every batch needs a freshly warmed pool, built outside the clock."""
    workload = WORKLOADS["pool-negotiate"]
    ready = []

    def prepare():
        ready.append(set_up(workload, 1, NEGOTIATE_SCALE)[0])

    def batch():
        tb = ready.pop()
        interval = tb.config.agents[0].negotiation_interval
        tb.run(until=tb.sim.now + interval)
    return batch, 1, prepare


def _snapshot():
    tb = set_up(WORKLOADS["gram-poll"], 1, 0.1)[0]
    tb.run(until=100.0)

    def batch():
        SimSnapshot.from_json(tb.snapshot().to_json())
    return batch, 1


MICROBENCHMARKS = (
    Micro("sim.kernel.micro_timer_events_per_s", "1/s", "higher",
          "100 processes looping on sim.timeout(1.0): timer events/s",
          _timer),
    Micro("sim.kernel.micro_cancel_events_per_s", "1/s", "higher",
          "arm a timeout then cancel() it (what every RPC does): pairs/s",
          _cancel),
    Micro("sim.rpc.micro_inline_calls_per_s", "1/s", "higher",
          "echo Service, plain handler, two hosts: inline-path calls/s",
          _rpc("plain")),
    Micro("sim.rpc.micro_full_calls_per_s", "1/s", "higher",
          "echo Service, generator handler, two hosts: full-path calls/s",
          _rpc("generator")),
    Micro("sim.fastcopy.micro_copies_per_s", "1/s", "higher",
          "fast_deepcopy of a JobManager status reply: copies/s",
          _fastcopy),
    Micro("sim.trace.micro_logs_per_s", "1/s", "higher",
          "trace.log into a full ring buffer: records/s", _trace),
    Micro("sim.stats.micro_incs_per_s", "1/s", "higher",
          "metrics.counter(name).inc(label=...), the daemon idiom: incs/s",
          _stats),
    Micro("classads.micro_parse_per_s", "1/s", "higher",
          "parse() of pool-negotiate's Requirements: parses/s",
          _classads_parse),
    Micro("classads.micro_eval_per_s", "1/s", "higher",
          "job Requirements and Rank against a glidein ad: evals/s",
          _classads_eval),
    Micro("classads.micro_match_per_s", "1/s", "higher",
          "symmetric_match(job ad, glidein ad): matches/s",
          _classads_match),
    Micro("condor.micro_negotiate_cycle_s", "s", "lower",
          "host time to simulate the first negotiation interval after "
          "150 jobs meet 20 idle glideins", _negotiate),
    Micro("sim.snapshot.micro_capture_s", "s", "lower",
          "capture + JSON round trip of a 45-job testbed at t=100",
          _snapshot),
)


def run_all(budget_s: float) -> dict:
    """Every microbenchmark, `budget_s` split evenly between them."""
    out = {}
    share = budget_s / len(MICROBENCHMARKS)
    for micro in MICROBENCHMARKS:
        batch, ops, *prepare = micro.setup()
        seconds = _median_batch_s(batch, share, *prepare)
        out[micro.name] = seconds if micro.unit == "s" else ops / seconds
    return out
