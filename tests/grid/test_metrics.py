"""Tests for run metrics: concurrency, timelines, queue waits."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.metrics import concurrency, timeline
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_trace(records):
    """A trace of hand-written records, with no metrics registry folding
    them (they carry only the fields the replays read)."""
    sim = Simulator()
    trace = Trace(sim)
    for t, component, event, details in records:
        sim.now = t
        trace.log(component, event, **details)
    return trace


def test_concurrency_single_interval():
    trace = make_trace([
        (0.0, "lrm:a", "start", {"job": "j1"}),
        (10.0, "lrm:a", "finish", {"job": "j1"}),
    ])
    stats = concurrency(trace)
    assert stats.cpu_seconds == 10.0
    assert stats.peak_busy == 1
    assert stats.average_busy == pytest.approx(1.0)


def test_concurrency_overlapping_intervals():
    trace = make_trace([
        (0.0, "lrm:a", "start", {"job": "j1"}),
        (5.0, "lrm:a", "start", {"job": "j2"}),
        (10.0, "lrm:a", "finish", {"job": "j1"}),
        (15.0, "lrm:a", "finish", {"job": "j2"}),
    ])
    stats = concurrency(trace)
    assert stats.cpu_seconds == pytest.approx(20.0)
    assert stats.peak_busy == 2
    assert stats.average_busy == pytest.approx(20.0 / 15.0)


def test_concurrency_preempt_closes_interval():
    trace = make_trace([
        (0.0, "lrm:a", "start", {"job": "j1"}),
        (4.0, "lrm:a", "preempt", {"job": "j1"}),
        (6.0, "lrm:a", "start", {"job": "j1"}),
        (10.0, "lrm:a", "finish", {"job": "j1"}),
    ])
    stats = concurrency(trace)
    assert stats.cpu_seconds == pytest.approx(8.0)


def test_unclosed_interval_extends_to_trace_end():
    trace = make_trace([
        (0.0, "lrm:a", "start", {"job": "j1"}),
        (20.0, "other", "tick", {}),
    ])
    stats = concurrency(trace)
    assert stats.cpu_seconds == pytest.approx(20.0)


def test_empty_trace_gives_zeroes():
    trace = make_trace([])
    stats = concurrency(trace)
    assert stats.cpu_seconds == 0.0
    assert stats.peak_busy == 0


def test_startd_prefix_uses_sandbox_events():
    trace = make_trace([
        (0.0, "startd:s1", "job_start", {"job": "1.0"}),
        (8.0, "startd:s1", "job_vacated", {"job": "1.0"}),
        (10.0, "startd:s2", "job_start", {"job": "2.0"}),
        (20.0, "startd:s2", "job_done", {"job": "2.0"}),
    ])
    stats = concurrency(trace, component_prefix="startd:")
    assert stats.cpu_seconds == pytest.approx(18.0)
    assert stats.peak_busy == 1


def _numpy_timeline(intervals, bucket):
    """The numpy formula `timeline` replaced, kept as its reference."""
    np = pytest.importorskip("numpy")
    t0 = min(s for s, _ in intervals)
    t1 = max(e for _, e in intervals)
    edges = np.arange(t0, t1 + bucket, bucket)
    busy = np.zeros(len(edges))
    for start, end in intervals:
        i0 = np.searchsorted(edges, start, side="right") - 1
        i1 = np.searchsorted(edges, end, side="right") - 1
        for i in range(max(i0, 0), min(i1 + 1, len(edges))):
            lo = max(start, edges[i])
            hi = min(end, edges[i] + bucket)
            if hi > lo:
                busy[i] += (hi - lo) / bucket
    return edges.tolist(), busy.tolist()


@pytest.mark.parametrize("spans, bucket, expected", [
    pytest.param([(0.0, 10.0)], 5.0, [1.0, 1.0, 0.0], id="divides"),
    # a non-zero start and a bucket that does not divide the 14.25 s span
    pytest.param([(3.0, 10.0), (5.5, 17.25)], 4.0,
                 [1.375, 1.75, 1.0, 0.5625, 0.0], id="offset-uneven"),
    # edges that are not exact binary fractions: bit for bit with arange
    pytest.param([(0.1, 2.9), (0.7, 1.3), (2.2, 7.7)], 0.3, None,
                 id="inexact-edges"),
])
def test_timeline_buckets(spans, bucket, expected):
    records = []
    for n, (start, end) in enumerate(spans):
        records += [(start, "lrm:a", "start", {"job": f"j{n}"}),
                    (end, "lrm:a", "finish", {"job": f"j{n}"})]
    trace = make_trace(sorted(records, key=lambda r: r[0]))
    edges, busy = timeline(trace, bucket=bucket)
    assert len(edges) == len(busy)
    assert (edges, busy) == _numpy_timeline(spans, bucket)
    if expected is not None:
        assert busy == pytest.approx(expected)
    assert sum(busy) * bucket == pytest.approx(sum(e - s for s, e in spans))


def test_zero_span_run_has_zero_average():
    """Regression: concurrency() used max(span, 1e-12), so a zero-length
    run reported an astronomically large average_busy."""
    trace = make_trace([
        (5.0, "lrm:a", "start", {"job": "j1"}),
        (5.0, "lrm:a", "finish", {"job": "j1"}),
    ])
    stats = concurrency(trace)
    assert stats.first_start == stats.last_finish == 5.0
    assert stats.average_busy == 0.0
    assert stats.cpu_seconds == 0.0


def test_registry_concurrency_matches_trace_replay():
    """The incremental busy-slot gauge and the O(n) trace replay must
    describe the same run identically (1-cpu jobs)."""
    tb = GridTestbed(TestbedConfig(seed=77))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("user"))
    ids = [agent.submit(JobDescription(runtime=60.0 + 10 * i),
                        resource="site-gk") for i in range(6)]
    tb.sim.run(until=4000.0)
    assert all(agent.status(j).is_complete for j in ids)

    from_trace = concurrency(tb.sim.trace)
    gauge = tb.sim.metrics.snapshot()["metrics"]["lrm.busy_slots"]
    assert gauge["integral"] == pytest.approx(from_trace.cpu_seconds)
    assert gauge["max"] == from_trace.peak_busy
    assert gauge["first_active"] == pytest.approx(from_trace.first_start)
    assert gauge["value"] == 0
    assert gauge["last_idle"] == pytest.approx(from_trace.last_finish)


def _twelve_jobs(trace_max_records=None):
    tb = GridTestbed(TestbedConfig(seed=77,
                                   trace_max_records=trace_max_records))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("user"))
    ids = [agent.submit(JobDescription(runtime=300.0 + 10 * i),
                        resource="site-gk") for i in range(12)]
    tb.sim.run(until=4000.0)
    assert all(agent.status(j).is_complete for j in ids)
    return tb


def test_a_replay_of_a_bounded_trace_is_refused():
    """A ring that evicted records would replay a short run: the
    replays refuse, and point at the folded metrics, which saw every
    record."""
    full = _twelve_jobs()
    tb = _twelve_jobs(trace_max_records=60)
    assert tb.sim.trace.dropped > 0
    for replay in (lambda t: concurrency(t), lambda t: timeline(t, 60.0)):
        with pytest.raises(ValueError, match="lrm.busy_slots"):
            replay(tb.sim.trace)
    gauge = tb.sim.metrics.snapshot()["metrics"]["lrm.busy_slots"]
    assert gauge == full.sim.metrics.snapshot()["metrics"]["lrm.busy_slots"]
    assert gauge["integral"] == \
        pytest.approx(concurrency(full.sim.trace).cpu_seconds)
    waits = tb.sim.metrics.get("lrm.queue_wait")
    assert waits.count == 12
    assert waits.total == pytest.approx(sum(
        rec.details["waited"] for rec in full.sim.trace.iter_prefix("lrm:")
        if rec.event == "start"))
