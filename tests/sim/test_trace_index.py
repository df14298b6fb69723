"""Indexed + bounded Trace: queries answer from the per-key buckets,
ring-buffer eviction keeps the indexes consistent, subscribers stream."""

from repro.sim import Simulator


def fill(sim, n, components=("a", "b"), events=("x", "y")):
    for i in range(n):
        sim.now = float(i)
        sim.trace.log(components[i % len(components)],
                      events[i % len(events)], i=i)


def naive_select(records, component=None, event=None):
    return [r for r in records
            if (component is None or r.component == component)
            and (event is None or r.event == event)]


def test_select_matches_naive_filter():
    sim = Simulator()
    fill(sim, 40, components=("a", "b", "c"), events=("x", "y"))
    records = list(sim.trace)
    for component in (None, "a", "b", "c", "zzz"):
        for event in (None, "x", "y", "zzz"):
            assert sim.trace.select(component, event) == \
                naive_select(records, component, event), (component, event)


def test_select_with_detail_match():
    sim = Simulator()
    fill(sim, 10)
    assert [r.details["i"] for r in sim.trace.select("a", "x", i=4)] == [4]
    assert sim.trace.select(i=3) == [list(sim.trace)[3]]


def test_seq_is_total_order_even_at_equal_times():
    sim = Simulator()
    sim.trace.log("a", "first")
    sim.trace.log("b", "second")      # same sim.now
    recs = list(sim.trace)
    assert recs[0].time == recs[1].time
    assert recs[0].seq < recs[1].seq


def test_iter_prefix_merges_in_log_order():
    sim = Simulator()
    for i, comp in enumerate(("lrm:a", "other", "lrm:b", "lrm:a", "lrm:b")):
        sim.now = float(i)
        sim.trace.log(comp, "tick", i=i)
    got = [r.details["i"] for r in sim.trace.iter_prefix("lrm:")]
    assert got == [0, 2, 3, 4]
    assert list(sim.trace.iter_prefix("nope:")) == []


def test_bounded_trace_evicts_oldest_and_counts_dropped():
    sim = Simulator(trace_max_records=5)
    fill(sim, 12)
    trace = sim.trace
    assert len(trace) == 5
    assert trace.dropped == 7
    assert [r.details["i"] for r in trace] == [7, 8, 9, 10, 11]


def test_bounded_trace_indexes_stay_consistent():
    sim = Simulator(trace_max_records=6)
    fill(sim, 25, components=("a", "b", "c"), events=("x", "y"))
    trace = sim.trace
    records = list(trace)
    for component in ("a", "b", "c"):
        for event in ("x", "y"):
            assert trace.select(component, event) == \
                naive_select(records, component, event)
            assert trace.select(component=component) == \
                naive_select(records, component=component)
    # a fully-evicted bucket disappears rather than lingering empty
    sim2 = Simulator(trace_max_records=2)
    sim2.trace.log("gone", "ev")
    sim2.trace.log("kept", "ev")
    sim2.trace.log("kept", "ev")
    assert sim2.trace.select("gone") == []
    assert list(sim2.trace._by_component) == ["kept"]


def test_subscribers_see_every_record_despite_bounding():
    sim = Simulator(trace_max_records=3)
    seen = []
    sim.trace.subscribe(lambda rec: seen.append(rec.details["i"]))
    fill(sim, 10)
    assert seen == list(range(10))
    assert len(sim.trace) == 3


def test_end_time():
    sim = Simulator()
    assert sim.trace.end_time() is None
    fill(sim, 4)
    assert sim.trace.end_time() == 3.0
