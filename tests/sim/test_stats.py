"""MetricsRegistry: counter/gauge/histogram semantics, JSON export,
and determinism across identical seeds."""

import json

import pytest

from repro import GridTestbed, JobDescription
from repro.sim import SimulationError, Simulator
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def test_counter_total_and_labels():
    sim = Simulator()
    c = sim.metrics.counter("demo.counter")
    c.inc()
    c.inc(2.0, label="a")
    c.inc(3.0, label="b")
    c.inc(label="a")
    assert c.value == 7.0
    assert c.labelled("a") == 3.0
    assert c.labelled("b") == 3.0
    assert c.labelled("missing") == 0.0
    assert c.labels == {"a": 3.0, "b": 3.0}


def test_counter_rejects_decrease():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.metrics.counter("demo.counter").inc(-1.0)


def test_gauge_time_weighted_integral():
    sim = Simulator()
    g = sim.metrics.gauge("demo.gauge")
    g.set(2.0)              # value 2 from t=0
    sim.now = 10.0
    g.set(4.0)              # 2 * 10 = 20 area so far
    sim.now = 15.0
    g.set(0.0)              # + 4 * 5 = 40 total
    assert g.integral == pytest.approx(40.0)
    assert g.time_average == pytest.approx(40.0 / 15.0)
    assert g.max == 4.0
    assert g.first_active == 0.0
    assert g.last_idle == 15.0


def test_gauge_inc_dec():
    sim = Simulator()
    g = sim.metrics.gauge("demo.gauge")
    g.inc()
    g.inc(2.0)
    g.dec()
    assert g.value == 2.0
    assert g.max == 3.0


def test_histogram_aggregates_and_percentiles():
    sim = Simulator()
    h = sim.metrics.histogram("demo.hist")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.count == 4
    assert h.total == 10.0
    assert h.mean == 2.5
    assert h.min == 1.0
    assert h.max == 4.0
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 4.0
    assert h.percentile(50) == pytest.approx(2.5)


def test_histogram_reservoir_bound_keeps_exact_aggregates():
    sim = Simulator()
    h = sim.metrics.histogram("demo.hist")
    n = h.MAX_SAMPLES + 1
    for v in range(n):
        h.observe(float(v))
    assert h.count == n
    assert h.total == n * (n - 1) / 2
    assert h.max == n - 1
    assert h.sample_dropped == 1
    # percentiles come from the (first-N) reservoir only
    assert h.percentile(100) == n - 2


def test_registry_get_or_create_and_kind_conflict():
    sim = Simulator()
    c1 = sim.metrics.counter("same.name")
    assert sim.metrics.counter("same.name") is c1
    with pytest.raises(SimulationError):
        sim.metrics.gauge("same.name")
    with pytest.raises(SimulationError):
        sim.metrics.histogram("same.name")
    assert sim.metrics.get("same.name") is c1
    assert sim.metrics.get("nope") is None


def test_snapshot_shape_and_json_export():
    sim = Simulator()
    sim.metrics.counter("b.counter").inc(label="x")
    sim.metrics.gauge("a.gauge").set(2.0)
    sim.now = 5.0
    snap = sim.metrics.snapshot()
    assert snap["time"] == 5.0
    assert list(snap["metrics"]) == ["a.gauge", "b.counter"]   # sorted
    assert snap["metrics"]["b.counter"]["labels"] == {"x": 1.0}
    parsed = json.loads(json.dumps(snap))
    assert parsed["metrics"]["a.gauge"]["type"] == "gauge"


def _run_scenario(seed):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("user"))
    ids = [agent.submit(JobDescription(runtime=50.0 + i), resource="site-gk")
           for i in range(4)]
    tb.sim.run(until=2000.0)
    assert all(agent.status(j).is_complete for j in ids)
    return tb


def test_registry_deterministic_across_identical_seeds():
    a = _run_scenario(31)
    b = _run_scenario(31)
    assert json.dumps(a.sim.metrics.snapshot(), sort_keys=True) == \
        json.dumps(b.sim.metrics.snapshot(), sort_keys=True)
    # and the metrics layer did not perturb the simulation itself
    assert len(a.sim.trace) == len(b.sim.trace)


def test_registry_differs_across_seeds_but_counts_agree():
    a = _run_scenario(31)
    b = _run_scenario(32)
    sa = a.sim.metrics.snapshot()["metrics"]
    sb = b.sim.metrics.snapshot()["metrics"]
    # logical counts match; latency distributions (jittered) differ
    assert sa["gridmanager.submits"] == sb["gridmanager.submits"]
    assert sa["gridmanager.submit_latency"]["count"] == \
        sb["gridmanager.submit_latency"]["count"]
