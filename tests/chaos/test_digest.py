"""Run digests: the determinism auditor's measuring instrument."""

import hashlib
import json
import tracemalloc

import pytest

from repro import GridTestbed, JobDescription
from repro.chaos import first_divergence, run_digest, trace_fingerprint
from repro.chaos.digest import (_dump, _queue_pieces, digest_parts,
                                queue_state, sanitize)
from repro.chaos.runner import build_and_run
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.grid.scenarios import get_scenario


def _document_digest(tb) -> str:
    """The digest's definition: SHA-256 of one canonical JSON document
    holding every digest part, the trace as a list of lines."""
    blob = json.dumps(digest_parts(tb), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _plain_run(seed: int = 0, max_records=None):
    tb = get_scenario("three-site").build(seed)
    tb.sim.trace.max_records = max_records
    tb.run_until_quiet()
    return tb


def _odd_details_run():
    """A run whose last record carries what sanitizing and escaping
    must get right: non-ASCII text and keys, nested containers, a set
    and an object of an undeclared type."""
    class Widget:
        pass

    tb = _plain_run()
    tb.sim.trace.log("probe", "odd", text="Grüße aus 東京 ☃ \"q\"\n",
                     nested={"b": [1, (2.5, {"c": None})], "a": {"z": -0.0}},
                     tags={"y", "x", 3}, widget=Widget(),
                     **{"ключ": "значение"})
    return tb


def _mixed_queues_run():
    """Three agents on two sites: one agent holds more than 256 jobs (a
    chunk boundary), one holds none, one site's LRM stays empty, and the
    third agent has a held job and a failed one."""
    tb = GridTestbed(TestbedConfig(seed=3))
    tb.add_site(SiteSpec("busy", scheduler="pbs", cpus=8))
    tb.add_site(SiteSpec("empty", scheduler="lsf", cpus=2))
    big = tb.add_agent(AgentSpec("big"))
    small = tb.add_agent(AgentSpec("small"))
    tb.add_agent(AgentSpec("idle"))
    for _ in range(300):
        big.submit(JobDescription(runtime=50.0), resource="busy-gk")
    small.submit(JobDescription(runtime=50.0), resource="busy-gk")
    small.gridmanager.hold_for_credentials("digest test hold")
    doomed = small.submit(JobDescription(runtime=500.0), resource="busy-gk")
    tb.sim.run(until=200.0)
    small.cancel(doomed)
    tb.sim.run(until=400.0)
    return tb


class TestSanitize:
    def test_primitives_survive(self):
        assert sanitize({"a": 1, "b": [2.5, None, True, "x"]}) == \
            {"a": 1, "b": [2.5, None, True, "x"]}

    def test_objects_reduced_to_type_name(self):
        class Widget:
            pass

        out = sanitize({"w": Widget()})
        assert out["w"] == "<Widget>"
        # Critically: no memory address (``<Widget object at 0x...>``)
        # may survive into the digest, or every audit would diverge.
        assert "0x" not in out["w"]

    def test_sets_become_sorted_lists(self):
        assert sanitize({"s": {3, 1, 2}}) == {"s": ["1", "2", "3"]}


class TestRunDigest:
    def test_same_cell_same_digest(self):
        tb1, _ = build_and_run("credential", 4)
        d1 = run_digest(tb1)
        tb2, _ = build_and_run("credential", 4)
        assert d1 == run_digest(tb2)

    def test_different_seeds_differ(self):
        tb1, _ = build_and_run("three-site", 0)
        tb2, _ = build_and_run("three-site", 1)
        assert run_digest(tb1) != run_digest(tb2)

    def test_digest_covers_trace_metrics_and_queues(self):
        tb, _ = build_and_run("credential", 4)
        parts = digest_parts(tb)
        assert parts["trace"] and parts["metrics"] and parts["queues"]
        assert len(parts["trace"]) == len(tb.sim.trace)
        assert parts["trace"] == trace_fingerprint(tb)

    @pytest.mark.parametrize("build", [
        _plain_run,
        lambda: build_and_run("three-site", 0)[0],
        lambda: _plain_run(max_records=40),
        _odd_details_run,
    ], ids=["plain", "faulted", "ring-buffered", "odd-details"])
    def test_streamed_hash_equals_the_document_hash(self, build):
        tb = build()
        assert len(tb.sim.trace) > 0
        if tb.sim.trace.max_records is not None:
            assert tb.sim.trace.dropped > 0
        assert run_digest(tb) == _document_digest(tb)
        assert "".join(_queue_pieces(tb)) == _dump(sanitize(queue_state(tb)))

    def test_streamed_queues_equal_the_document_queues(self):
        tb = _mixed_queues_run()
        queues = queue_state(tb)
        assert len(queues["agents"]["big"]) > 256
        assert queues["agents"]["idle"] == {}
        assert queues["sites"]["empty"] == {}
        states = {row["state"] for row in queues["agents"]["small"].values()}
        assert {"HELD", "FAILED"} <= states
        assert "".join(_queue_pieces(tb)) == _dump(sanitize(queues))
        assert run_digest(tb) == _document_digest(tb)

    def test_digest_does_not_hold_the_trace(self):
        """The trace is hashed a bounded batch of lines at a time: the
        digest's transient memory stays well under the size of the
        fingerprint lines, where building the whole document takes
        several times that."""
        tb = _plain_run()
        for i in range(5_000):
            tb.sim.trace.log(f"gridmanager:u{i % 7}", "job_state",
                             job=f"{i}.0", state="RUNNING",
                             resource=f"site{i % 5}-gk/jobmanager-pbs")
        lines = sum(len(line) for line in trace_fingerprint(tb))
        assert len(tb.sim.trace) >= 5_000
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_digest(tb)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < lines / 2, (peak, lines)


class TestFirstDivergence:
    def test_reports_first_differing_record(self):
        a = ["r0", "r1", "r2"]
        b = ["r0", "XX", "r2"]
        div = first_divergence(a, b)
        assert div["index"] == 1
        assert div["first"] == "r1" and div["second"] == "XX"

    def test_reports_length_mismatch(self):
        div = first_divergence(["r0"], ["r0", "r1"])
        assert div["index"] == 1
        assert div["second"] == "r1"

    def test_identical_traces(self):
        assert first_divergence(["r0"], ["r0"]) == {}
