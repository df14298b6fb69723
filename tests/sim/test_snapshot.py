"""Unit tests for simulator snapshot/restore (repro.sim.snapshot).

The property suite (``test_snapshot_properties.py``) checks the digest
contract end-to-end; these tests pin the machinery underneath it: heap
canonicalization across tombstone compaction, RNG stream creation-order
guards, the canonical state walker and JSON round-trip (and its
rejection of foreign documents), divergence detection, and fork-based
restore.
"""

import pytest

from repro.chaos.digest import run_digest
from repro.grid.scenarios import get_scenario
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.snapshot import (
    SNAPSHOT_VERSION,
    ForkPoint,
    SimSnapshot,
    SnapshotError,
    SnapshotMismatch,
    capture,
    kernel_fingerprint,
    restore,
    state_digest,
    verify,
)


class NeverCompacting(Simulator):
    """Reference kernel: tombstones stay in the heap until they pop."""

    def _note_tombstone(self) -> None:
        self._tombstones += 1


def _sim_with_tombstones(cancel_every: int = 2, n: int = 600,
                         kernel: type = Simulator) -> Simulator:
    """A simulator whose heap carries many cancelled entries."""
    sim = kernel()
    timeouts = [sim.timeout(float(10 + i)) for i in range(n)]
    for t in timeouts[::cancel_every]:
        t.cancel()
    return sim


class TestHeapCanonicalization:
    def test_compact_heap_drops_tombstones(self):
        sim = _sim_with_tombstones()
        live = sum(1 for entry in sim._heap if not entry[2]._cancelled)
        dropped = sim.compact_heap()
        assert dropped == 300
        assert sim._tombstones == 0
        assert len(sim._heap) == live
        assert sim.compact_heap() == 0    # idempotent

    def test_fingerprint_ignores_compaction_state(self):
        """The snapshot hazard: raw heap bytes depend on whether (and
        when) automatic tombstone compaction last ran.  The kernel
        fingerprint must not."""
        a = _sim_with_tombstones()
        b = _sim_with_tombstones()
        b.compact_heap()                  # b already canonical, a not
        assert kernel_fingerprint(a) == kernel_fingerprint(b)

    def test_compaction_is_behavior_neutral(self):
        """Pop order of survivors is untouched by compaction."""
        fired_a, fired_b = [], []
        a = Simulator()
        b = Simulator()
        for sim, fired in ((a, fired_a), (b, fired_b)):
            kept = []
            for i in range(40):
                ev = sim.schedule(float(5 + i),
                                  (lambda t=i, f=fired: f.append(t)))
                kept.append(ev)
            for ev in kept[::3]:
                ev.cancel()
        b.compact_heap()
        a.run()
        b.run()
        assert fired_a == fired_b

    def test_snapshot_straddling_automatic_compaction(self):
        """Capture just before the auto-compaction threshold trips, let
        the live run cross it, and compare against a run that never
        compacted: fingerprints at the far side must agree."""
        compacting = _sim_with_tombstones()
        mid = kernel_fingerprint(compacting)       # canonicalizes
        # push past the threshold: >256 tombstones and majority dead
        extra = [compacting.timeout(2000.0 + i) for i in range(600)]
        for t in extra:
            t.cancel()                              # auto-compaction fires
        assert compacting._tombstones < 600
        reference = _sim_with_tombstones(kernel=NeverCompacting)
        assert kernel_fingerprint(reference) == mid    # compacts too
        extra = [reference.timeout(2000.0 + i) for i in range(600)]
        for t in extra:
            t.cancel()                              # tombstones pile up
        assert reference._tombstones == 600
        assert kernel_fingerprint(compacting) == kernel_fingerprint(reference)


class TestRngSnapshot:
    def test_state_round_trip_continues_identically(self):
        r1 = RngRegistry(root_seed=42)
        r1.stream("alpha").random()
        [r1.stream("beta").random() for _ in range(5)]
        states = r1.snapshot_state()

        r2 = RngRegistry(root_seed=42)
        r2.restore_state(states)
        assert r2.stream("alpha").random() == r1.stream("alpha").random()
        assert r2.stream("beta").random() == r1.stream("beta").random()

    def test_restore_rehydrates_streams_eagerly(self):
        r1 = RngRegistry(root_seed=7)
        r1.stream("a"), r1.stream("b")
        r2 = RngRegistry(root_seed=7)
        r2.restore_state(r1.snapshot_state())
        # both streams exist without anyone asking for them again
        assert [name for name, _ in r2.snapshot_state()] == ["a", "b"]

    def test_conflicting_creation_order_fails_loudly(self):
        r1 = RngRegistry(root_seed=7)
        r1.stream("a"), r1.stream("b")
        states = r1.snapshot_state()

        r3 = RngRegistry(root_seed=7)
        r3.stream("b")               # conflicting order: b before a
        with pytest.raises(RuntimeError):
            r3.restore_state(states)

    def test_existing_prefix_is_accepted(self):
        r1 = RngRegistry(root_seed=7)
        r1.stream("a").random()
        r1.stream("b")
        states = r1.snapshot_state()
        r4 = RngRegistry(root_seed=7)
        r4.stream("a").random()      # same creation order, drifted state
        r4.stream("a").random()
        r4.restore_state(states)
        assert r4.stream("a").random() == r1.stream("a").random()

    def test_fresh_stream_after_restore_matches(self):
        """A stream first created *after* restore must draw exactly what
        it would have drawn in the original lineage."""
        r1 = RngRegistry(root_seed=13)
        r1.stream("early").random()
        r2 = RngRegistry(root_seed=13)
        r2.restore_state(r1.snapshot_state())
        assert r2.stream("late").random() == r1.stream("late").random()

    def test_json_thawed_states_restore(self):
        """Snapshot states that round-tripped through JSON (tuples ->
        lists) must still rehydrate."""
        import json

        r1 = RngRegistry(root_seed=5)
        r1.stream("s").random()
        thawed = json.loads(json.dumps(
            [[name, list(state)] for name, state in r1.snapshot_state()]))
        r2 = RngRegistry(root_seed=5)
        r2.restore_state([(name, state) for name, state in thawed])
        assert r2.stream("s").random() == r1.stream("s").random()


def _testbed(seed: int = 3, until: float = 400.0):
    tb = get_scenario("three-site").build(seed)
    tb.run(until=until)
    return tb


class TestCaptureVerify:
    def test_capture_is_side_effect_free(self):
        tb = _testbed()
        before = run_digest(tb)
        snap = capture(tb, scenario="three-site")
        assert run_digest(tb) == before
        assert snap.time == tb.sim.now
        assert snap.seed == 3

    def test_verify_passes_on_unchanged_state(self):
        tb = _testbed()
        snap = capture(tb, scenario="three-site")
        verify(tb, snap)              # no raise

    def test_verify_names_the_divergent_path(self):
        tb = _testbed()
        snap = capture(tb, scenario="three-site")
        tb.sim.network.sent += 1
        with pytest.raises(SnapshotMismatch) as exc:
            verify(tb, snap)
        assert "network" in exc.value.divergence["path"]

    def test_json_round_trip_preserves_digest(self, tmp_path):
        tb = _testbed()
        snap = capture(tb, scenario="three-site")
        path = tmp_path / "snap.json"
        snap.save(str(path))
        loaded = SimSnapshot.load(str(path))
        assert loaded.digest == snap.digest
        assert loaded.fingerprint == snap.fingerprint
        verify(tb, loaded)

    def test_unsupported_version_rejected(self):
        tb = _testbed()
        data = capture(tb, scenario="three-site").to_dict()
        data["version"] = 99
        with pytest.raises(SnapshotError):
            SimSnapshot.from_dict(data)

    def test_foreign_documents_raise_snapshot_error(self):
        """Snapshot JSON is outside input: an old-format or damaged
        document is a SnapshotError, never a bare KeyError."""
        good = capture(_testbed(), scenario="three-site").to_dict()
        pre_bump = {**good, "version": SNAPSHOT_VERSION - 1,
                    "perf_flags": {"rpc_inline": True}}
        # Versions 2 to 5 have this version's key set but fingerprint
        # another heap or host table (an in-flight inline RPC; the
        # GridManager's `gm-poll` process; `kernel.rpc_tokens` and the
        # per-host `_rpc` service; boot actions, testbed roots and the
        # submit machine's disk before `Host.boot`): refused, not
        # mis-verified.
        assert SNAPSHOT_VERSION == 6
        v2 = {**good, "version": 2}
        v3 = {**good, "version": 3}
        v4 = {**good, "version": 4}
        v5 = {**good, "version": 5}
        truncated = {k: v for k, v in good.items() if k != "fingerprint"}
        unknown = {**good, "perf_flags": {}}
        for doc, needle in ((pre_bump, "version"),
                            (v2, "version"),
                            (v3, "version"),
                            (v4, "version"),
                            (v5, "version"),
                            (truncated, "fingerprint"),
                            (unknown, "perf_flags"),
                            ([good], "JSON object")):
            with pytest.raises(SnapshotError, match=needle):
                SimSnapshot.from_dict(doc)
        assert SimSnapshot.from_dict(good).digest == good["digest"]

    def test_state_digest_tracks_progress(self):
        tb = _testbed(until=300.0)
        d1 = state_digest(tb)
        assert state_digest(tb) == d1     # stable at a fixed instant
        tb.run(until=500.0)
        assert state_digest(tb) != d1


class TestRestore:
    def test_restore_requires_provenance(self):
        tb = _testbed()
        snap = capture(tb)            # no scenario recorded
        with pytest.raises(SnapshotError):
            restore(snap)

    def test_restore_rebuilds_bit_identical_state(self):
        tb = _testbed(seed=5)
        snap = capture(tb, scenario="three-site")
        tb2 = restore(snap)
        assert tb2 is not tb
        assert tb2.sim.now == tb.sim.now
        assert state_digest(tb2) == snap.digest
        # and the two futures stay in lockstep
        tb.run(until=1500.0)
        tb2.run(until=1500.0)
        assert run_digest(tb2) == run_digest(tb)

    def test_restore_detects_seed_tampering(self):
        tb = _testbed(seed=5)
        snap = capture(tb, scenario="three-site")
        snap.seed = 6                 # provenance lies about the state
        with pytest.raises(SnapshotMismatch):
            restore(snap)


@pytest.mark.skipif(not ForkPoint.supported(), reason="needs os.fork")
class TestForkPoint:
    def test_eval_returns_child_result(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        point = ForkPoint()

        def future():
            sim.run()
            return sim.now, len(fired)

        assert point.eval(future) == (10.0, 1)
        # the parent never advanced: evaluations restart from the point
        assert sim.now == 0.0 and fired == []
        assert point.eval(future) == (10.0, 1)
        assert point.evaluations == 2

    def test_child_exception_surfaces_as_snapshot_error(self):
        point = ForkPoint()

        def boom():
            raise ValueError("broken future")

        with pytest.raises(SnapshotError, match="broken future"):
            point.eval(boom)
