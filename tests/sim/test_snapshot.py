"""Unit tests for simulator snapshot/restore (repro.sim.snapshot).

The property suite (``test_snapshot_properties.py``) checks the digest
contract end-to-end; these tests pin the machinery underneath it: heap
canonicalization across tombstone compaction, RNG streams as a replay
rebuilds them, the canonical state walker and the JSON document (and
its refusal of malformed ones), divergence detection -- also of a
document another build captured -- and fork-based restore.
"""

import dataclasses
import json
import math

import pytest

from repro.chaos.digest import run_digest
from repro.grid.scenarios import get_scenario
from repro.sim import Simulator, notify
from repro.sim.rng import RngRegistry
from repro.sim.snapshot import (
    ForkPoint,
    SimSnapshot,
    SnapshotError,
    SnapshotMismatch,
    _first_diff,
    capture,
    kernel_fingerprint,
    restore,
    sim_fingerprint,
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
    """What :func:`restore` relies on: a registry rebuilt from its root
    seed and replayed through the same draws is the captured one, and
    the fingerprint tells a different creation order apart."""

    def test_state_round_trip_continues_identically(self):
        r1 = RngRegistry(root_seed=42)
        r1.stream("alpha").random()
        [r1.stream("beta").random() for _ in range(5)]
        states = r1.snapshot_state()

        r2 = RngRegistry(root_seed=42)
        r2.stream("alpha").random()
        [r2.stream("beta").random() for _ in range(5)]
        assert r2.snapshot_state() == states
        assert r2.stream("alpha").random() == r1.stream("alpha").random()
        assert r2.stream("beta").random() == r1.stream("beta").random()

    def test_conflicting_creation_order_fails_loudly(self):
        """Same streams, same positions, created in another order: the
        fingerprints differ, at the first stream's name."""
        a, b = Simulator(seed=7), Simulator(seed=7)
        a.rng.stream("a"), a.rng.stream("b")
        b.rng.stream("b"), b.rng.stream("a")
        assert dict(a.rng.snapshot_state()) == dict(b.rng.snapshot_state())
        diff = _first_diff(sim_fingerprint(a), sim_fingerprint(b))
        assert diff["path"] == "$.rng[0][0]"

    def test_fresh_stream_after_restore_matches(self):
        """A stream first created *after* the snapshot point draws
        exactly what it would have drawn in the original lineage."""
        r1 = RngRegistry(root_seed=13)
        r1.stream("early").random()
        r2 = RngRegistry(root_seed=13)
        r2.stream("early").random()
        assert r2.snapshot_state() == r1.snapshot_state()
        assert r2.stream("late").random() == r1.stream("late").random()


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

    def test_json_round_trip_preserves_digest(self):
        tb = _testbed()
        snap = capture(tb, scenario="three-site")
        loaded = SimSnapshot.from_json(snap.to_json())
        assert loaded == snap
        verify(tb, loaded)

    def test_foreign_documents_raise_snapshot_error(self):
        """Snapshot JSON is outside input: a document that is not an
        object with exactly the snapshot's fields, of their types, with
        a finite non-negative time, is a SnapshotError, never a bare
        KeyError or a snapshot that cannot be replayed."""
        good = json.loads(capture(_testbed(), scenario="three-site")
                          .to_json())
        truncated = {k: v for k, v in good.items() if k != "fingerprint"}
        for text, needle in (
                ("{", "not JSON"),
                (json.dumps([good]), "JSON object"),
                (json.dumps(truncated), r"lacks keys \['fingerprint'\]"),
                (json.dumps({**good, "version": 14}),
                 r"unknown keys \['version'\]"),
                (json.dumps({**good, "seed": "3"}), "seed has type str"),
                (json.dumps({**good, "seed": True}), "seed has type bool"),
                (json.dumps({**good, "plan": []}), "plan has type list"),
                (json.dumps({**good, "fingerprint": None}),
                 "fingerprint has type NoneType"),
                (json.dumps({**good, "digest": 7}), "digest has type int"),
                (json.dumps({**good, "time": "400.0"}), "time has type str"),
                (json.dumps({**good, "time": math.nan}), "time nan"),
                (json.dumps({**good, "time": math.inf}), "time inf"),
                (json.dumps({**good, "time": -1.0}), "time -1.0")):
            with pytest.raises(SnapshotError, match=needle):
                SimSnapshot.from_json(text)
        snap = SimSnapshot.from_json(json.dumps({**good, "time": 400}))
        assert snap.time == 400.0 and type(snap.time) is float
        assert snap.digest == good["digest"]

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

    def test_unreplayable_provenance_raises_snapshot_error(self):
        """A scenario this build does not know, or a plan event it cannot
        read, is a SnapshotError naming the problem, never a bare
        KeyError or ValueError from the scenario table or the plan."""
        snap = capture(_testbed(), scenario="three-site")
        event = {"time": 100.0, "kind": "crash", "target": "anl-gk"}
        for change, needle in (
                ({"scenario": "no-such-cell"},
                 "unknown scenario 'no-such-cell'"),
                ({"plan": {"events": [{"time": 100.0, "kind": "crash"}]}},
                 r"lacks \['target'\]"),
                ({"plan": {"events": [{"target": "anl-gk"}]}},
                 r"lacks \['kind', 'time'\]"),
                ({"plan": {"events": [{**event, "time": "soon"}]}},
                 "time 'soon' is not a number"),
                ({"plan": {"events": [{**event, "time": None}]}},
                 "time None is not a number")):
            with pytest.raises(SnapshotError, match=needle):
                restore(dataclasses.replace(snap, **change))

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

    def test_another_builds_document_is_refused_at_restore(self):
        """A build that fingerprints state differently wrote this
        document: it parses, and restore's replay names where this
        build's state differs from it."""
        tb = _testbed(seed=5)
        doc = json.loads(capture(tb, scenario="three-site").to_json())
        foreign = [
            ({**doc["fingerprint"], "version": 14}, "$.version"),
            ({**doc["fingerprint"],
              "kernel": {**doc["fingerprint"]["kernel"], "seq": 0}},
             "$.kernel.seq"),
        ]
        for fingerprint, path in foreign:
            snap = SimSnapshot.from_json(
                json.dumps({**doc, "fingerprint": fingerprint}))
            with pytest.raises(SnapshotMismatch, match=path.replace(
                    "$", r"\$")) as exc:
                restore(snap)
            assert exc.value.divergence["path"] == path

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

    def test_entries_in_flight_fingerprint_stably_across_a_fork(self):
        """A boot and a resume of a process that yielded a fired event
        are bare heap entries, and an RPC leg in flight is its request:
        the kernel fingerprint and the state digest taken while they are
        in flight name them -- the request row by its leg --, are stable,
        and a forked child reproduces both -- at the fork instant and
        after running on."""
        tb = _testbed()
        sim = tb.sim
        done = sim.event().succeed("done")

        def waiter():
            yield done
            yield sim.timeout(5.0)

        sim.spawn(waiter(), name="waiter")
        sim.step()                      # `done` fires, nobody waits on it
        sim.step()                      # the boot: yields `done`
        sim.spawn(waiter(), name="late")
        src = next(h for _n, h in sorted(sim.hosts.items()) if h.up)
        notify(src, "nowhere", "svc", "ping")
        heap = kernel_fingerprint(sim)["heap"]
        entries = {row[3] for row in heap if row[2] == "Entry"}
        assert {"Process._resume:waiter", "Process._resume:late"} <= entries
        assert [row[2:] for row in heap if row[2] == "_Request"] \
            == [["_Request", "request", None]]
        fp, digest = kernel_fingerprint(sim), state_digest(tb)
        assert (kernel_fingerprint(sim), state_digest(tb)) == (fp, digest)
        point = ForkPoint()
        assert point.eval(lambda: (kernel_fingerprint(sim),
                                   state_digest(tb))) == (fp, digest)
        ahead = point.eval(lambda: (tb.run(until=600.0), state_digest(tb)))
        tb.run(until=600.0)
        assert ahead[1] == state_digest(tb)
        assert (kernel_fingerprint(sim), state_digest(tb)) != (fp, digest)

    def test_child_exception_surfaces_as_snapshot_error(self):
        point = ForkPoint()

        def boom():
            raise ValueError("broken future")

        with pytest.raises(SnapshotError, match="broken future"):
            point.eval(boom)
