"""Unit tests for the snapshot record (repro.sim.snapshot).

A snapshot is ``(time, run digest)``.  The property suite
(``test_snapshot_properties.py``) checks resume and rebuild end to end;
these tests pin the record underneath it: taking one leaves the run
alone, its digest moves with the run, its JSON document (and the refusal
of malformed ones), a rebuild replayed to its time reproduces it and a
wrong rebuild does not, and the RNG streams a rebuild relies on.
"""

import json
import math

import pytest

from repro.chaos.digest import run_digest
from repro.grid.scenarios import get_scenario
from repro.sim.rng import RngRegistry
from repro.sim.snapshot import SimSnapshot, SnapshotError


class TestRngSnapshot:
    """What a rebuild relies on: a registry rebuilt from its root seed
    and replayed through the same draws continues as the original."""

    def test_state_round_trip_continues_identically(self):
        r1 = RngRegistry(root_seed=42)
        r1.stream("alpha").random()
        [r1.stream("beta").random() for _ in range(5)]

        r2 = RngRegistry(root_seed=42)
        r2.stream("alpha").random()
        [r2.stream("beta").random() for _ in range(5)]
        assert r2.stream("alpha").random() == r1.stream("alpha").random()
        assert r2.stream("beta").random() == r1.stream("beta").random()

    def test_fresh_stream_after_restore_matches(self):
        """A stream first created *after* the snapshot point draws
        exactly what it would have drawn in the original lineage."""
        r1 = RngRegistry(root_seed=13)
        r1.stream("early").random()
        r2 = RngRegistry(root_seed=13)
        r2.stream("early").random()
        assert r2.stream("late").random() == r1.stream("late").random()


def _testbed(seed: int = 3, until: float = 400.0):
    tb = get_scenario("three-site").build(seed)
    tb.run(until=until)
    return tb


class TestCaptureVerify:
    """Taking a snapshot, and its JSON document."""

    def test_capture_is_side_effect_free(self):
        tb = _testbed()
        before = run_digest(tb)
        snap = tb.snapshot()
        assert run_digest(tb) == before
        assert snap == SimSnapshot(time=tb.sim.now, digest=before)

    def test_json_round_trip_preserves_digest(self):
        snap = _testbed().snapshot()
        assert SimSnapshot.from_json(snap.to_json()) == snap

    def test_foreign_documents_raise_snapshot_error(self):
        """Snapshot JSON is outside input: a document that is not an
        object with exactly the snapshot's fields, of their types, with
        a finite non-negative time, is a SnapshotError, never a bare
        KeyError or a snapshot with a time no run can reach."""
        good = json.loads(_testbed().snapshot().to_json())
        for text, needle in (
                ("{", "not JSON"),
                (json.dumps([good]), "JSON object"),
                (json.dumps({"time": 400.0}), r"lacks keys \['digest'\]"),
                (json.dumps({**good, "seed": 3}), r"unknown keys \['seed'\]"),
                (json.dumps({**good, "digest": 7}), "digest has type int"),
                (json.dumps({**good, "digest": None}),
                 "digest has type NoneType"),
                (json.dumps({**good, "time": "400.0"}), "time has type str"),
                (json.dumps({**good, "time": True}), "time has type bool"),
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
        first = tb.snapshot()
        assert tb.snapshot() == first     # stable at a fixed instant
        tb.run(until=500.0)
        assert tb.snapshot().digest != first.digest


class TestRestore:
    """Rehydrating is rebuilding: the same build replayed to the
    snapshot's time has its digest."""

    def test_restore_rebuilds_bit_identical_state(self):
        tb = _testbed(seed=5)
        snap = SimSnapshot.from_json(tb.snapshot().to_json())
        tb2 = get_scenario("three-site").build(5)
        tb2.run(until=snap.time)
        assert tb2.snapshot() == snap
        # and the two futures stay in lockstep
        tb.run(until=1500.0)
        tb2.run(until=1500.0)
        assert run_digest(tb2) == run_digest(tb)

    def test_restore_detects_seed_tampering(self):
        snap = _testbed(seed=5).snapshot()
        wrong = get_scenario("three-site").build(6)
        wrong.run(until=snap.time)
        assert wrong.sim.now == snap.time
        assert wrong.snapshot().digest != snap.digest
