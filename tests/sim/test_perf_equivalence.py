"""Mechanics of the hot-path structures: heap compaction, structural copy.

Whether these structures leave a whole run untouched is pinned by the
golden digests (``tests/test_golden_digests.py``); the tests here check
the structures themselves.
"""

from __future__ import annotations

from repro.sim.fastcopy import fast_deepcopy
from repro.sim.kernel import Simulator


# -- kernel mechanics ---------------------------------------------------------

def test_cancelled_timeouts_are_compacted():
    sim = Simulator(seed=0)
    events = [sim.timeout(1000.0 + i) for i in range(2000)]
    for ev in events:
        ev.cancel()
    # Compaction triggers once tombstones dominate the live heap.
    sim.run(until=1.0)
    assert len(sim._heap) < 100
    assert sim._tombstones < 100


def test_compaction_keeps_live_events_firing():
    sim = Simulator(seed=0)
    fired = []
    for i in range(50):
        ev = sim.timeout(10.0 + i)
        ev.callbacks.append(lambda e, i=i: fired.append(i))
    doomed = [sim.timeout(500.0 + i) for i in range(2000)]
    for ev in doomed:
        ev.cancel()
    sim.run(until=100.0)
    assert fired == list(range(50))


def test_fast_deepcopy_structural_and_fallback():
    payload = {"a": [1, 2, {"b": (3, "x")}], "c": None}
    copied = fast_deepcopy(payload)
    assert copied == payload
    assert copied is not payload
    assert copied["a"][2] is not payload["a"][2]

    class Weird:
        def __init__(self):
            self.v = [1]

    obj = {"w": Weird()}
    copied = fast_deepcopy(obj)
    assert copied["w"] is not obj["w"]
    assert copied["w"].v == [1]
