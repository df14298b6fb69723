"""Fork-based evaluation of a live testbed's futures
(:class:`repro.chaos.shrink.ForkPoint`, what ``chaos shrink`` runs each
candidate plan in)."""

import pytest

from repro.chaos.digest import run_digest
from repro.chaos.shrink import ForkPoint
from repro.grid.scenarios import get_scenario
from repro.sim import Simulator, notify
from repro.sim.snapshot import SnapshotError

pytestmark = pytest.mark.skipif(not ForkPoint.supported(),
                                reason="needs os.fork")


def test_eval_returns_child_result():
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


def test_a_fork_keeps_the_instant_and_runs_ahead_as_the_parent_does():
    """Forked while a process boot, the resume of a process that yielded
    a fired event and an RPC leg are in flight: the child sees the fork
    instant's time and run digest, and the child that runs ahead ends
    where the parent later does."""
    tb = get_scenario("three-site").build(3)
    tb.run(until=400.0)
    sim = tb.sim
    done = sim.event().succeed("done")

    def waiter():
        yield done
        yield sim.timeout(5.0)

    sim.spawn(waiter(), name="waiter")
    sim.spawn(waiter(), name="late")
    src = next(h for _n, h in sorted(sim.hosts.items()) if h.up)
    notify(src, "nowhere", "svc", "ping")
    at = (sim.now, run_digest(tb))
    point = ForkPoint()
    assert point.eval(lambda: (sim.now, run_digest(tb))) == at
    ahead = point.eval(lambda: (tb.run(until=600.0), sim.now,
                                run_digest(tb)))
    assert (sim.now, run_digest(tb)) == at      # the parent stayed put
    tb.run(until=600.0)
    assert ahead[1:] == (sim.now, run_digest(tb))
    assert run_digest(tb) != at[1]


def test_child_exception_surfaces_as_snapshot_error():
    point = ForkPoint()

    def boom():
        raise ValueError("broken future")

    with pytest.raises(SnapshotError, match="broken future"):
        point.eval(boom)
