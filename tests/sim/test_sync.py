"""Tests for the Semaphore primitive."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Semaphore, SimulationError, Simulator


def test_semaphore_grants_up_to_capacity():
    sim = Simulator()
    sem = Semaphore(sim, capacity=2)
    order = []

    def worker(tag, hold):
        yield sem.acquire()
        order.append(("start", tag, sim.now))
        yield sim.timeout(hold)
        sem.release()
        order.append(("end", tag, sim.now))

    for tag, hold in (("a", 10.0), ("b", 10.0), ("c", 5.0)):
        sim.spawn(worker(tag, hold))
    sim.run()
    starts = {tag: t for kind, tag, t in order if kind == "start"}
    assert starts["a"] == 0.0 and starts["b"] == 0.0
    assert starts["c"] == 10.0      # waited for a slot


def test_semaphore_fifo_no_starvation_of_wide_requests():
    sim = Simulator()
    sem = Semaphore(sim, capacity=4)
    order = []

    def holder():
        yield sem.acquire(3)
        yield sim.timeout(10.0)
        sem.release(3)

    def wide():
        yield sem.acquire(4)
        order.append(("wide", sim.now))
        sem.release(4)

    def narrow():
        yield sem.acquire(1)
        order.append(("narrow", sim.now))
        sem.release(1)

    sim.spawn(holder())

    def submitter():
        yield sim.timeout(1.0)
        sim.spawn(wide())
        yield sim.timeout(1.0)
        sim.spawn(narrow())

    sim.spawn(submitter())
    sim.run()
    # strict FIFO: the narrow request does NOT jump the queued wide one
    assert order[0][0] == "wide"
    assert order[1][0] == "narrow"


def test_semaphore_impossible_acquire_rejected():
    sim = Simulator()
    sem = Semaphore(sim, capacity=2)
    with pytest.raises(SimulationError):
        sem.acquire(3)


def test_semaphore_over_release_rejected():
    sim = Simulator()
    sem = Semaphore(sim, capacity=1)
    with pytest.raises(SimulationError):
        sem.release()


@given(st.lists(st.tuples(st.integers(1, 4),
                          st.floats(0.5, 5.0, allow_nan=False)),
                min_size=1, max_size=12),
       st.integers(4, 6))
@settings(max_examples=60, deadline=None)
def test_semaphore_conservation_property(requests, capacity):
    """At no instant do granted units exceed capacity, and every request
    is eventually granted (no deadlock, no lost wakeups)."""
    sim = Simulator()
    sem = Semaphore(sim, capacity=capacity)
    state = {"in_use": 0, "peak": 0, "completed": 0}

    def worker(units, hold):
        yield sem.acquire(units)
        state["in_use"] += units
        state["peak"] = max(state["peak"], state["in_use"])
        yield sim.timeout(hold)
        state["in_use"] -= units
        sem.release(units)
        state["completed"] += 1

    for units, hold in requests:
        sim.spawn(worker(units, hold))
    sim.run()
    assert state["peak"] <= capacity
    assert state["completed"] == len(requests)
    assert sem.acquire(capacity).triggered     # every unit came back
