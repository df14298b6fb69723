"""Regression: Event.cancel() used to silently strand processes blocked
on the cancelled event -- they never woke again and the hang surfaced
far away (if at all).  The simulator now refuses the cancel."""

import pytest

from repro.sim import SimulationError, Simulator


def waiter(sim, timer):
    yield timer


def test_cancel_unwaited_timer_is_fine_in_both_modes():
    # there is one mode now: the simulator refuses only a stranding cancel
    sim = Simulator()
    timer = sim.timeout(10.0)
    timer.cancel()
    sim.run()
    assert sim.now == 0.0


def test_strict_mode_raises_on_stranding_cancel():
    sim = Simulator()
    timer = sim.timeout(10.0)
    sim.spawn(waiter(sim, timer), name="sleeper")

    def canceller():
        yield sim.timeout(1.0)
        timer.cancel()

    sim.spawn(canceller())
    with pytest.raises(SimulationError, match="sleeper"):
        sim.run()


def test_cancel_after_waiter_already_resumed_is_fine():
    sim = Simulator()
    timer = sim.timeout(5.0)
    sim.spawn(waiter(sim, timer), name="sleeper")

    def canceller():
        yield sim.timeout(7.0)
        timer.cancel()          # triggered events: cancel is a no-op

    sim.spawn(canceller())
    sim.run()
    assert sim.now == 7.0
