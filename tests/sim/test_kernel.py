"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AnyOf,
    Interrupt,
    ProcessKilled,
    SimulationError,
    Simulator,
    Timeout,
)


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(5.0)
        seen.append(sim.now)
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [5.0, 7.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_value_passing():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim):
        value = yield ev
        got.append(value)

    def firer(sim):
        yield sim.timeout(1.0)
        ev.succeed("payload")

    sim.spawn(waiter(sim))
    sim.spawn(firer(sim))
    sim.run()
    assert got == ["payload"]


def test_event_failure_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(sim):
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    sim.spawn(waiter(sim))
    sim.spawn(firer(sim))
    sim.run()
    assert caught == ["boom"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_process_join_returns_value():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(3.0)
        return 42

    def parent(sim):
        value = yield sim.spawn(child(sim))
        results.append((sim.now, value))

    sim.spawn(parent(sim))
    sim.run()
    assert results == [(3.0, 42)]


def test_join_already_finished_process():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    def parent(sim, proc):
        yield sim.timeout(10.0)
        value = yield proc
        results.append(value)

    proc = sim.spawn(child(sim))
    sim.spawn(parent(sim, proc))
    sim.run()
    assert results == ["done"]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("child died")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(parent(sim))
    sim.run()
    assert caught == ["child died"]


def test_unhandled_process_failure_is_strict_error():
    sim = Simulator(strict=True)

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("nobody is watching")

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_non_strict_collects_failures():
    sim = Simulator(strict=False)

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("quiet")

    sim.spawn(bad(sim))
    sim.run()
    assert len(sim.unhandled_failures()) == 1


def test_interrupt_is_catchable_and_process_continues():
    sim = Simulator()
    log = []

    def worker(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield sim.timeout(1.0)
        log.append(("done", sim.now))

    def boss(sim, target):
        yield sim.timeout(2.0)
        target.interrupt(cause="hurry")

    proc = sim.spawn(worker(sim))
    sim.spawn(boss(sim, proc))
    sim.run()
    assert log == [("interrupted", 2.0, "hurry"), ("done", 3.0)]


def test_kill_raises_processkilled_in_joiner():
    sim = Simulator()
    caught = []

    def victim(sim):
        yield sim.timeout(100.0)

    def joiner(sim, proc):
        try:
            yield proc
        except ProcessKilled:
            caught.append(sim.now)

    def killer(sim, proc):
        yield sim.timeout(5.0)
        proc.kill()

    proc = sim.spawn(victim(sim))
    sim.spawn(joiner(sim, proc))
    sim.spawn(killer(sim, proc))
    sim.run()
    assert caught == [5.0]


def test_killed_process_does_not_resume():
    sim = Simulator()
    resumed = []

    def victim(sim, ev):
        yield ev
        resumed.append(True)

    ev = sim.event()
    proc = sim.spawn(victim(sim, ev))

    def killer(sim):
        yield sim.timeout(1.0)
        proc.kill()
        yield sim.timeout(1.0)
        ev.succeed("late")

    sim.spawn(killer(sim))
    sim.run()
    assert resumed == []


def test_any_of_first_wins_and_losers_are_defused():
    sim = Simulator()
    got = []

    def proc(sim):
        a = sim.timeout(5.0, value="slow")
        b = sim.timeout(2.0, value="fast")
        index, value = yield AnyOf(sim, [a, b])
        got.append((index, value, sim.now))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(1, "fast", 2.0)]


def test_any_of_with_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("pre")
    got = []

    def proc(sim):
        index, value = yield sim.any_of([ev, sim.timeout(10.0)])
        got.append((index, value))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(0, "pre")]


def test_all_of_gathers_values():
    sim = Simulator()
    got = []

    def proc(sim):
        values = yield sim.all_of([sim.timeout(1.0, "a"),
                                   sim.timeout(3.0, "b"),
                                   sim.timeout(2.0, "c")])
        got.append((values, sim.now))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(["a", "b", "c"], 3.0)]


def test_all_of_fails_fast():
    sim = Simulator()
    caught = []
    ev = sim.event()

    def proc(sim):
        try:
            yield sim.all_of([sim.timeout(10.0), ev])
        except ValueError:
            caught.append(sim.now)

    def failer(sim):
        yield sim.timeout(1.0)
        ev.fail(ValueError("x"))

    sim.spawn(proc(sim))
    sim.spawn(failer(sim))
    sim.run()
    assert caught == [1.0]


def test_run_until_stops_clock():
    sim = Simulator()
    ticks = []

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.spawn(ticker(sim))
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.5


def test_deterministic_ordering_same_timestamp():
    """Events scheduled at the same instant run in scheduling order."""
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["first", "second", "third"]


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yielding_non_event_fails_process():
    sim = Simulator(strict=False)

    def bad(sim):
        yield 42

    proc = sim.spawn(bad(sim))
    sim.run()
    assert not proc.ok
    assert isinstance(proc.exc, SimulationError)


def test_rng_streams_are_deterministic_and_independent():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    assert a.rng.stream("x").random() == b.rng.stream("x").random()
    c = Simulator(seed=7)
    # draw from another stream first; "x" must be unaffected
    c.rng.stream("y").random()
    assert c.rng.stream("x").random() == Simulator(seed=7).rng.stream("x").random()
    assert Simulator(seed=8).rng.stream("x").random() != \
        Simulator(seed=7).rng.stream("x").random()


# -- Timeout(at=): timeout until an absolute deadline -------------------------

def test_timeout_until_deadline_equal_to_now_fires():
    """deadline == now is a zero-delay timer, not an error."""
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(3.0)
        yield Timeout(sim, 0.0, at=sim.now)   # zero wait
        fired.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert fired == [3.0]


def test_timeout_until_past_deadline_raises():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert sim.now == 10.0
    with pytest.raises(ValueError):
        Timeout(sim, 0.0, at=9.0)


def test_timeout_until_fires_at_exact_absolute_time():
    """No relative-delay float round-trip: the fire time is exactly t."""
    sim = Simulator()
    # 0.1 + 0.2 != 0.3 in floats; an absolute deadline must not inherit
    # that error from a (t - now) subtraction done elsewhere.
    target = 0.3
    sim.schedule(0.1, lambda: None)
    sim.run()
    times = []

    def proc(sim):
        yield Timeout(sim, 0.0, at=target)
        times.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert times == [target]


def test_timeout_until_cancel_before_firing():
    """A cancelled absolute timer neither fires nor holds the clock open."""
    sim = Simulator()
    fired = []
    timer = Timeout(sim, 0.0, at=50.0)
    timer.callbacks.append(lambda _e: fired.append(sim.now))
    sim.schedule(1.0, timer.cancel)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert fired == []
    assert sim.now == 2.0          # clock not dragged out to 50
    assert timer._cancelled and not timer.triggered


def test_timeout_until_cancelled_is_tombstoned():
    sim = Simulator()
    timer = Timeout(sim, 0.0, at=100.0)
    assert sim._tombstones == 0
    timer.cancel()
    assert sim._tombstones == 1
    sim.run()                      # pops and discards the tombstone
    assert sim._tombstones == 0
    assert not sim._heap


def test_tombstone_compaction_preserves_survivors():
    """Compaction drops dead entries; live timers still fire in order."""
    sim = Simulator()
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(600)]
    survivors = []
    for t in (700.0, 800.0, 900.0):
        sim.schedule(t, lambda t=t: survivors.append((t, sim.now)))
    for ev in doomed:
        ev.cancel()
    # Compaction triggers mid-loop every time tombstones cross 256 and
    # outnumber the live entries, so the heap ends far below the 603
    # entries scheduled; only a sub-threshold residue of dead entries
    # (tombstones accounted) may remain alongside the 3 live timers.
    assert len(sim._heap) < 256
    assert len(sim._heap) == 3 + sim._tombstones
    sim.run()
    assert survivors == [(700.0, 700.0), (800.0, 800.0), (900.0, 900.0)]


def test_compaction_below_threshold_keeps_heap():
    """A few tombstones never trigger a compaction pass."""
    sim = Simulator()
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    sim.schedule(100.0, lambda: None)
    for ev in doomed:
        ev.cancel()
    assert len(sim._heap) == 11    # 10 <= 256: all tombstones still there
    assert sim._tombstones == 10
