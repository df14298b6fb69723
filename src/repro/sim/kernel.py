"""Discrete-event simulation kernel.

A tiny, deterministic, generator-based DES in the style of SimPy, tuned for
protocol simulation:

* :class:`Event` -- one-shot occurrence carrying a value or an exception.
* :class:`Timeout` -- an event that fires after a simulated delay.
* :class:`Process` -- wraps a generator; the generator ``yield``\\ s events
  (or other processes) and is resumed with the event's value when it fires.
  A process is itself an event that fires when the generator returns; an
  end nobody waits for takes its value at once and pushes no heap row (a
  failure always does, so :meth:`Simulator.run` still sees it).
* :class:`Simulator` -- the event loop: a binary heap of ``(time, seq,
  item)`` rows, an item being an :class:`Event` or a bare :class:`Entry`
  (one call, for process boots, resumes and timers).  An item is anything
  with ``_cancelled`` and ``_run_callbacks()``; an RPC in flight is its
  own event (:mod:`repro.sim.rpc`).  ``seq`` makes ordering total and
  the whole simulation deterministic.

Design notes
------------
The kernel never touches wall-clock time or global randomness; randomness is
injected through :class:`repro.sim.rng.RngRegistry` streams so that every
experiment is reproducible from a single seed.

Processes may be bound to a :class:`repro.sim.hosts.Host`.  When the host
crashes, the kernel closes the process generator and *fails the process
event* with :class:`~repro.sim.errors.ProcessKilled`, so local joiners see
the death while remote parties (which can only interact over the simulated
network) observe silence -- exactly the failure model Condor-G was built
against.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import Interrupt, ProcessKilled, SimulationError

_UNSET = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; exactly one of :meth:`succeed` or
    :meth:`fail` moves it to *triggered*, after which its callbacks run at
    the current simulation time (via the heap, preserving determinism).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_scheduled", "name",
                 "_cancelled")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._scheduled = False
        self._cancelled = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _UNSET     # fail() sets it too

    @property
    def ok(self) -> bool:
        return self._exc is None

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimulationError(
                f"{type(self).__name__} {self.name!r} has no value yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._scheduled or self.triggered:
            raise SimulationError(
                f"{type(self).__name__} {self.name!r} triggered twice")
        self._value = value
        self._scheduled = True
        self.sim._push(self.sim.now, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._scheduled or self.triggered:
            raise SimulationError(
                f"{type(self).__name__} {self.name!r} triggered twice")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._exc = exc
        self._value = None
        self._scheduled = True
        self.sim._push(self.sim.now, self)
        return self

    def cancel(self) -> None:
        """Abandon a scheduled-but-unfired event (e.g. an unneeded timer).

        Cancelled events are skipped when popped from the heap, so they no
        longer hold the simulation clock open.  Cancelling a triggered
        event is a no-op.

        Cancelling an event that a :class:`Process` is currently blocked
        on would strand that process forever (its resume callback is
        dropped without ever firing), so that raises
        :class:`SimulationError` at the cancel site.
        """
        if self.triggered or self._cancelled:
            return
        if self.callbacks:
            stranded = [
                cb.__self__ for cb in self.callbacks
                if getattr(cb, "__func__", None) is Process._resume
                and cb.__self__._alive and cb.__self__._target is self
            ]
            if stranded:
                names = ", ".join(p.name for p in stranded)
                raise SimulationError(
                    f"cancel() on event {self.name or hex(id(self))} "
                    f"strands waiting process(es): {names}")
        self._cancelled = True
        if self._scheduled:
            self.sim._note_tombstone()

    def _run_callbacks(self) -> None:
        # Never called on a cancelled event: the loop skips tombstones.
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


class Entry:
    """A bare heap item: one call, ``fn(arg)``, with no value, callbacks
    or name.  ``cancel()``, before it runs, leaves a tombstone as
    :meth:`Event.cancel` does."""

    __slots__ = ("sim", "fn", "arg", "_cancelled")

    def __init__(self, sim: "Simulator", fn: Callable[[Any], None],
                 arg: Any):
        self.sim = sim
        self.fn = fn
        self.arg = arg
        self._cancelled = False

    def cancel(self) -> None:
        if not self._cancelled:
            self._cancelled = True
            self.sim._note_tombstone()

    def _run_callbacks(self) -> None:
        self.fn(self.arg)


def _call(fn: Callable[[], None]) -> None:
    fn()


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Unlike a plain event, a timeout is scheduled at construction but only
    becomes *triggered* (value readable, waiters resumable) when the clock
    reaches it.
    """

    __slots__ = ("_pending_value",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 at: Optional[float] = None):
        if at is None:
            at = sim.now + delay
        else:
            delay = at - sim.now
        if not delay >= 0:     # NaN too
            raise ValueError(f"negative timeout {delay!r}")
        Event.__init__(self, sim, "timeout")   # a static name: hot path
        self._pending_value = value if value is not None else delay
        self._scheduled = True
        sim._push(at, self)

    def _run_callbacks(self) -> None:
        self._value = self._pending_value
        Event._run_callbacks(self)


class AnyOf(Event):
    """Fires when the *first* of the child events fires.

    Succeeds with ``(index, value)`` of the first successful child; fails
    with the first child's exception if that child failed.  A losing
    :class:`Timeout` nobody else waits on is cancelled (it would only hold
    the clock open); other losers are defused (not counted as unhandled).
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf needs at least one event")
        for ev in self.events:
            if ev.triggered:
                self._on_child(ev)
                break
            ev.callbacks.append(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        for other in self.events:
            if type(other) is Timeout and other.callbacks == [self._on_child]:
                other.cancel()      # nobody but this AnyOf waits for it
            elif other is not ev:
                _defuse(other)
        if ev.ok:
            self.succeed((self.events.index(ev), ev._value))
        else:
            self.fail(ev._exc)  # type: ignore[arg-type]


def _sink(_ev: Event) -> None:
    return None


def _defuse(ev: Event) -> None:
    """Mark a pending/failed event as handled so its failure is not fatal."""
    ev.callbacks.append(_sink)


ProcessGen = Generator[Any, Any, Any]


class Process(Event):
    """A running activity driven by a generator.

    The generator yields :class:`Event` instances (including other
    processes) and is resumed with the event's value; a failed event is
    re-raised *inside* the generator, so processes handle remote failures
    with ordinary ``try/except``.
    """

    __slots__ = ("gen", "host", "_target", "_alive", "_had_waiter")

    def __init__(
        self,
        sim: "Simulator",
        gen: ProcessGen,
        name: str = "",
        host: Optional[object] = None,
    ):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "proc"))
        self.gen = gen
        self.host = host
        self._target: Optional[Event | Entry] = None
        self._alive = True
        self._had_waiter = False
        if host is not None:
            host._attach_process(self)
        # Kick off at the current time.
        sim.call_at(sim.now, self._resume, _BOOT)

    @property
    def alive(self) -> bool:
        return self._alive

    # -- stepping ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if not self._alive:
            return
        self._target = None
        try:
            if event._exc is None:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._exc)  # type: ignore[arg-type]
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process body failed
            self._finish(exc=exc)
            return
        self._bind(target)

    def _bind(self, target: Any) -> None:
        sim = self.sim
        if not isinstance(target, Event) or target.sim is not sim:
            self._finish(exc=SimulationError(
                f"process {self.name} yielded {target!r}, which is not an "
                "event of its simulator"))
            return
        if target._value is _UNSET:           # pending
            self._target = target
            target.callbacks.append(self._resume)
        else:   # fired: resume in heap order, cancellable as the target
            self._target = sim.call_at(sim.now, self._resume, target)
        if isinstance(target, Process):
            target._had_waiter = True

    def _finish(
        self, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        if self.triggered or self._scheduled:
            return   # killed from inside its own execution
        self._alive = False
        if self.host is not None:
            self.host._detach_process(self)
        if exc is None:
            if self.callbacks:
                self.succeed(value)
            else:   # nobody waits: no heap row, a later waiter sees it fired
                self._value, self._scheduled = value, True
        else:
            self.fail(exc)
            # fatal only if nobody joins the process before run() ends
            self.sim._failures.append((self, exc))

    def _run_callbacks(self) -> None:
        if not self.ok and self.callbacks:
            self._had_waiter = True
        super()._run_callbacks()

    # -- control ----------------------------------------------------------
    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self._alive:
            return
        relay = Event(self.sim, name=f"interrupt:{self.name}")
        relay.callbacks.append(self._interrupted)
        relay.fail(Interrupt(cause))

    def _interrupted(self, relay: Event) -> None:
        # Unhook at delivery, not at the interrupt() call: a boot or a
        # resume already on the heap may have bound a new target since.
        self._unhook()
        self._resume(relay)

    def kill(self, cause: object = None) -> None:
        """Destroy the process (host crash semantics).

        The generator is closed without running except-blocks against a
        specific exception, and joiners receive :class:`ProcessKilled`.
        """
        if not self._alive:
            return
        self._alive = False
        self._unhook()
        if self.host is not None:
            self.host._detach_process(self)
        try:
            self.gen.close()
        except BaseException:  # noqa: BLE001 - generator misbehaved on close
            pass
        if not self.triggered:
            # Never noted as a failure: a killed process is expected
            # collateral, never a test failure.
            self.fail(ProcessKilled(self.name, cause))

    def _unhook(self) -> None:
        target, self._target = self._target, None
        if type(target) is Entry:
            target.cancel()
        elif target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass


#: What a booting process is resumed with: a triggered event of value None.
_BOOT = Event(None, name="boot")  # type: ignore[arg-type]
_BOOT._value = None


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator(seed=7)
        sim.spawn(my_process(sim))
        sim.run(until=3600)
    """

    def __init__(self, seed: int = 0,
                 trace_max_records: Optional[int] = None):
        from .rng import RngRegistry
        from .stats import MetricsRegistry
        from .trace import Trace

        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event | Entry]] = []
        self._seq = 0
        self._tombstones = 0       # cancelled events still in the heap
        self._failures: list[tuple[Process, BaseException]] = []
        self.rng = RngRegistry(seed)
        self.trace = Trace(self, max_records=trace_max_records)
        self.metrics = MetricsRegistry(self)
        self.hosts: dict[str, object] = {}
        self.network = None  # set by Network.__init__

    # -- scheduling -------------------------------------------------------
    def _push(self, t: float, item: "Event | Entry") -> None:
        """The one place anything enters the heap: the next ``seq``."""
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, item))

    def call_at(self, t: float, fn: Callable[[Any], None],
                arg: Any = None) -> Entry:
        """Run ``fn(arg)`` at absolute time ``t`` (``>= now``)."""
        entry = Entry(self, fn, arg)
        self._push(t, entry)
        return entry

    def _note_tombstone(self) -> None:
        """A scheduled event was cancelled; compact once tombstones win.

        Tombstones hold their ``(time, seq, item)`` row in the heap
        until popped; a workload that cancels most of its timers (every
        answered generator-handler RPC abandons its timeout) can leave
        the heap mostly dead.
        Compaction filters the dead entries and re-heapifies; pop order
        of the survivors is untouched because ordering is a pure
        function of the (time, seq) keys.
        """
        self._tombstones += 1
        if self._tombstones > 256 and self._tombstones * 2 > len(self._heap):
            self.compact_heap()

    def schedule(self, delay: float, fn: Callable[[], None],
                 at: Optional[float] = None) -> Entry:
        """Run a plain callback after ``delay`` seconds.

        With ``at`` the callback fires at that *absolute* time instead
        (``Timeout(at=)``): no ``now + (t - now)`` float round-trip, so
        a callback armed mid-run fires at exactly the same instant as
        one armed at t=0.
        """
        if at is None:
            at = self.now + delay
        else:
            delay = at - self.now
        if not delay >= 0:     # NaN too
            raise ValueError(f"negative delay {delay!r}")
        return self.call_at(at, _call, fn)

    def compact_heap(self) -> int:
        """Drop cancelled entries from the heap; returns how many went.

        Pop order of survivors is untouched (ordering is a pure function
        of the ``(time, seq)`` keys), so this is behaviour-neutral.
        """
        dropped = self._tombstones
        if dropped:
            # In-place: run() may hold a local alias to the heap list.
            self._heap[:] = [entry for entry in self._heap
                             if not entry[2]._cancelled]
            heapq.heapify(self._heap)
            self._tombstones = 0
        return dropped

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def spawn(
        self,
        gen: ProcessGen,
        name: str = "",
        host: Optional[object] = None,
    ) -> Process:
        return Process(self, gen, name=name, host=host)

    # -- failure bookkeeping -----------------------------------------------
    def unhandled_failures(self) -> list[tuple[Process, BaseException]]:
        return [(proc, exc) for proc, exc in self._failures
                if not proc._had_waiter]

    # -- main loop ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or simulated time passes ``until``.

        ``until`` may be neither NaN nor before ``now``: time never goes back.
        """
        if until is not None and not until >= self.now:
            raise ValueError(
                f"run(until={until!r}) is before now ({self.now!r})")
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            t, _seq, ev = heap[0]
            if ev._cancelled:
                heappop(heap)
                if self._tombstones > 0:
                    self._tombstones -= 1
                continue
            if until is not None and t > until:
                self.now = until
                break
            heappop(heap)
            self.now = t
            ev._run_callbacks()
        else:
            if until is not None:
                self.now = until
        bad = self.unhandled_failures()
        if bad:
            proc, exc = bad[0]
            raise SimulationError(
                f"{len(bad)} process(es) died unhandled; first: "
                f"{proc.name}: {type(exc).__name__}: {exc}"
            ) from exc
