"""Host-speed calibration: seconds that survive a change of machine.

The sandbox this suite runs in changes speed under the benchmark: ten
runs of one workload within four minutes have read 145 to 200 jobs per
host second, in regimes that last from under a second to many minutes.
No amount of repetition inside one run averages that out, so every host
time the suite reports is *calibrated*: a fixed reference step runs
between the timed sections, and host times are divided by how much
slower than nominal the step ran at that moment.  One calibrated second
is the time in which the step runs ``1 / NOMINAL_STEP_S`` times -- a
host second of this machine undisturbed, and the same amount of *work*
in any other state (ROADMAP aim 1: "units that survive a hardware
change").

A step has two parts, because the machine's slow regimes do not slow
all code alike.  The first is a miniature event simulator written
against the standard library only -- heap of ``(time, seq, event)``
tuples, generator processes, small ``__slots__`` objects, dict payloads:
allocation-heavy code that keeps the core's execution units full, which
the slow regimes hit hardest.  The second is one long chain of dependent
integer operations, which they hit least.  The simulator lies between,
and where was measured in this harness: 456 same-seed passes of the five
workloads at scale 1 (10 120 chunks over 25 minutes, identical work per
chunk, so only the machine varied), each chunk bracketed by both parts
timed apart.  The passes' host time followed the first part alone with
exponent 0.83-0.90 (the yardstick overreacts), the second alone with
1.18-1.32, and a step that spends three fifths of its time in the first
and two fifths in the second with 0.96-1.04, where calibrated pass times
also spread least (3.7 % against 15 % as read).  That mix is what
:data:`_STEP_EVENTS` and :data:`_STEP_CHAIN` set.  A third part bound by
memory latency (a pointer chase over 8 MB) lowered the spread by a
further 0.1 % and was left out.  The step imports nothing from
``repro``: a change that speeds up the simulator must not speed up its
own yardstick.

That the step follows the simulator is checked by every ``run.py
spread``, which reports ``jobs_per_s`` both ways and the exponent each
workload followed (``spread.json`` is the committed one).
``process_time`` as taken stays in every result beside the calibrated
value (``raw_host_s``, ``raw_jobs_per_s``, ``slowdown``).
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager

#: host seconds one :meth:`Calibrator.step` takes on this machine
#: undisturbed: the lower end of what ``run.py spread`` measurements
#: record (each stores the slowdown of every run and the median step as
#: ``reference_step_s``).  The value only sets the unit -- a calibrated
#: second is a host second of this machine undisturbed -- so it changes
#: only together with ``baseline.json``.
NOMINAL_STEP_S = 0.0158

_STEP_EVENTS = 4500         # about three fifths of a step's host time
_STEP_CHAIN = 110_000       # about two fifths
_PROCESSES = 400


class _Event:
    __slots__ = ("time", "process", "payload")

    def __init__(self, time_, process, payload):
        self.time = time_
        self.process = process
        self.payload = payload


class Calibrator:
    """A fixed amount of simulator-like work per :meth:`step`."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self._state: dict = {}
        for i in range(_PROCESSES):
            process = self._process(i)
            self._push(next(process), _Event(0.0, process, None))

    def _process(self, ident: int):
        tick = 0
        while True:
            tick += 1
            self._state[(ident, tick & 15)] = {
                "tick": tick, "who": ident, "label": f"p{ident}:{tick}"}
            yield 1.0 + (ident % 7) * 0.1

    def _push(self, when: float, event: _Event) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, event))

    def step(self) -> float:
        """Run the fixed work quantum; return its host seconds."""
        heap, push = self._heap, self._push
        t0 = time.process_time()
        for _ in range(_STEP_EVENTS):
            when, _seq, event = heapq.heappop(heap)
            delay = next(event.process)
            push(when + delay,
                 _Event(when, event.process, dict(event.payload or {},
                                                  at=when)))
        x = 1
        for i in range(_STEP_CHAIN):
            x = (x * 31 + i) % 1000003
        return time.process_time() - t0


#: the process's one reference step; its state is only its own heap
_CALIBRATOR = Calibrator()


class Stopwatch:
    """Calibrated host time of sections run one after another.

    One calibrator step runs between consecutive sections (outside every
    clock); each section's host time is divided by the slowdown of the
    two steps that bracket it, so a change of machine speed is followed
    section by section.  Totals accumulate in ``host_s`` (calibrated),
    ``raw_host_s`` (as read) and ``wall_s``; ``last_s`` is the calibrated
    time of the latest section alone.
    """

    def __init__(self):
        self._previous = _CALIBRATOR.step()
        self.host_s = self.raw_host_s = self.wall_s = self.last_s = 0.0

    @contextmanager
    def section(self):
        """Time the body of the ``with`` block as one section."""
        wall0, host0 = time.perf_counter(), time.process_time()
        yield
        raw = time.process_time() - host0
        self.wall_s += time.perf_counter() - wall0
        step = _CALIBRATOR.step()
        self.last_s = raw / slowdown([self._previous, step])
        self._previous = step
        self.raw_host_s += raw
        self.host_s += self.last_s


def slowdown(step_times: list) -> float:
    """How much slower than nominal the machine ran while these steps
    were taken (1.0 = nominal).  Divide a host time by the speed of the
    steps that bracket it to calibrate it."""
    return sum(step_times) / len(step_times) / NOMINAL_STEP_S
