"""Synchronization for simulation processes: :class:`Semaphore`, a
counted resource with FIFO waiters in the style of SimPy's resources.

Its waits are events, so they compose with ``any_of``/timeouts like
everything else in the kernel.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Event, Simulator


class Semaphore:
    """A counted resource; `acquire` events fire in FIFO order."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = ""):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.sim = sim
        self.name = name or "semaphore"
        self.capacity = capacity
        self._available = capacity
        self._waiters: deque[tuple[int, "Event"]] = deque()

    def acquire(self, n: int = 1) -> "Event":
        """Event that fires once `n` units are granted to the caller."""
        if n < 1:
            raise ValueError("acquire at least 1 unit")
        if n > self.capacity:
            raise SimulationError(
                f"{self.name}: acquiring {n} can never succeed "
                f"(capacity {self.capacity})")
        ev = self.sim.event(name=f"{self.name}.acquire({n})")
        self._waiters.append((n, ev))
        self._grant()
        return ev

    def release(self, n: int = 1) -> None:
        self._available += n
        if self._available > self.capacity:
            raise SimulationError(f"{self.name}: released above capacity")
        self._grant()

    def _grant(self) -> None:
        # strict FIFO: a big request at the head blocks smaller ones
        # behind it (no starvation of wide requests)
        while self._waiters:
            n, ev = self._waiters[0]
            if ev.triggered or ev._cancelled:
                self._waiters.popleft()
                continue
            if n > self._available:
                return
            self._waiters.popleft()
            self._available -= n
            ev.succeed(n)
