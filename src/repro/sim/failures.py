"""Failure injection.

Experiments schedule crashes, restarts, and network partitions at fixed
simulated times; there are no stochastic schedules here.  A seed-drawn
fault schedule is a :class:`~repro.chaos.plan.FaultPlan` (``generate``),
which replays through these same ``*_at`` methods, so a failure scenario
is fully determined by the simulator seed.

The four failure classes of Condor-G (§4.2) map onto:

* ``crash_process`` -- kill one daemon (e.g. a single JobManager);
* ``crash_host`` / ``restart_host`` -- kill every daemon on a machine and
  lose its volatile state (gatekeeper node, submit machine);
* ``partition`` / ``heal`` -- network failure between two machines
  (indistinguishable, to the observer, from the remote machine crashing --
  which is exactly the ambiguity §4.2 describes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .hosts import Host
    from .kernel import Simulator


@dataclass
class FailureEvent:
    time: float
    kind: str
    target: str
    extra: dict = field(default_factory=dict)


class FailureInjector:
    """Schedules crashes/restarts/partitions against a simulator.

    All the ``*_at`` methods arm at *absolute* simulated times (via
    ``Simulator.schedule(at=...)``): a fault armed mid-run fires at
    exactly the requested instant, bit-identical to the same fault armed
    at t=0.  A relative ``now + (t - now)`` round-trip can land one ulp
    off, which is enough to break snapshot/restore digest equivalence.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.injected: list[FailureEvent] = []

    def _at(self, time: float, fn: Callable[[], None]) -> None:
        self.sim.schedule(0.0, fn, at=max(self.sim.now, time))

    # -- deterministic schedules ---------------------------------------------
    def crash_host_at(self, time: float, host: "Host",
                      down_for: Optional[float] = None) -> None:
        """Crash `host` at `time`; restart after `down_for` if given."""
        self._at(time, lambda: self._crash(host))
        if down_for is not None:
            self.restart_host_at(time + down_for, host)

    def restart_host_at(self, time: float, host: "Host") -> None:
        self._at(time, lambda: self._restart(host))

    def partition_at(self, time: float, a: str, b: str,
                     heal_after: Optional[float] = None) -> None:
        self._at(time, lambda: self._partition(a, b))
        if heal_after is not None:
            self._at(time + heal_after, lambda: self._heal(a, b))

    def isolate_at(self, time: float, host: str,
                   rejoin_after: Optional[float] = None) -> None:
        self._at(time, lambda: self._isolate(host))
        if rejoin_after is not None:
            self._at(time + rejoin_after, lambda: self._rejoin(host))

    def crash_service_at(self, time: float, host: "Host",
                         prefix: str) -> None:
        """Kill the first service on `host` whose name matches `prefix`
        (the ``crash_process`` failure class: one daemon, e.g. a single
        JobManager, dies while its machine stays up)."""
        self._at(time, lambda: self._crash_service(host, prefix))

    def custom_at(self, time: float, kind: str, target: str,
                  action: Callable[[], None], **extra) -> None:
        """Schedule an arbitrary injected fault through the recording
        internals, so higher-level fault classes (e.g. proxy expiry) show
        up in ``self.injected`` next to crashes and partitions."""
        def fire() -> None:
            self.injected.append(
                FailureEvent(self.sim.now, kind, target, dict(extra)))
            self.sim.trace.log("failures", kind, target=target, **extra)
            action()

        self._at(time, fire)

    # -- internals ------------------------------------------------------------
    def _crash(self, host: "Host") -> None:
        self.injected.append(FailureEvent(self.sim.now, "crash", host.name))
        host.crash(cause="injected")

    def _restart(self, host: "Host") -> None:
        self.injected.append(FailureEvent(self.sim.now, "restart", host.name))
        host.restart()

    def _partition(self, a: str, b: str) -> None:
        self.injected.append(
            FailureEvent(self.sim.now, "partition", f"{a}|{b}"))
        self.sim.network.partition(a, b)

    def _heal(self, a: str, b: str) -> None:
        self.injected.append(FailureEvent(self.sim.now, "heal", f"{a}|{b}"))
        self.sim.network.heal(a, b)

    def _isolate(self, host: str) -> None:
        self.injected.append(FailureEvent(self.sim.now, "isolate", host))
        self.sim.network.isolate(host)

    def _rejoin(self, host: str) -> None:
        self.injected.append(FailureEvent(self.sim.now, "rejoin", host))
        self.sim.network.rejoin(host)

    def _crash_service(self, host: "Host", prefix: str) -> None:
        for name in sorted(host.services):
            if name.startswith(prefix):
                service = host.services[name]
                self.injected.append(FailureEvent(
                    self.sim.now, "crash_service", f"{host.name}:{name}"))
                service.crash()
                return
        self.injected.append(FailureEvent(
            self.sim.now, "crash_service_miss", f"{host.name}:{prefix}"))
