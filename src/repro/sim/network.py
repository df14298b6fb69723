"""Simulated network: latency, jitter, loss, and partitions.

The network moves one-way message *legs* between hosts.  Delivery is
best-effort, exactly matching the failure model Condor-G's protocols were
designed for:

* the destination host may be down -> silent drop;
* a partition may separate the endpoints -> silent drop;
* the loss rate may eat the message -> silent drop;
* otherwise the message arrives after ``latency + U(0, jitter)`` seconds,
  evaluated per-message from the ``"network"`` RNG stream.

Requests, responses and what they carry are layered on top in
:mod:`repro.sim.rpc`, the only sender.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, TYPE_CHECKING

from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .hosts import Host
    from .kernel import Simulator


class Network:
    """The single network fabric of a simulation."""

    def __init__(
        self,
        sim: "Simulator",
        latency: float = 0.05,
        jitter: float = 0.01,
        loss_rate: float = 0.0,
    ):
        if sim.network is not None:
            raise SimulationError("simulator already has a network")
        for field, value in (("latency", latency), ("jitter", jitter)):
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{field} must be finite and >= 0, got {value!r}")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(
                f"loss_rate must be within [0, 1], got {loss_rate!r}")
        self.sim = sim
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        # Traffic within one site rides the LAN at this fraction of the
        # WAN latency (and is never randomly lost).
        self.lan_factor = 0.2
        self._rng = sim.rng.stream("network")
        # Pairs of host names that cannot exchange messages.
        self._partitions: set[frozenset[str]] = set()
        # Per-host-name isolation (cuts a host off from everyone).
        self._isolated: set[str] = set()
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        sim.network = self

    # -- partitions ---------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Block traffic (both directions) between hosts named `a` and `b`."""
        self._partitions.add(frozenset((a, b)))
        self.sim.trace.log("network", "partition", a=a, b=b)

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))
        self.sim.trace.log("network", "heal", a=a, b=b)

    def isolate(self, host: str) -> None:
        """Cut a host off from the entire network."""
        self._isolated.add(host)
        self.sim.trace.log("network", "isolate", host=host)

    def rejoin(self, host: str) -> None:
        self._isolated.discard(host)
        self.sim.trace.log("network", "rejoin", host=host)

    def reachable(self, src: str, dst: str) -> bool:
        # Fully-connected fabrics (the common case) skip the frozenset
        # allocation; this is the hottest check in the simulator.
        if not self._isolated and not self._partitions:
            return True
        if src in self._isolated or dst in self._isolated:
            return False
        return frozenset((src, dst)) not in self._partitions

    # -- delivery -------------------------------------------------------------
    def send_leg(self, src: "Host", dst: str, service: str, item: Any,
                 deadline: float = math.inf,
                 on_miss: Optional[Callable[[Any], None]] = None) -> None:
        """Send one one-way leg: ``item`` enters the heap at its landing.

        Counts the leg ``sent``; drops it here -- silently, counted
        ``dropped`` -- when the source is down, a partition separates the
        endpoints, or the loss roll eats it.  Otherwise it lands after
        ``latency + U(0, jitter)``: one loss roll and one jitter draw per
        leg, in send order.  ``item`` is the kernel's heap item (its
        ``_run_callbacks()`` is the landing): what crosses the wire, what
        the landing checks and the ``delivered``/``dropped`` count there
        are the sender's business.

        ``on_miss(item)`` tells a sender that waits until ``deadline``
        that this leg cannot make it: it is called on a drop and --
        *before* the landing is pushed, so that a timer it arms wins a
        tie -- when the leg will land at or after ``deadline``.
        """
        self.sent += 1
        if not src.up or not self.reachable(src.name, dst):
            return self._drop(item, on_miss)
        # Loss models the WAN: traffic inside one site (same non-empty
        # `site` tag) rides the LAN at `lan_factor` of the WAN latency
        # and is not subject to random loss.
        sim = self.sim
        dst_host = sim.hosts.get(dst)
        if dst_host is not None and src.site and src.site == dst_host.site:
            latency = self.latency * self.lan_factor
        else:
            if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
                sim.trace.log("network", "loss", src=src.name, dst=dst,
                              service=service)
                return self._drop(item, on_miss)
            latency = self.latency
        # ``uniform(0.0, jitter)`` is exactly this float for a finite
        # jitter >= 0, which __init__ guarantees.
        at = sim.now + (latency + self.jitter * self._rng.random())
        if on_miss is not None and at >= deadline:
            on_miss(item)
        sim._push(at, item)

    def _drop(self, item: Any,
              on_miss: Optional[Callable[[Any], None]]) -> None:
        self.dropped += 1
        if on_miss is not None:
            on_miss(item)
