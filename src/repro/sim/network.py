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
        # Per-pair latency overrides (host or site names, unordered).
        self._link_latency: dict[frozenset[str], float] = {}
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

    # -- topology -------------------------------------------------------------
    def set_link_latency(self, a: str, b: str, latency: float) -> None:
        """Override the one-way latency between two hosts *or sites*.

        Lookup precedence at send time: host-pair override, then
        site-pair override, then the LAN factor (same site), then the
        global WAN default.
        """
        self._link_latency[frozenset((a, b))] = latency

    def _base_latency(self, src: "Host", dst: Optional["Host"],
                      dst_name: str) -> float:
        if self._link_latency:
            override = self._link_latency.get(
                frozenset((src.name, dst_name)))
            if override is not None:
                return override
            if dst is not None and src.site and dst.site:
                override = self._link_latency.get(
                    frozenset((src.site, dst.site)))
                if override is not None:
                    return override
        if dst is not None and src.site and src.site == dst.site:
            return self.latency * self.lan_factor
        return self.latency

    # -- delivery -------------------------------------------------------------
    def send_leg(self, src: "Host", dst: str, service: str,
                 on_arrive: Callable[[Any], None], arg: Any = None,
                 deadline: float = math.inf,
                 on_miss: Optional[Callable[[], None]] = None) -> None:
        """Send one one-way leg; ``on_arrive(arg)`` runs when it lands.

        Counts the leg ``sent``; drops it here -- silently, counted
        ``dropped`` -- when the source is down, a partition separates the
        endpoints, or the loss roll eats it.  Otherwise it lands after
        ``latency + U(0, jitter)``: one loss roll and one jitter draw per
        leg, in send order.  The leg carries a callback, not a message:
        what crosses the wire, and what the landing does (starting with
        :meth:`land_leg`), is the sender's business.  In flight it is one
        bare heap entry (:class:`~repro.sim.kernel.Entry`), not an event.

        ``on_miss()`` tells a sender that waits until ``deadline`` that
        this leg cannot make it: it is called on a drop and -- *before*
        the landing is scheduled, so that a timer it arms wins a tie --
        when the leg will land at or after ``deadline``.
        """
        self.sent += 1
        if not src.up or not self.reachable(src.name, dst):
            return self._drop(on_miss)
        # Loss models the WAN: traffic inside one site (same non-empty
        # `site` tag) rides the LAN and is not subject to random loss.
        sim = self.sim
        dst_host = sim.hosts.get(dst)
        same_site = (dst_host is not None and src.site
                     and src.site == dst_host.site)
        if not same_site and self.loss_rate > 0.0 and \
                self._rng.random() < self.loss_rate:
            sim.trace.log("network", "loss", src=src.name, dst=dst,
                          service=service)
            return self._drop(on_miss)
        latency = self._base_latency(src, dst_host, dst) \
            + self._rng.uniform(0.0, self.jitter)
        if on_miss is not None and sim.now + latency >= deadline:
            on_miss()
        sim.call_at(sim.now + latency, on_arrive, arg)

    def _drop(self, on_miss: Optional[Callable[[], None]]) -> None:
        self.dropped += 1
        if on_miss is not None:
            on_miss()

    def land_leg(self, src: str, dst: str, service: Optional[str] = None,
                 crash_count: int = -1) -> Any:
        """A leg lands: who on ``dst`` receives it, or None (``dropped``).

        Partitions and crashes that happened in flight still stop
        delivery, so everything is judged now.  A request is received by
        whatever is registered as ``service`` *now*; a reply
        (``service=None``) returns to a process, not to a service, so it
        is received by the host itself provided the host has not crashed
        since the request left, when it had this ``crash_count``.
        """
        if self.reachable(src, dst):
            host = self.sim.hosts.get(dst)
            if host is not None and host.up:
                receiver = host.services.get(service) if service is not None \
                    else (host if host.crash_count == crash_count else None)
                if receiver is not None:
                    self.delivered += 1
                    return receiver
        self.dropped += 1
        return None
