"""GRRP registration: a resource keeps its ad alive in the MDS index."""

from __future__ import annotations

from typing import Callable

from ..classads import ClassAd
from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import call
from .schema import GRID_ADTYPE

#: Seconds before a lost or refused registration is tried again, so a
#: restarted index hears from every live site well before its next renewal.
RETRY = 10.0


class ResourceRegistrar:
    """A resource-side process renewing its GRRP registration.

    ``ad_source`` is called at each renewal to produce the *current*
    resource ad (dynamic load included), advertised to the index host's
    Collector as a ``Grid`` ad for ``ttl`` seconds.  If the host crashes
    the process dies with it, registrations age out, and the resource
    vanishes from broker candidate lists -- until a registrar installed
    with ``Host.boot`` is built again at restart.  Only a lost or
    refused registration is retried, after :data:`RETRY` seconds; a
    fault of the resource's own (an ad that cannot be built or sent)
    ends the process.
    """

    def __init__(
        self,
        host: Host,
        giis_host: str,
        ad_source: Callable[[], ClassAd],
        interval: float = 60.0,
        ttl: float = 150.0,
        credential=None,
    ):
        self.host = host
        self.sim = host.sim
        self.giis_host = giis_host
        self.ad_source = ad_source
        self.interval = interval
        self.ttl = ttl
        self.credential = credential
        host.spawn(self._loop(), name=f"grrp:{host.name}")

    def _loop(self):
        while True:
            try:
                yield from call(self.host, self.giis_host, "collector",
                                "advertise", timeout=30.0,
                                credential=self.credential,
                                adtype=GRID_ADTYPE, ad=self.ad_source(),
                                ttl=self.ttl)
            except RPCError:
                yield self.sim.timeout(RETRY)   # soft state: try again soon
                continue
            yield self.sim.timeout(self.interval)
