"""GRRP registration: a resource keeps its ad alive in the MDS index."""

from __future__ import annotations

from typing import Callable

from ..classads import ClassAd
from ..sim.hosts import Host
from ..sim.rpc import Service
from .schema import GRID_ADTYPE

#: Seconds before a lost or refused registration is tried again, so a
#: restarted index hears from every live site well before its next renewal.
RETRY = 10.0


class ResourceRegistrar(Service):
    """A resource-side daemon renewing its GRRP registration;
    ``grrp:<host>``.

    ``ad_source`` is called at each renewal to produce the *current*
    resource ad (dynamic load included), advertised to the index host's
    Collector as a ``Grid`` ad for :attr:`TTL` seconds, every
    :attr:`INTERVAL` seconds.  If the host crashes
    the registrar dies with it, registrations age out, and the resource
    vanishes from broker candidate lists -- until a registrar installed
    with ``Host.boot`` is built again at restart.  Only a lost or
    refused registration is retried, after :data:`RETRY` seconds; a
    fault of the resource's own (an ad that cannot be built or sent)
    stops the run.
    """

    INTERVAL = 60.0
    TTL = 150.0

    def __init__(
        self,
        host: Host,
        giis_host: str,
        ad_source: Callable[[], ClassAd],
        credential=None,
    ):
        super().__init__(host, name=f"grrp:{host.name}")
        self.giis_host = giis_host
        self.ad_source = ad_source
        self.credential = credential
        self.call_at(self.sim.now, self._register)

    def _register(self, _=None) -> None:
        self.call_then(self.giis_host, "collector", "advertise",
                       self._registered, timeout=30.0,
                       credential=self.credential, adtype=GRID_ADTYPE,
                       ad=self.ad_source(), ttl=self.TTL)

    def _registered(self, request) -> None:
        # soft state: a lost registration is tried again soon
        wait = self.INTERVAL if request.error is None else RETRY
        self.call_at(self.sim.now + wait, self._register)
