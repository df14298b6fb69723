"""GIIS index service, GRRP registration, GRIP query."""

from __future__ import annotations

from typing import Callable, Optional

from ..classads import ClassAd, EvalContext, is_true, parse
from ..sim.hosts import Host
from ..sim.rpc import Service, call


class GIIS(Service):
    """Grid Index Information Service: soft-state registry of resource ads.

    Registrations carry a TTL; an entry whose TTL lapses without renewal
    stops appearing in query results (the resource probably crashed).
    """

    service_name = "giis"

    def __init__(self, host: Host, authorizer=None,
                 default_ttl: float = 120.0):
        super().__init__(host, authorizer=authorizer)
        self.default_ttl = default_ttl
        # name -> (ad, expiry_time)
        self._registry: dict[str, tuple[ClassAd, float]] = {}
        # constraint text -> parsed expression.  Brokers re-issue the
        # same handful of constraint strings every probe round; parsing
        # is pure, so the cache cannot change query results.
        self._parse_cache: dict[str, object] = {}

    # -- GRRP ---------------------------------------------------------------
    def handle_register(self, ctx, ad: ClassAd,
                        ttl: Optional[float] = None) -> bool:
        name = ad.get("Name")
        if not isinstance(name, str) or not name:
            raise ValueError("resource ad needs a string Name")
        expiry = self.sim.now + (ttl or self.default_ttl)
        self._registry[name] = (ad, expiry)
        self.sim.trace.log("giis", "register", name=name, expiry=expiry)
        return True

    def handle_unregister(self, ctx, name: str) -> bool:
        return self._registry.pop(name, None) is not None

    # -- GRIP ---------------------------------------------------------------
    def handle_query(self, ctx, constraint: str = "true") -> list[ClassAd]:
        """All live ads whose attributes satisfy `constraint`."""
        expr = self._parse_cache.get(constraint)
        if expr is None:
            expr = self._parse_cache[constraint] = parse(constraint)
        out = []
        for name, (ad, expiry) in sorted(self._registry.items()):
            if expiry < self.sim.now:
                continue
            value = expr.eval(EvalContext(my=ad, now=self.sim.now))
            if is_true(value):
                out.append(ad)
        return out

    def live_count(self) -> int:
        return sum(1 for _, expiry in self._registry.values()
                   if expiry >= self.sim.now)


class ResourceRegistrar:
    """A resource-side process renewing its GRRP registration.

    ``ad_source`` is called at each renewal to produce the *current*
    resource ad (dynamic load included).  If the host crashes the process
    dies with it, registrations age out, and the resource vanishes from
    broker candidate lists -- until a registrar installed with
    ``Host.boot`` is built again at restart.
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
                yield from call(self.host, self.giis_host, "giis",
                                "register", timeout=30.0,
                                credential=self.credential,
                                ad=self.ad_source(), ttl=self.ttl)
            except Exception:  # noqa: BLE001 - registration is best-effort
                pass
            yield self.sim.timeout(self.interval)


def grip_query(src: Host, giis_host: str, constraint: str = "true",
               credential=None, timeout: float = 30.0):
    """Query a GIIS for resource ads matching a ClassAd constraint."""
    ads = yield from call(src, giis_host, "giis", "query", timeout=timeout,
                          credential=credential, constraint=constraint)
    return ads
