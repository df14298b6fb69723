"""The Collector: the one soft-state ad registry, the pool's and the grid's.

Startds, schedds, and (glided-in) daemons advertise ClassAds here and
the Negotiator queries it; on the MDS index host (``GIIS_HOST``) sites
advertise their resource ads under the ``Grid`` ad type (GRRP) and
personal brokers query them (GRIP).  Ads are keyed by (ad type, name)
and carry a ttl; a daemon that shuts down gracefully withdraws its ad,
one that dies silently ages out.

Expired ads are *reaped*, not just filtered: a sweep runs lazily on the
advertise/query paths whenever the soonest-known expiry has passed, so
the registry cannot grow without bound across glidein or site churn.
The sweep is surfaced through the ``collector.expired_reaped`` metrics
counter.

A query evaluates its constraint against every live ad of the asked
type, in name order (the Negotiator breaks ties by machine order).  No
attribute index narrows the scan: every advertise would have to keep it
up to date, and startds re-advertise far more often than the Negotiator
asks -- about 133 advertises per query on ``pool-negotiate`` (100
startds every 15 s, one query per 20 s cycle).  A constraint is parsed
at every query; :func:`~repro.classads.parse` memoizes by source text,
so a repeated constraint costs a lookup.
"""

from __future__ import annotations

from typing import Optional

from ..classads import ClassAd, EvalContext, is_true, parse
from ..sim.hosts import Host
from ..sim.rpc import Service
from ..sim.stats import fold

fold("collector", "reap", "collector.expired_reaped",
     lambda c, r: c.inc(r.details["count"]))


class Collector(Service):
    service_name = "collector"
    DEFAULT_TTL = 180.0     # seconds an ad advertised with no ttl lives

    def __init__(self, host: Host, authorizer=None):
        super().__init__(host, authorizer=authorizer)
        # (adtype, name) -> (ad, expiry): the registry.
        self._ads: dict[tuple[str, str], tuple[ClassAd, float]] = {}
        # A lower bound on every expiry in the registry: the lazy-sweep
        # trigger.
        self._soonest_expiry = float("inf")

    def _reap(self) -> None:
        """Drop every expired ad once the soonest expiry has passed.

        Reaping is observable (counters and memory), so it is triggered
        from deterministic points only: RPC handlers and local
        inspection.  Afterwards no ad in the registry has expired.
        """
        now = self.sim.now
        if self._soonest_expiry >= now:
            return
        expired = [key for key, (_, expiry) in self._ads.items()
                   if expiry < now]
        for key in expired:
            del self._ads[key]
        self._soonest_expiry = min(
            (expiry for _, expiry in self._ads.values()),
            default=float("inf"))
        if expired:
            self._trace("reap", count=len(expired))

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(component=f"collector:{self.host.name}",
                           event=event, **details)

    # -- handlers -----------------------------------------------------------
    def handle_advertise(self, ctx, adtype: str, ad: ClassAd,
                         ttl: Optional[float] = None) -> bool:
        """Store (or renew) `ad` for `ttl` seconds.  Only a ClassAd under a
        str ad type, for a finite positive ttl, is kept: anything else is
        the caller's error, answered now, not a failure of every later
        query or negotiation cycle."""
        ttl = self.DEFAULT_TTL if ttl is None else ttl
        if type(ttl) not in (int, float) or not 0 < ttl < float("inf"):
            raise ValueError(f"a ttl is a finite positive number, not {ttl!r}")
        if not isinstance(adtype, str):
            raise TypeError(
                f"an ad type is a str, not {type(adtype).__name__}")
        if not isinstance(ad, ClassAd):
            raise TypeError(
                f"an advertisement carries a ClassAd, not {type(ad).__name__}")
        name = ad.get("Name")
        if not isinstance(name, str) or not name:
            raise ValueError("ad needs a string Name attribute")
        self._reap()
        expiry = self.sim.now + ttl
        self._ads[(adtype, name)] = (ad, expiry)
        self._soonest_expiry = min(self._soonest_expiry, expiry)
        return True

    def handle_invalidate(self, ctx, adtype: str, name: str) -> bool:
        self._reap()
        return self._ads.pop((adtype, name), None) is not None

    def handle_query(self, ctx, adtype: str,
                     constraint: str = "true") -> list[ClassAd]:
        ads = self.live_ads(adtype)
        expr = parse(constraint)
        return [ad for ad in ads if is_true(expr.eval(EvalContext(my=ad)))]

    # -- local inspection ---------------------------------------------------
    def live_ads(self, adtype: str) -> list[ClassAd]:
        """Every live ad of `adtype`, in name order."""
        self._reap()
        return [self._ads[key][0]
                for key in sorted(key for key in self._ads
                                  if key[0] == adtype)]
