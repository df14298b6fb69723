"""MyProxy: an online credential repository (paper §4.3).

The paper proposes MyProxy [23] as the fix for user hassle with expiring
credentials: the user stores a *long-lived* proxy (say, a week) on a
secured server; services acting on the user's behalf (the Condor-G agent)
fetch *short-lived* proxies (say, 12 hours) from it and refresh them
automatically.  Only the MyProxy server and the agent ever see the
long-lived proxy.
"""

from __future__ import annotations

from typing import Optional

from ..sim.errors import AuthenticationError
from ..sim.rpc import Service
from .proxy import ProxyCredential, delegate


class MyProxyServer(Service):
    """Stores long-lived proxies; hands out short-lived delegations.

    RPC methods:

    * ``store(username, passphrase, credential)`` -- deposit a long-lived
      :class:`ProxyCredential` protected by a passphrase.
    * ``get(username, passphrase, lifetime)`` -- obtain a fresh short-lived
      delegation of the stored credential.
    * ``info(username)`` -- remaining lifetime of the stored credential.
    """

    service_name = "myproxy"
    #: lifetime of a delegation asked for without one
    DEFAULT_LIFETIME = 12 * 3600.0

    def __init__(self, host):
        super().__init__(host)
        # username -> (passphrase, ProxyCredential); survives in memory
        # only (a crash of the MyProxy host loses deposits, as in life).
        self._store: dict[str, tuple[str, ProxyCredential]] = {}

    # -- handlers -----------------------------------------------------------
    def handle_store(self, ctx, username: str, passphrase: str,
                     proxy: ProxyCredential) -> bool:
        # NB: the parameter is `proxy`, not `credential` -- the latter is
        # the RPC layer's authentication envelope.
        if proxy.expired(self.sim.now):
            raise AuthenticationError("refusing to store an expired proxy")
        self._store[username] = (passphrase, proxy)
        self.sim.trace.log("myproxy", "store", user=username,
                           expires=proxy.not_after)
        return True

    def handle_get(self, ctx, username: str, passphrase: str,
                   lifetime: Optional[float] = None) -> ProxyCredential:
        entry = self._store.get(username)
        if entry is None:
            raise AuthenticationError(f"no credential stored for {username}")
        stored_pass, credential = entry
        if stored_pass != passphrase:
            raise AuthenticationError("bad MyProxy passphrase")
        if credential.expired(self.sim.now):
            raise AuthenticationError("stored credential has expired")
        short = delegate(credential, self.sim.now,
                         lifetime or self.DEFAULT_LIFETIME)
        self.sim.trace.log("myproxy", "issue", user=username,
                           expires=short.not_after)
        return short

    def handle_info(self, ctx, username: str) -> Optional[float]:
        entry = self._store.get(username)
        if entry is None:
            return None
        return entry[1].time_left(self.sim.now)

    def handle_destroy(self, ctx, username: str, passphrase: str) -> bool:
        entry = self._store.get(username)
        if entry is None:
            return False
        if entry[0] != passphrase:
            raise AuthenticationError("bad MyProxy passphrase")
        del self._store[username]
        return True
