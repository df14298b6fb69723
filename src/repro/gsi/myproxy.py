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

    The one RPC method is ``get(username, passphrase, lifetime)``: a
    fresh short-lived delegation of the stored credential.  The user
    deposits the long-lived proxy out of band (``myproxy-init``), which
    the testbed does by writing ``_store`` when it builds an agent.
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

