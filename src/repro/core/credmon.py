"""Credential lifetime management (paper §4.3).

The agent "periodically analyzes the credentials for all users with
currently queued jobs"; on (approaching) expiry it holds affected jobs,
e-mails the user, and -- once the proxy is refreshed, by hand or from a
MyProxy server -- releases the holds and re-forwards the fresh proxy to
every remote JobManager.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..gsi.proxy import ProxyCredential
from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import call

if TYPE_CHECKING:  # pragma: no cover
    from .gridmanager import GridManager

PROXY_NS = "condorg-proxy"    # the proxy file grid-proxy-init writes


class CredentialMonitor:
    """Watches one user's proxy; drives hold/notify/refresh/re-forward."""

    SCAN_INTERVAL = 30.0

    def __init__(
        self,
        gridmanager: "GridManager",
        host: Host,
        user: str,
        warn_threshold: float = 3600.0,
        myproxy: Optional[dict] = None,    # {host, username, passphrase,
                                           #  lifetime}
    ):
        self.gridmanager = gridmanager
        self.host = host
        self.sim = host.sim
        self.user = user
        # The proxy lives in a file on the submit machine's disk: a
        # monitor built after a reboot reads whichever proxy was current.
        self._file = host.stable.namespace(f"{PROXY_NS}:{user}")
        self._proxy: ProxyCredential = self._file.get("proxy")
        self.warn_threshold = warn_threshold
        self.myproxy = myproxy
        self._warned = False
        host.spawn(self._scan_loop(), name=f"credmon:{user}")

    @property
    def proxy(self) -> ProxyCredential:
        return self._proxy

    @proxy.setter
    def proxy(self, proxy: ProxyCredential) -> None:
        self._proxy = proxy
        self._file.put("proxy", proxy)

    # -- the credential the rest of the agent uses -------------------------------
    def credential_source(self, audience: str):
        """Fresh signing proof from the current proxy (None if expired)."""
        if self.proxy.expired(self.sim.now):
            return None
        return self.proxy.signing_proof(self.sim.now, audience=audience)

    def time_left(self) -> float:
        return self.proxy.time_left(self.sim.now)

    # -- user-facing refresh (grid-proxy-init) -----------------------------------
    def refresh(self, proxy: ProxyCredential) -> None:
        """The user ran the 'simple tool' to create a fresh proxy."""
        self.proxy = proxy
        self._warned = False
        self.sim.trace.log("credmon", "refreshed", user=self.user,
                           expires=proxy.not_after)
        self.host.spawn(self._after_refresh(), name=f"reforward:{self.user}")

    # -- scanning -----------------------------------------------------------
    def _scan_loop(self):
        while True:
            yield self.sim.timeout(self.SCAN_INTERVAL)
            remaining = self.time_left()
            if remaining <= 0:
                yield from self._handle_expired()
            elif remaining < self.warn_threshold and not self._warned:
                self._warned = True
                self.gridmanager.queue.notifier.email(
                    self.sim.now, subject="credential expiry warning",
                    body=f"proxy expires in {remaining:.0f}s; refresh soon")
                self.sim.trace.log("credmon", "warn", user=self.user,
                                   remaining=remaining)

    def _handle_expired(self):
        held = self.gridmanager.hold_for_credentials(
            "proxy credential expired")
        if held:
            self.gridmanager.queue.notifier.email(
                self.sim.now, subject="jobs held: credential expired",
                body=f"{held} job(s) cannot run again until you refresh "
                     f"your credentials (grid-proxy-init or MyProxy)")
        if self.myproxy is not None:
            yield from self._myproxy_refresh()

    def _myproxy_refresh(self):
        cfg = self.myproxy
        try:
            fresh = yield from call(
                self.host, cfg["host"], "myproxy", "get",
                username=cfg["username"], passphrase=cfg["passphrase"],
                lifetime=cfg.get("lifetime"))
        except RPCError as exc:
            self.sim.trace.log("credmon", "myproxy_failed", user=self.user,
                               error=str(exc))
            return
        self.proxy = fresh
        self._warned = False
        self.sim.trace.log("credmon", "myproxy_refreshed", user=self.user,
                           expires=fresh.not_after)
        yield from self._reforward_and_release()

    def _after_refresh(self):
        yield from self._reforward_and_release()

    def _reforward_and_release(self):
        """Re-forward the fresh proxy to all remote JobManagers (§4.3)."""
        for job in self.gridmanager.jobs_for_user():
            if job.committed and job.jmid and not job.is_terminal:
                try:
                    yield from call(
                        self.host, job.contact, f"jm:{job.jmid}",
                        "refresh_credential",
                        credential=self.credential_source(job.contact))
                    self.sim.trace.log("credmon", "reforwarded",
                                       job=job.job_id)
                except RPCError:
                    pass
        self.gridmanager.release_credential_holds()
