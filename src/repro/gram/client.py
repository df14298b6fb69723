"""GRAM client library (what the GridManager speaks).

:class:`Gram2Client` implements the revised two-phase-commit protocol:

* every submit carries a fresh sequence number;
* the submit is retried with the *same* sequence number until a response
  arrives (the server deduplicates, so retries are safe);
* once the response is in hand, ``commit`` is retried until acknowledged
  (commit is idempotent server-side).

:class:`Gram1Client` is the legacy baseline: one-phase submission where
the client must choose between retrying (risking duplicate execution)
and not retrying (risking lost jobs).  The CLAIM-2PC benchmark sweeps
message-loss rates over both.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..sim.errors import RPCTimeout
from ..sim.hosts import Host
from ..sim.rpc import call
from .protocol import GatekeeperBusy, GramJobRequest


class GramClientError(Exception):
    """Submission gave up after exhausting retries."""


class Gram2Client:
    """Two-phase-commit GRAM client bound to one host + credential."""

    rpc_timeout = 10.0

    def __init__(
        self,
        host: Host,
        credential_source=None,
    ):
        self.host = host
        self.sim = host.sim
        self.credential_source = credential_source
        self.max_attempts = 8
        self._seq = itertools.count(1)

    def _credential(self, audience: str):
        if self.credential_source is None:
            return None
        return self.credential_source(audience)

    def next_seq(self) -> int:
        return next(self._seq)

    # -- protocol operations (yield-from generators) -------------------------
    def submit(self, gatekeeper: str, request: GramJobRequest,
               callback: Optional[tuple] = None,
               seq=None):
        """Two-phase submit; returns {'jmid', 'contact', 'seq'}."""
        response = yield from self.submit_phase1(gatekeeper, request,
                                                 callback=callback, seq=seq)
        yield from self.commit(response["contact"], response["jmid"])
        return response

    def submit_phase1(self, gatekeeper: str, request: GramJobRequest,
                      callback: Optional[tuple] = None, seq=None):
        """Phase 1 only (for callers that persist state between phases).

        ``seq`` may be any hashable token unique per logical submission;
        retries reuse it so the gatekeeper can deduplicate.  A refused
        answer is raised as :class:`GatekeeperBusy`.
        """
        if seq is None:
            seq = self.next_seq()
        response = None
        for attempt in range(self.max_attempts):
            self.sim.metrics.counter("gram.twophase_rpcs").inc(
                label="submit")
            try:
                response = yield from call(
                    self.host, gatekeeper, "gatekeeper", "submit",
                    timeout=self.rpc_timeout,
                    credential=self._credential(gatekeeper),
                    seq=seq, request=request, callback=callback)
                break
            except RPCTimeout:
                self.sim.trace.log("gram-client", "submit_retry",
                                   gatekeeper=gatekeeper, seq=seq,
                                   attempt=attempt + 1)
        if response is None:
            raise GramClientError(
                f"submit to {gatekeeper} failed after "
                f"{self.max_attempts} attempts (seq={seq})")
        if "reason" in response:
            raise GatekeeperBusy(**response)
        return response

    def commit(self, contact: str, jmid: str):
        """Phase 2: release the job; retried until acknowledged."""
        for attempt in range(self.max_attempts):
            self.sim.metrics.counter("gram.twophase_rpcs").inc(
                label="commit")
            try:
                yield from call(self.host, contact, f"jm:{jmid}", "commit",
                                timeout=self.rpc_timeout,
                                credential=self._credential(contact))
                return True
            except RPCTimeout:
                self.sim.trace.log("gram-client", "commit_retry",
                                   jmid=jmid, attempt=attempt + 1)
        raise GramClientError(
            f"commit of {jmid} failed after {self.max_attempts} attempts")

    def status(self, contact: str, jmids, done=()):
        """``{jmid: status}`` for those of our JobManagers `jmids` that
        run at `contact`, in one question to its gatekeeper: the §4.2
        probe of the site.  RPCTimeout means the gatekeeper is
        unresponsive; a jmid left out, that its JobManager is not.  The
        question carries the end commit of the jmids `done`."""
        result = yield from call(self.host, contact, "gatekeeper", "status",
                                 timeout=self.rpc_timeout,
                                 credential=self._credential(contact),
                                 jmids=tuple(jmids),
                                 **({"done": done} if done else {}))
        return result

    def restart_jobmanager(self, contact: str, jmid: str):
        result = yield from call(self.host, contact, "gatekeeper",
                                 "restart_jobmanager",
                                 timeout=self.rpc_timeout,
                                 credential=self._credential(contact),
                                 jmid=jmid)
        return result

    def start_monitor(self, contact: str, callback: tuple):
        """Ask the gatekeeper for a Grid Monitor reporting to `callback`.

        Idempotent server-side (one monitor per user per gatekeeper);
        the caller retries on its own schedule -- heartbeat staleness,
        not RPC retry loops, drives relaunching.
        """
        result = yield from call(self.host, contact, "gatekeeper",
                                 "start_monitor",
                                 timeout=self.rpc_timeout,
                                 credential=self._credential(contact),
                                 callback=tuple(callback))
        return result

    def cancel(self, contact: str, jmid: str):
        result = yield from call(self.host, contact, f"jm:{jmid}", "cancel",
                                 timeout=self.rpc_timeout,
                                 credential=self._credential(contact))
        return result

    def update_env(self, contact: str, jmid: str, name: str, value):
        result = yield from call(self.host, contact, f"jm:{jmid}",
                                 "update_env",
                                 timeout=self.rpc_timeout,
                                 credential=self._credential(contact),
                                 name=name, value=value)
        return result


class Gram1Client:
    """Legacy one-phase GRAM client (benchmark baseline).

    ``retry=True`` resends the whole submission on timeout (at-least-once:
    may duplicate); ``retry=False`` gives up on first timeout
    (at-most-once: may lose).
    """

    rpc_timeout = 10.0

    def __init__(self, host: Host, retry: bool, credential_source=None,
                 max_attempts: int = 8):
        self.host = host
        self.sim = host.sim
        self.retry = retry
        self.credential_source = credential_source
        self.max_attempts = max_attempts if retry else 1

    def _credential(self, audience: str):
        if self.credential_source is None:
            return None
        return self.credential_source(audience)

    def submit(self, gatekeeper: str, request: GramJobRequest,
               callback: Optional[tuple] = None):
        for attempt in range(self.max_attempts):
            try:
                response = yield from call(
                    self.host, gatekeeper, "gatekeeper", "submit_v1",
                    timeout=self.rpc_timeout,
                    credential=self._credential(gatekeeper),
                    request=request, callback=callback)
                return response
            except RPCTimeout:
                self.sim.trace.log("gram-client-v1", "submit_retry",
                                   gatekeeper=gatekeeper,
                                   attempt=attempt + 1)
        raise GramClientError(
            f"v1 submit to {gatekeeper} failed "
            f"after {self.max_attempts} attempt(s)")
