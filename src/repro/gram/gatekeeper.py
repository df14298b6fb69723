"""The Globus Gatekeeper (paper Figure 1, §3.2).

The gatekeeper is the site's door: it GSI-authenticates every request,
maps the Grid identity to a local account through the gridmap, and
creates one JobManager per accepted submission.

Two-phase submission (GRAM-2 dialect co-designed with the UW team):

1. ``submit(seq, request)`` -- idempotent on ``(client, seq)``: a
   repeated sequence number returns the *cached* response instead of
   creating a second JobManager, which is how the resource distinguishes
   a lost request from a lost response.
2. ``commit(jmid)`` -- releases the JobManager to actually run the job.

The legacy single-phase ``submit_v1`` (no sequence numbers, immediate
commit) is kept as the baseline for the CLAIM-2PC benchmark: retrying it
can duplicate jobs, not retrying it can lose them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import Service, call
from .jobmanager import STATE_NS, JobManager
from .monitor import GridMonitor
from .protocol import GatekeeperBusy, GramJobRequest, Refusal


@dataclass(frozen=True)
class AdmissionPolicy:
    """Gatekeeper-side admission control (the §6 overload fix).

    Two independent gates, both refusing with a typed ``GatekeeperBusy``
    (``Refusal.RATE`` / ``Refusal.DEPTH``) that GridManagers turn into
    congestion backoff -- so a throttled client loses no attempts and
    simply retries later:

    * ``rate``/``burst``: a token bucket over *new* submissions
      (duplicates of an already-accepted submit always pass -- rejecting
      a retry of accepted work would break exactly-once).  ``rate`` is
      sustained submissions/second; ``burst`` is the bucket depth.
    * ``max_queue``: queue-depth backpressure.  A poller samples the
      LRM's queued-job count every ``poll_interval`` seconds; while the
      cached depth is at or above ``max_queue``, new submissions are
      refused at the door instead of piling up behind a saturated
      scheduler.

    ``None`` for either gate disables it.
    """

    rate: Optional[float] = None
    burst: int = 10
    max_queue: Optional[int] = None
    poll_interval: float = 10.0


class Gatekeeper(Service):
    """Service ``gatekeeper`` on a site's interface machine."""

    service_name = "gatekeeper"
    RETRY_AFTER = 60.0     # what a refusal tells the client to wait

    def __init__(
        self,
        host: Host,
        lrm_contact: str,
        authorizer=None,
        site: str = "",
        max_jobmanagers: Optional[int] = None,
        max_user_jobmanagers: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
    ):
        super().__init__(host, authorizer=authorizer)
        self.lrm_contact = lrm_contact
        self.site = site or host.name
        # Interface machines of the era melted under too many JobManager
        # processes; sites capped them and refused further submissions.
        # The global cap protects the machine; the per-user cap is the
        # fair-share layer (§5 reports a real incident where one user's
        # unthrottled submissions overloaded a gatekeeper for everyone).
        self.max_jobmanagers = max_jobmanagers
        self.max_user_jobmanagers = max_user_jobmanagers
        self.rejected_busy = 0
        self.rejected_user_busy = 0
        # live JobManagers per owner (None: in all), and every registered
        # one as owner -> {jmid: JobManager}; both kept by themselves
        self._live: Counter = Counter()
        self._jobmanagers: dict[str, dict[str, JobManager]] = {}
        # JobManager numbers continue from the state files on this
        # machine's disk (one per JobManager ever created, never
        # deleted), so a rebooted gatekeeper reissues no jmid.
        self._ids = itertools.count(len(host.stable.keys(STATE_NS)) + 1)
        # (client_host, seq) -> jmid: dedup cache for two-phase submits.
        # Volatile on purpose: a gatekeeper crash wipes it, and safety
        # then rests on the client-side stable log (§3.2).
        self._seen: dict[tuple[str, int], str] = {}
        # Admission state is volatile too: a reboot refills the token
        # bucket and starts a fresh depth poller.  JobManagers are *not*
        # revived at boot: per §4.2 it is the client (GridManager) that
        # detects their death and requests restarts.
        self.admission = admission
        self._tokens = float(admission.burst) if admission else 0.0
        self._token_stamp = self.sim.now
        self._lrm_depth = 0
        if admission is not None and admission.max_queue is not None:
            self.host.spawn(self._admission_depth_loop(),
                            name=f"gk-admission:{self.site}")

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(f"gatekeeper:{self.site}", event, **details)

    # -- admission control ---------------------------------------------------
    def _admission_depth_loop(self):
        """Sample the LRM's queue depth for the backpressure gate."""
        assert self.admission is not None
        me = self
        while self.host.get_service(self.name) is me and self.host.up:
            try:
                info = yield from call(self.host, self.lrm_contact, "lrm",
                                       "queue_info")
                self._lrm_depth = info["queued_jobs"]
            except RPCError:
                pass          # keep the last sample; retry next period
            yield self.sim.timeout(self.admission.poll_interval)

    def _busy(self, reason: Refusal, text: str,
              owner: Optional[str] = None) -> GatekeeperBusy:
        """The refusal to raise, charged to `owner` if it is theirs."""
        if owner is not None:       # SITE_JOBMANAGERS blames no user
            self.sim.metrics.counter(
                "gatekeeper.rejects_by_user").inc(label=owner)
        return GatekeeperBusy(reason, self.max_user_jobmanagers,
                              self.RETRY_AFTER,
                              f"gatekeeper {self.site} {text}")

    def _admit(self, owner: str, seq: int, client: str) -> None:
        """Both admission gates; raises GatekeeperBusy on rejection."""
        policy = self.admission
        if policy is None:
            return
        if policy.max_queue is not None and \
                self._lrm_depth >= policy.max_queue:
            self.sim.metrics.counter("gatekeeper.admission_rejects").inc(
                label="depth")
            self._trace("admission_rejected_depth", seq=seq, client=client,
                        owner=owner, depth=self._lrm_depth)
            raise self._busy(Refusal.DEPTH, "backpressure: LRM queue depth "
                             f"{self._lrm_depth} >= {policy.max_queue}", owner)
        if policy.rate is not None:
            now = self.sim.now
            self._tokens = min(float(policy.burst),
                               self._tokens
                               + (now - self._token_stamp) * policy.rate)
            self._token_stamp = now
            if self._tokens < 1.0:
                self.sim.metrics.counter(
                    "gatekeeper.admission_rejects").inc(label="rate")
                self._trace("admission_rejected_rate", seq=seq,
                            client=client, owner=owner)
                raise self._busy(Refusal.RATE, "submission rate limit "
                                 f"({policy.rate}/s)", owner)
            self._tokens -= 1.0
        self.sim.metrics.counter("gatekeeper.admission_admits").inc()

    # -- handlers -----------------------------------------------------------
    def handle_ping(self, ctx) -> str:
        """Liveness probe (GridManager failure detector, §4.2)."""
        return self.site

    def handle_submit(self, ctx, seq: int, request: GramJobRequest,
                      callback: Optional[tuple] = None) -> dict:
        """Phase 1 of two-phase submission; idempotent on (client, seq).
        Either answer states the per-user JobManager limit in force; a
        refusal is not cached, so the same seq is accepted later."""
        try:
            return self._submit(ctx, seq, request, callback)
        except GatekeeperBusy as busy:
            return {**vars(busy), "message": str(busy)}

    def _submit(self, ctx, seq, request, callback) -> dict:
        key = (ctx.caller_host, seq)
        owner = ctx.principal or ctx.caller_host
        jmid = self._seen.get(key)
        if jmid is None:
            # Admission first: duplicates of an accepted submit bypass it
            # (exactly-once), but brand-new work must pass both gates
            # before it can even reach the JobManager caps.
            self._admit(owner, seq, ctx.caller_host)
            if self.max_jobmanagers is not None and \
                    self._live[None] >= self.max_jobmanagers:
                self.rejected_busy += 1
                self.sim.metrics.counter("gatekeeper.submits").inc(
                    label="rejected_busy")
                self._trace("submit_rejected_busy", seq=seq,
                            client=ctx.caller_host, live=self._live[None])
                raise self._busy(
                    Refusal.SITE_JOBMANAGERS,
                    f"has all {self.max_jobmanagers} JobManagers it may")
            if self.max_user_jobmanagers is not None and \
                    self._live[owner] >= self.max_user_jobmanagers:
                self.rejected_user_busy += 1
                self.sim.metrics.counter("gatekeeper.submits").inc(
                    label="rejected_user_busy")
                self._trace("submit_rejected_user_busy", seq=seq,
                            client=ctx.caller_host, owner=owner,
                            live=self._live[owner])
                raise self._busy(
                    Refusal.USER_JOBMANAGERS, f"has all {owner}'s "
                    f"{self.max_user_jobmanagers} JobManagers", owner)
            jmid = f"{self.site}-jm{next(self._ids)}"
            self._seen[key] = jmid
            JobManager(
                self.host, jmid,
                lrm_contact=self.lrm_contact,
                request=request,
                client_callback=tuple(callback) if callback else None,
                owner=owner,
                credential=ctx.credential,
                live=self._live, table=self._jobmanagers,
            )
            self.sim.metrics.counter("gatekeeper.submits").inc(label="new")
            self.sim.metrics.counter("gatekeeper.submits_by_user").inc(
                label=owner)
            self._trace("jobmanager_created", jmid=jmid, seq=seq,
                        client=ctx.caller_host, owner=ctx.principal)
        else:
            self.sim.metrics.counter("gatekeeper.submits").inc(
                label="duplicate")
            self._trace("duplicate_submit", jmid=jmid, seq=seq,
                        client=ctx.caller_host)
        return {"jmid": jmid, "contact": self.host.name, "seq": seq,
                "user_limit": self.max_user_jobmanagers}

    def handle_submit_v1(self, ctx, request: GramJobRequest,
                         callback: Optional[tuple] = None) -> dict:
        """Legacy single-phase submission: NOT idempotent (baseline)."""
        jmid = f"{self.site}-jm{next(self._ids)}"
        jm = JobManager(
            self.host, jmid,
            lrm_contact=self.lrm_contact,
            request=request,
            client_callback=tuple(callback) if callback else None,
            owner=ctx.principal or ctx.caller_host,
            credential=ctx.credential,
            live=self._live, table=self._jobmanagers,
        )
        jm.handle_commit(ctx)    # immediate commit: no second phase
        self._trace("jobmanager_created_v1", jmid=jmid,
                    client=ctx.caller_host)
        return {"jmid": jmid, "contact": self.host.name}

    def handle_start_monitor(self, ctx, callback,
                             interval=None) -> dict:
        """Launch (or find) the caller's Grid Monitor on this machine.

        One monitor per (user, gatekeeper) pair, idempotent: a repeated
        request -- the client relaunches on heartbeat silence, and its
        request can race a live monitor -- returns the existing daemon.
        The monitor rides the same GSI door as a submission (``owner``
        is the gridmap-mapped principal, so it sees exactly the
        JobManagers created for this user), but *not* the admission
        token bucket: it is one daemon per user that replaces per-job
        polling, so admitting it under overload sheds load rather than
        adding any.  The answer states the report interval in force,
        which is what the client's staleness horizon is made of.
        """
        owner = ctx.principal or ctx.caller_host
        monitor = self.host.get_service(f"monitor:{owner}")
        started = monitor is None
        if started:
            monitor = GridMonitor(
                self.host, owner, tuple(callback),
                self._jobmanagers.setdefault(owner, {}), site=self.site,
                interval=interval)
            self.sim.metrics.counter("gatekeeper.monitors_started").inc()
            self._trace("monitor_started", owner=owner,
                        client=ctx.caller_host)
        return {"monitor": monitor.name, "site": self.site,
                "started": started, "interval": monitor.interval}

    def handle_restart_jobmanager(self, ctx, jmid: str) -> dict:
        """Revive a JobManager from its on-disk state file (GRAM-2)."""
        existing = self.host.get_service(f"jm:{jmid}")
        if existing is not None:
            return {"jmid": jmid, "contact": self.host.name,
                    "revived": False}
        if self.host.stable.namespace(STATE_NS).get(jmid) is None:
            raise KeyError(f"no state file for jobmanager {jmid}")
        JobManager(self.host, jmid, lrm_contact=self.lrm_contact,
                   credential=ctx.credential, restarted=True,
                   live=self._live, table=self._jobmanagers)
        self.sim.metrics.counter("gatekeeper.jm_restarts").inc()
        self._trace("jobmanager_restarted", jmid=jmid)
        return {"jmid": jmid, "contact": self.host.name, "revived": True}

    def handle_queue_info(self, ctx):
        """Expose the local scheduler's load (used by resource brokers)."""
        info = yield from call(self.host, self.lrm_contact, "lrm",
                               "queue_info")
        info["site"] = self.site
        return info
