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

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from ..sim.hosts import Host
from ..sim.rpc import Service, call
from ..sim.stats import by, fold
from .jobmanager import REQUEST_NS, STATE_NS, JobManager
from .monitor import GridMonitor, statuses
from .protocol import (GRAM_TERMINAL, GatekeeperBusy, GramJobRequest,
                       Refusal)

ISSUED_NS = "gram-jmids"    # the high-water mark of the jmids issued here

for _event in ("admission_rejected_depth", "admission_rejected_rate",
               "submit_rejected_user_busy"):
    fold("gatekeeper", _event, "gatekeeper.rejects_by_user", by("owner"))
for _event, _label in (("admission_rejected_depth", "depth"),
                       ("admission_rejected_rate", "rate")):
    fold("gatekeeper", _event, "gatekeeper.admission_rejects",
         lambda c, r, label=_label: c.inc(label=label))
for _event, _label in (("submit_rejected_busy", "rejected_busy"),
                       ("submit_rejected_user_busy", "rejected_user_busy"),
                       ("jobmanager_created", "new"),
                       ("duplicate_submit", "duplicate")):
    fold("gatekeeper", _event, "gatekeeper.submits",
         lambda c, r, label=_label: c.inc(label=label))
fold("gatekeeper", "monitor_started", "gatekeeper.monitors_started")
fold("gatekeeper", "jobmanager_restarted", "gatekeeper.jm_restarts")


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
      LRM's queued-job count every ``Gatekeeper.DEPTH_POLL`` seconds;
      while the cached depth is at or above ``max_queue``, new
      submissions are refused at the door instead of piling up behind a
      saturated scheduler.

    ``None`` for either gate disables it.
    """

    rate: Optional[float] = None
    burst: int = 10
    max_queue: Optional[int] = None


def _callback(value) -> tuple[str, str]:
    """The (host, service) a client asks to be called back at, checked at
    the door: a malformed one is the caller's error, answered now, not a
    crash of the daemon that would later dial it."""
    if isinstance(value, tuple) and len(value) == 2 and \
            all(isinstance(part, str) for part in value):
        return value
    raise ValueError(
        f"callback must be a (host, service) pair of str, not {value!r}")


def _request(value) -> GramJobRequest:
    """The job a client asks for, checked at the door like its callback:
    the JobManager that would run anything else dies at its commit."""
    if isinstance(value, GramJobRequest):
        return value
    raise TypeError(
        f"request must be a GramJobRequest, not {type(value).__name__}")


class Gatekeeper(Service):
    """Service ``gatekeeper`` on a site's interface machine."""

    service_name = "gatekeeper"
    RETRY_AFTER = 60.0     # the wait a JobManager-cap refusal states
    DEPTH_POLL = 10.0      # seconds between two LRM queue-depth samples

    def __init__(
        self,
        host: Host,
        lrm_contact: str,
        authorizer=None,
        site: str = "",
        max_user_jobmanagers: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
    ):
        super().__init__(host, authorizer=authorizer)
        self.lrm_contact = lrm_contact
        self.site = site or host.name
        # Interface machines of the era melted under too many JobManager
        # processes; sites capped them and refused further submissions.
        # The global cap protects the machine (no cap until a site's
        # operator sets one); the per-user cap is the fair-share layer
        # (§5 reports a real incident where one user's unthrottled
        # submissions overloaded a gatekeeper for everyone).
        self.max_jobmanagers: Optional[int] = None
        self.max_user_jobmanagers = max_user_jobmanagers
        # live JobManagers per owner (None: in all), and every registered
        # one as owner -> {jmid: JobManager}; both kept by themselves
        self._live: Counter = Counter()
        self._jobmanagers: dict[str, dict[str, JobManager]] = {}
        # JobManager numbers continue from the high-water mark on this
        # machine's disk (state files go with end commits), so a
        # rebooted gatekeeper reissues no jmid.
        self._issued = host.stable.get(ISSUED_NS, "jmid", 0)
        self._states = host.stable.namespace(STATE_NS)
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
        self._next_sample = self.sim.now    # the depth sample's, when due
        if admission is not None and admission.max_queue is not None:
            self.call_at(self.sim.now, self._sample_depth)

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(f"gatekeeper:{self.site}", event, **details)

    # -- admission control ---------------------------------------------------
    def _sample_depth(self, _=None) -> None:
        """Sample the LRM's queue depth for the backpressure gate."""
        self.call_then(self.lrm_contact, "lrm", "queue_info", self._sampled)

    def _sampled(self, request) -> None:
        if request.error is None:
            self._lrm_depth = request.value["queued_jobs"]
        # else keep the last sample; retry next period
        self._next_sample = self.sim.now + self.DEPTH_POLL
        self.call_at(self._next_sample, self._sample_depth)

    def _busy(self, reason: Refusal, text: str,
              retry_after: float) -> GatekeeperBusy:
        """The refusal to raise (its record charges the owner it names)."""
        return GatekeeperBusy(reason, self.max_user_jobmanagers,
                              retry_after, f"gatekeeper {self.site} {text}")

    def _admit(self, owner: str, seq: int, client: str) -> None:
        """Both admission gates; raises GatekeeperBusy on rejection."""
        policy = self.admission
        if policy is None:
            return
        if policy.max_queue is not None and \
                self._lrm_depth >= policy.max_queue:
            self._trace("admission_rejected_depth", seq=seq, client=client,
                        owner=owner, depth=self._lrm_depth)
            # until the next sample (one in flight lands within a round
            # trip: the one after it is sure)
            wait = self._next_sample - self.sim.now
            raise self._busy(Refusal.DEPTH, "backpressure: LRM queue depth "
                             f"{self._lrm_depth} >= {policy.max_queue}",
                             wait if wait > 0 else self.DEPTH_POLL)
        if policy.rate is not None:
            now = self.sim.now
            self._tokens = min(float(policy.burst),
                               self._tokens
                               + (now - self._token_stamp) * policy.rate)
            self._token_stamp = now
            if self._tokens < 1.0:
                self._trace("admission_rejected_rate", seq=seq,
                            client=client, owner=owner)
                raise self._busy(Refusal.RATE, "submission rate limit "
                                 f"({policy.rate}/s)",
                                 (1.0 - self._tokens) / policy.rate)
            self._tokens -= 1.0
        self.sim.metrics.counter("gatekeeper.admission_admits").inc()

    def _new_jmid(self) -> str:
        self._issued += 1
        self.host.stable.put(ISSUED_NS, "jmid", self._issued)
        return f"{self.site}-jm{self._issued}"

    def _end_commit(self, owner: str, jmid: str) -> None:
        """The agent has recorded the end of `owner`'s `jmid`: if that
        JobManager is GRAM-terminal, it goes with both its records.  Any
        other jmid (running, unknown, someone else's) changes nothing."""
        record = self._states.get(jmid)
        if record is None or record["owner"] != owner or \
                record["state"] not in GRAM_TERMINAL:
            return
        jobmanager = self.host.get_service(f"jm:{jmid}")
        if jobmanager is not None:
            jobmanager.leave("end commit")
        self._states.delete(jmid)
        self.host.stable.delete(REQUEST_NS, jmid)

    # -- handlers -----------------------------------------------------------
    def handle_status(self, ctx, jmids: tuple, done: tuple = ()) -> dict:
        """``{jmid: status}`` for each of the caller's `jmids` registered
        here: the §4.2 probe of the whole site.  A jmid left out has no
        JobManager running (crashed, lost with a reboot, or retired).
        `done` is the end commit of each jmid whose end the caller has
        recorded (GRAM's second commit)."""
        owner = ctx.principal or ctx.caller_host
        for jmid in done:
            self._end_commit(owner, jmid)
        return statuses(self._jobmanagers.get(owner, {}), jmids)

    def handle_submit(self, ctx, seq: int, request: GramJobRequest,
                      callback: Optional[tuple] = None) -> dict:
        """Phase 1 of two-phase submission; idempotent on (client, seq).
        Either answer states the per-user JobManager limit in force; a
        refusal is not cached, so the same seq is accepted later."""
        request = _request(request)
        if callback is not None:
            callback = _callback(callback)
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
                self._trace("submit_rejected_busy", seq=seq,
                            client=ctx.caller_host, live=self._live[None])
                raise self._busy(
                    Refusal.SITE_JOBMANAGERS,
                    f"has all {self.max_jobmanagers} JobManagers it may",
                    self.RETRY_AFTER)
            if self.max_user_jobmanagers is not None and \
                    self._live[owner] >= self.max_user_jobmanagers:
                self._trace("submit_rejected_user_busy", seq=seq,
                            client=ctx.caller_host, owner=owner,
                            live=self._live[owner])
                raise self._busy(
                    Refusal.USER_JOBMANAGERS, f"has all {owner}'s "
                    f"{self.max_user_jobmanagers} JobManagers",
                    self.RETRY_AFTER)
            jmid = self._new_jmid()
            self._seen[key] = jmid
            JobManager(
                self.host, jmid,
                lrm_contact=self.lrm_contact,
                request=request,
                client_callback=callback,
                owner=owner,
                credential=ctx.credential,
                live=self._live, table=self._jobmanagers,
            )
            self.sim.metrics.counter("gatekeeper.submits_by_user").inc(
                label=owner)
            self._trace("jobmanager_created", jmid=jmid, seq=seq,
                        client=ctx.caller_host, owner=ctx.principal)
        else:
            self._trace("duplicate_submit", jmid=jmid, seq=seq,
                        client=ctx.caller_host)
        return {"jmid": jmid, "contact": self.host.name, "seq": seq,
                "user_limit": self.max_user_jobmanagers}

    def handle_submit_v1(self, ctx, request: GramJobRequest,
                         callback: Optional[tuple] = None) -> dict:
        """Legacy single-phase submission: NOT idempotent (baseline)."""
        request = _request(request)
        if callback is not None:
            callback = _callback(callback)
        jmid = self._new_jmid()
        jm = JobManager(
            self.host, jmid,
            lrm_contact=self.lrm_contact,
            request=request,
            client_callback=callback,
            owner=ctx.principal or ctx.caller_host,
            credential=ctx.credential,
            live=self._live, table=self._jobmanagers,
        )
        jm.handle_commit(ctx)    # immediate commit: no second phase
        self._trace("jobmanager_created_v1", jmid=jmid,
                    client=ctx.caller_host)
        return {"jmid": jmid, "contact": self.host.name}

    def handle_start_monitor(self, ctx, callback: tuple[str, str]) -> dict:
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
        callback = _callback(callback)
        owner = ctx.principal or ctx.caller_host
        monitor = self.host.get_service(f"monitor:{owner}")
        started = monitor is None
        if started:
            monitor = GridMonitor(
                self.host, owner, callback,
                self._jobmanagers.setdefault(owner, {}), site=self.site)
            self._trace("monitor_started", owner=owner,
                        client=ctx.caller_host)
        return {"monitor": monitor.name, "site": self.site,
                "started": started, "interval": monitor.interval}

    def handle_restart_jobmanager(self, ctx, jmid: str) -> dict:
        """Revive a JobManager from its on-disk state file (GRAM-2); the
        answer carries its status."""
        jobmanager = self.host.get_service(f"jm:{jmid}")
        revived = jobmanager is None
        if revived:
            if self._states.get(jmid) is None:
                raise KeyError(f"no state file for jobmanager {jmid}")
            jobmanager = JobManager(
                self.host, jmid, lrm_contact=self.lrm_contact,
                credential=ctx.credential, restarted=True,
                live=self._live, table=self._jobmanagers)
            self._trace("jobmanager_restarted", jmid=jmid)
        return {"jmid": jmid, "contact": self.host.name, "revived": revived,
                "status": jobmanager.status}

    def handle_queue_info(self, ctx):
        """Expose the local scheduler's load (used by resource brokers)."""
        info = yield from call(self.host, self.lrm_contact, "lrm",
                               "queue_info")
        return {**info, "site": self.site}
