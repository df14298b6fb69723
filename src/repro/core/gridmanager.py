"""The GridManager daemon (paper §4.2, Figure 1).

One GridManager per user, created by the Scheduler when grid-universe
jobs enter the queue, terminating when none remain.  It owns the whole
remote lifecycle:

* **submission** via the two-phase GRAM protocol, persisting the sequence
  token before phase 1 and the JobManager contact before phase 2, so a
  submit-machine crash at *any* point resumes without duplicating or
  losing the job;
* **failure detection** per :class:`RemoteSite`: each site's own watch
  process asks its gatekeeper about all of our JobManagers there in one
  ``status`` -- the §4.2 probe.  One in the answer is alive; one left
  out died under a live gatekeeper and is restarted; a silent site (crash
  or partition, indistinguishable) delays only its own jobs, to the next
  pass; a refused credential holds them (§5).  A site whose Grid Monitor
  reports is asked only about what the report missed;
* **resubmission** of jobs that failed for transient, non-application
  reasons;
* **job state**, which arrives by status callback (a sink service), by
  Grid Monitor report, or in the answer to the probe -- all three
  through ``_apply_remote_state``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..gram.client import Gram2Client, GramClientError
from ..gram.protocol import GatekeeperBusy, Refusal
from ..sim.errors import (
    AuthenticationError,
    AuthorizationError,
    RemoteError,
    RPCError,
)
from ..sim.hosts import Host
from ..sim.rpc import Service, call
from . import job as J
from .job import GridJob

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import CondorGScheduler

# Failure reasons worth resubmitting (infrastructure, not the app).
_TRANSIENT_PREFIXES = (
    "stage-in failed",
    "local scheduler submission failed",
    "commit window expired",
    "jobmanager crashed",
)


def _is_transient(reason: str) -> bool:
    return any(reason.startswith(p) for p in _TRANSIENT_PREFIXES)


class RemoteSite:
    """What the agent knows of one gatekeeper contact.

    The scheduler's index keeps `inflight` and `watchable` (job ids) in
    step with every write; the rest is the GridManager's, and volatile
    like it: the per-user limit the site last stated, until when a
    refusal closed it, whether a job of the submit pass waits for room
    here, the Grid Monitor's heartbeat, last launch and suspects, and
    the site's watch process.
    """

    def __init__(self, contact: str):
        self.contact = contact
        self.inflight: set[str] = set()     # STAGING..ACTIVE here
        self.watchable: set[str] = set()    # committed PENDING/ACTIVE here
        self.stated: Optional[int] = None
        self.busy_until = 0.0
        self.waiting = False
        # last report or launch, and the horizon its stated interval gives
        self.beat = (0.0, -1.0)
        self.launched: Optional[float] = None
        self.suspects: set[str] = set()     # jmids the last report missed
        self.watcher = None
        self.wake = None        # set while the watcher is parked

    def room(self, cap: Optional[int], now: float) -> bool:
        """The site is open at `now`, and in flight here is below `cap`
        (ours) and the site's limit."""
        if now < self.busy_until:
            return False
        if self.stated is not None and (cap is None or self.stated < cap):
            cap = self.stated
        return cap is None or len(self.inflight) < cap

    def fresh(self, now: float) -> bool:
        """Has the site's monitor reported (or been launched) recently?"""
        last, horizon = self.beat
        return now - last <= horizon


class GridManager(Service):
    """Callback sink + the per-user submission/probing machinery."""

    # The one status period (§4.2): how often each site with watchable
    # jobs is asked about them.
    PROBE_INTERVAL = 30.0
    # How often the submit loop asks the broker again while a job waits
    # on it (it named no site with room); a job that waits for room
    # waits for a slot, or for its closed site to reopen.
    SUBMIT_RETRY_INTERVAL = 20.0
    # With ``grid_monitor`` set, a site's heartbeat is stale once this
    # many of its monitor's stated report intervals pass in silence:
    # status asks resume and, while jobs are in flight there, the monitor
    # is relaunched (with a cooldown so a dead gatekeeper isn't hammered).
    MONITOR_MISS_FACTOR = 2.5
    MONITOR_START_COOLDOWN = 60.0

    def __init__(
        self,
        scheduler: "CondorGScheduler",
        user: str,
        host: Host,
    ):
        self.callback_service = f"gramcb:{user}"
        super().__init__(host, name=self.callback_service)
        # The scheduler owns the agent's configuration -- credential
        # source, fair-share throttle, data services -- and is read at
        # each use: a GridManager spawned by queue recovery exists
        # before the agent finishes wiring it.
        self.scheduler = scheduler
        self.queue = scheduler.queue
        self.user = user
        self.sites = scheduler.sites
        self.client = Gram2Client(host, credential_source=self._credential)
        self.exited = False
        self._waiting_jobs: set[str] = set()    # who waits for room
        self._on_broker = False     # one of them waits on the broker
        self._again = False     # a waited-for slot freed during the pass
        self._wake = self.sim.event(name=f"gm-wake:{user}")
        self._procs = [
            host.spawn(self._submit_loop(), name=f"gridmanager:{user}")]
        self.sim.trace.log("gridmanager", "start", user=user)
        for site in self.sites.values():
            if site.watchable:      # recovered from the queue
                self.watch(site)

    # -- plumbing -----------------------------------------------------------
    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log("gridmanager", event, user=self.user, **details)

    def kick(self) -> None:
        if not self._wake.triggered and not self._wake._scheduled:
            self._wake.succeed(None)

    def room(self, contact: str) -> bool:
        """`contact` is open, and in flight there is below our cap and
        the site's."""
        return self.scheduler.site(contact).room(
            self.scheduler.max_submitted_per_resource, self.sim.now)

    def slot_freed(self, site: RemoteSite) -> None:
        """In flight at `site` dropped, or its stated limit moved: if a
        job waits there, look again -- now, or after the running pass."""
        if site.waiting:
            self._again = True
            self.kick()

    def _wait_for_room(self, job: GridJob, *contacts: str) -> None:
        """A slot freed at any of `contacts` wakes `job`; the throttle
        counts the first, where it would have gone, once per pass."""
        self._waiting_jobs.add(job.job_id)
        sites = [self.scheduler.site(contact) for contact in contacts]
        if not sites[0].waiting:
            self.sim.metrics.counter("gridmanager.submit_throttled").inc(
                label=contacts[0])
        for site in sites:
            site.waiting = True

    def _learn_limit(self, contact: str, limit: Optional[int]) -> None:
        site = self.scheduler.site(contact)
        if site.stated != limit:
            site.stated = limit
            self.slot_freed(site)    # if it rose, that is room

    def watch(self, site: RemoteSite) -> None:
        """`site` just got a watchable job: start its watcher, or rouse
        it if parked."""
        if self.exited:
            return
        if site.watcher is None:
            site.watcher = self.host.spawn(
                self._watch_site(site),
                name=f"gm-watch:{self.user}@{site.contact}")
            self._procs.append(site.watcher)
        wake, site.wake = site.wake, None
        if wake is not None:
            wake.succeed(None)

    # -- submission ------------------------------------------------------------
    def _submit_loop(self):
        while not self.exited:
            self._again = self._on_broker = False
            yield from self._submit_pass()
            if self._check_all_done():
                return
            if self._again or not (self.queue.ids_in(J.UNSUBMITTED)
                                   <= self._waiting_jobs):
                # a slot someone waits for freed, or a job (re)entered
                # UNSUBMITTED, while the pass ran: its kick found no one
                continue
            self._wake = self.sim.event(name=f"gm-wake:{self.user}")
            # Every transition into UNSUBMITTED and every freed slot kicks
            # the wake event: a pure wait cannot miss work.  One timer
            # covers the rest: the earliest reopening of a closed site
            # some job waits at, or the broker's retry tick.
            now = self.sim.now
            times = [site.busy_until for site in self.sites.values()
                     if site.waiting and site.busy_until > now]
            if self._on_broker:
                times.append(now + self.SUBMIT_RETRY_INTERVAL)
            yield self.sim.any_of([self._wake, self.sim.timeout(
                min(times) - now)]) if times else self._wake

    def _submit_pass(self):
        """The UNSUBMITTED jobs as the queue stands, in job_id order,
        each into room; a broker that said "nowhere" rests until a
        submission of this pass has yielded."""
        for site in self.sites.values():
            site.waiting = False
        self._waiting_jobs.clear()
        nowhere = False
        for jid in sorted(self.queue.ids_in(J.UNSUBMITTED)):
            job = self.queue.jobs[jid]
            if job.state != J.UNSUBMITTED:
                continue
            if job.resource and not self.room(job.resource):
                if self.scheduler.broker is None:
                    self._wait_for_room(job, job.resource)
                    continue
                job.resource = ""   # full: the broker may know better
            if not job.resource:
                if self.scheduler.broker is None or nowhere:
                    # nowhere to send it: a kick (a submission that
                    # yielded, a freed slot, a user) brings it back
                    self._waiting_jobs.add(job.job_id)
                    continue
                asked: dict[str, bool] = {}     # contact -> had room
                resource = yield from self.scheduler.broker.pick(
                    job, lambda c: asked.setdefault(c, self.room(c)))
                if resource is None or not self.room(resource):
                    # All candidates full: a freed slot wakes us.  None,
                    # or one out of reach: the retry tick looks again.
                    if resource is None and asked and \
                            not any(asked.values()):
                        self._wait_for_room(job, *asked)
                        nowhere = True
                    else:
                        self._waiting_jobs.add(job.job_id)
                        self._on_broker = True
                    continue
                job.resource = resource
            yield from self._submit_one(job)
            nowhere = False

    def _submit_one(self, job: GridJob):
        if job.request.input_datasets and \
                self.scheduler.data_services is not None:
            ok = yield from self._stage_inputs_for(job)
            if not ok:
                return
        attempt_start = self.sim.now
        job.attempts += 1
        job.seq = f"{job.job_id}/{job.attempts}"
        job.submit_time = job.submit_time or self.sim.now
        self.queue.transition(job, J.SUBMITTING, "submit",
                              resource=job.resource, attempt=job.attempts)
        failure, contact = None, job.resource
        try:
            response = yield from self.client.submit_phase1(
                contact, job.request, seq=job.seq,
                callback=(self.host.name, self.callback_service))
            self._learn_limit(contact, response["user_limit"])
        except GatekeeperBusy as busy:
            failure = busy
            self._learn_limit(contact, busy.user_limit)
        except (GramClientError, RPCError) as exc:
            failure = exc
        if job.state != J.SUBMITTING:
            # Superseded while phase 1 was in flight: the user removed
            # the job, or a stale report for an earlier attempt reclaimed
            # it (it is UNSUBMITTED again, or terminal).  Walk away -- a
            # JobManager we just created is uncommitted, so it times
            # out and cleans up site-side; committing it here would
            # pin the job to an attempt the scheduler has disowned.
            self._trace("submit_superseded", job=job.job_id, seq=job.seq)
            return
        if isinstance(failure, GatekeeperBusy):
            # Congestion, not failure: no attempt is consumed; the job
            # waits for room here.  A refusal our count cannot explain
            # (the site counts a held job's JobManager, or refused for
            # another reason) closes the site for as long as it says.
            job.attempts -= 1
            site = self.scheduler.site(contact)
            if failure.reason != Refusal.USER_JOBMANAGERS or \
                    len(site.inflight) <= failure.user_limit:
                site.busy_until = self.sim.now + failure.retry_after
                self._trace("gatekeeper_busy_backoff", job=job.job_id,
                            contact=contact, until=site.busy_until)
            self.queue.transition(job, J.UNSUBMITTED)
            self._wait_for_room(job, contact)
            return
        if failure is not None:
            self._submission_failed(job, failure, phase="phase1")
            return
        job.jmid = jmid = response["jmid"]
        job.contact = response["contact"]
        self.queue.persist(job)
        try:
            yield from self.client.commit(job.contact, jmid)
        except (GramClientError, RPCError) as exc:
            failure = exc
        if job.jmid != jmid or job.is_terminal:
            # Superseded while phase 2 was in flight: commit retries can
            # outlast the attempt (a late failure callback reclaimed the
            # job, or a callback finished it).  Whatever the commit's
            # fate, it is about a dead attempt.
            self._trace("submit_superseded", job=job.job_id, seq=job.seq)
            return
        if isinstance(failure, (AuthenticationError, AuthorizationError)):
            self.scheduler.credential_problem(job, str(failure))
            return
        job.committed = True
        if job.state == J.SUBMITTING:
            # Only forward: a callback may already have reported
            # PENDING/ACTIVE while the commit ACK was in flight.
            self.queue.transition(job, J.PENDING)
        else:
            self.queue.persist(job)
        if failure is not None:
            # A lost commit *ACK* is indistinguishable from a lost
            # commit: the JobManager may have received phase 2 and
            # already be running the job, so resubmitting here would
            # break exactly-once.  Park the job under the §4.2 probe
            # machinery instead -- a restarted JobManager resumes from
            # its state file (or reports the job finished), and one
            # with no state file never ran anything, which *is* safe
            # to resubmit (the probe path does exactly that).
            self.sim.metrics.counter("gridmanager.submit_failures").inc(
                label="commit")
            self._trace("commit_unacknowledged", job=job.job_id,
                        jmid=jmid, reason=str(failure))
            return
        self.sim.metrics.counter("gridmanager.submits").inc()
        self.sim.metrics.histogram("gridmanager.submit_latency").observe(
            self.sim.now - attempt_start)
        self._trace("submitted", job=job.job_id, jmid=job.jmid,
                    resource=job.resource)
        self._ensure_monitor(self.scheduler.site(job.contact))

    # -- data placement (repro.data) -----------------------------------------
    def _credential(self, audience: str):
        source = self.scheduler.credential_source
        return None if source is None else source(audience)

    def _stage_inputs_for(self, job: GridJob):
        """Place the job's input datasets at its site's SE.  True = go on
        to GRAM submission; False = the job left the submission path
        (failed staging and was resubmitted/failed, or was superseded).
        """
        self.queue.transition(
            job, J.STAGING, "stage_in", resource=job.resource,
            datasets=len(job.request.input_datasets))
        started = self.sim.now
        try:
            staged = yield from self._stage_inputs(job)
        except (RPCError, RuntimeError) as exc:
            # Same transient treatment as a remote stage-in failure,
            # plus a breather so a dead SE/catalog is not hammered: the
            # SE is the site's, so the site closes.
            job.attempts += 1
            self.scheduler.site(job.resource).busy_until = self.sim.now + 30
            self._remote_failure(job, f"stage-in failed: {exc}")
            return False
        if job.state != J.STAGING:
            return False    # cancelled/held while transfers ran
        self.sim.metrics.histogram("gridmanager.stage_in_time").observe(
            self.sim.now - started)
        if staged:
            self.sim.metrics.counter("gridmanager.stage_in_bytes").inc(
                staged, label=job.resource)
        self._trace("staged_in", job=job.job_id, resource=job.resource,
                    moved=staged)
        return True

    def _stage_inputs(self, job: GridJob):
        """Move each missing input dataset to the site's SE; returns the
        bytes actually transferred (0 = everything was already local)."""
        from ..data.catalog import dataset_path

        data = self.scheduler.data_services
        se = data.storage_element(job.resource)
        if not se:
            raise RuntimeError(f"no storage element at {job.resource}")
        moved = 0
        for name in job.request.input_datasets:
            entry = yield from call(
                self.host, data.catalog_host, "rls", "lookup",
                timeout=30.0,
                credential=self._credential(data.catalog_host),
                name=name)
            replicas = entry["replicas"]
            if se in replicas:
                self.sim.metrics.counter("gridmanager.stage_in_hits").inc(
                    label=se)
                continue
            if not replicas:
                raise RuntimeError(f"dataset {name!r} has no replicas")
            src_se = sorted(replicas)[0]
            result = yield from call(
                self.host, data.dts_host, "dts", "transfer",
                timeout=14_400.0,
                credential=self._credential(data.dts_host),
                src_url=replicas[src_se], dst_host=se,
                dst_path=dataset_path(name), dataset=name,
                expected_checksum=entry["checksum"])
            moved += result["size"]
        return moved

    def _stage_out_datasets(self, job: GridJob):
        """Archive the finished job's output datasets at its site's SE.

        Runs as its own process after the remote DONE: the job sits in
        STAGING_OUT (non-terminal, so the GridManager stays alive and
        ``run_until_quiet`` waits) until every output is verified at the
        SE and registered in the catalog.  Placement retries forever
        with capped backoff -- the payload already ran to completion, so
        resubmitting would break exactly-once; durable placement is the
        only way forward.
        """
        from ..data.catalog import dataset_path
        from ..gass.files import file_digest

        data = self.scheduler.data_services
        se = data.storage_element(job.resource)
        if not se:
            # Misconfiguration (dataset job matched to an SE-less site):
            # don't deadlock the queue -- finish the job and let the
            # durable_outputs invariant flag the missing archive.
            self._trace("stage_out_no_se", job=job.job_id,
                        resource=job.resource)
            self.queue.transition(job, J.DONE)
            return
        for name, size in job.request.output_datasets:
            size = int(size)
            path = dataset_path(name)
            expected = file_digest(path, size, "")
            backoff = 10.0
            while not job.is_terminal:
                try:
                    yield from call(
                        self.host, se, "gridftp", "stor", timeout=3600.0,
                        credential=self._credential(se),
                        path=path, size=size)
                    actual = yield from call(
                        self.host, se, "gridftp", "checksum", timeout=60.0,
                        credential=self._credential(se), path=path)
                    if actual != expected:
                        self.sim.metrics.counter(
                            "gridmanager.stage_out_corrupt").inc(label=se)
                        self._trace("stage_out_corrupt", job=job.job_id,
                                    dataset=name, se=se)
                        yield from call(
                            self.host, se, "gridftp", "delete",
                            timeout=60.0,
                            credential=self._credential(se),
                            path=path)
                        raise RPCError("stage-out checksum mismatch")
                    yield from call(
                        self.host, data.catalog_host, "rls", "register",
                        timeout=60.0,
                        credential=self._credential(data.catalog_host),
                        name=name, se_host=se, size=size,
                        checksum=expected)
                    self.sim.metrics.counter(
                        "gridmanager.stage_out_bytes").inc(size, label=se)
                    break
                except RPCError:
                    yield self.sim.timeout(backoff)
                    backoff = min(backoff * 2.0, 120.0)
        if job.is_terminal:
            return    # removed by the user while we were placing outputs
        self._trace("staged_out", job=job.job_id, resource=job.resource,
                    datasets=len(job.request.output_datasets))
        self.queue.transition(job, J.DONE)

    def _submission_failed(self, job: GridJob, exc: Exception,
                           phase: str = "phase1") -> None:
        if isinstance(exc, (AuthenticationError, AuthorizationError)):
            self.scheduler.credential_problem(job, str(exc))
            return
        self.sim.metrics.counter("gridmanager.submit_failures").inc(
            label=phase)
        # Keep the real reason (e.g. "commit of jm-3 failed after 8
        # attempts"): a generic "local scheduler submission failed" prefix
        # would mask the cause in the userlog and make the transient
        # classification depend on the mask instead of the failure.  Any
        # failure of the submission exchange itself is infrastructure,
        # never the application, so it is transient by construction.
        self._remote_failure(job, str(exc), transient=True)

    # -- callbacks ------------------------------------------------------------
    def handle_gram_callback(self, ctx, jmid: str, state: str,
                             failure_reason: str = "",
                             exit_code: Optional[int] = None) -> bool:
        job = self.scheduler.job_by_jmid(jmid)
        if job is None:
            return False
        self._apply_remote_state(job, state, failure_reason, exit_code)
        return True

    def handle_monitor_report(self, ctx, site: str, seq: int,
                              reports: dict, interval: float) -> bool:
        """One batched status report from a site's Grid Monitor.

        Each entry goes through the same `_apply_remote_state` as a
        callback or status answer, under the same superseded-``jmid``
        staleness discipline: a report snapshotted before a resubmission
        must not touch the new attempt.  The report doubles as the
        site's liveness heartbeat, good for `interval` x the miss factor,
        and a *watchable* job whose JobManager is absent from its site's
        report is marked suspect -- the site's next pass asks about
        exactly those jobs while everything covered by the monitor stays
        quiet.
        A monitor we never asked for is refused (and so retires).
        """
        remote = self.sites.get(ctx.caller_host)
        if remote is None or remote.launched is None or self.exited:
            return False
        remote.beat = (self.sim.now, interval * self.MONITOR_MISS_FACTOR)
        self.sim.metrics.counter("gridmanager.monitor_reports").inc(
            label=site)
        self.sim.metrics.counter("gridmanager.monitor_jobs_reported").inc(
            len(reports))
        for jmid in sorted(reports):
            job = self.scheduler.job_by_jmid(jmid)
            if job is None or job.jmid != jmid:
                continue    # superseded attempt: drop the stale entry
            entry = reports[jmid]
            self._apply_remote_state(
                job, entry["state"], entry["failure_reason"],
                entry["exit_code"])
        for job in self.scheduler.watchable_jobs(remote):
            if job.jmid in reports:
                remote.suspects.discard(job.jmid)
            elif job.jmid not in remote.suspects:
                # Still watchable but invisible to the site's monitor:
                # its JobManager died (monitors see every live *and*
                # unacked-terminal JobManager of ours).
                remote.suspects.add(job.jmid)
                self.sim.metrics.counter(
                    "gridmanager.monitor_suspects").inc()
                self._trace("monitor_missing_jm", job=job.job_id,
                            jmid=job.jmid, contact=remote.contact)
        return True

    # -- grid monitor lifecycle ---------------------------------------------
    def _ensure_monitor(self, site: RemoteSite) -> None:
        """Launch (or relaunch) the Grid Monitor at `site` if this agent
        watches its sites by report (``grid_monitor``), jobs of ours are
        in flight there and none is reporting.

        Called on every successful submit and on every stale-heartbeat
        watch pass; the freshness check and launch cooldown make both
        O(1) no-ops while a monitor is alive, so the steady state costs
        one ``start_monitor`` RPC per site per outage, not per job.
        """
        if self.exited or not self.scheduler.grid_monitor or \
                not site.inflight or site.fresh(self.sim.now):
            return
        if site.launched is not None and \
                self.sim.now - site.launched < self.MONITOR_START_COOLDOWN:
            return
        site.launched = self.sim.now
        self.host.spawn(self._start_monitor(site),
                        name=f"gm-monitor:{self.user}")

    def _start_monitor(self, site: RemoteSite):
        starts = self.sim.metrics.counter("gridmanager.monitor_starts")
        try:
            answer = yield from self.client.start_monitor(
                site.contact,
                callback=(self.host.name, self.callback_service))
        except RPCError as exc:
            starts.inc(label="failed")
            self._trace("monitor_start_failed", contact=site.contact,
                        reason=str(exc))
            return
        # Optimistic heartbeat: the monitor exists *now*; its first
        # report lands one interval out, well inside the staleness
        # horizon -- so the site's watcher stands down immediately
        # instead of asking while the monitor warms up.
        site.beat = (self.sim.now,
                     answer["interval"] * self.MONITOR_MISS_FACTOR)
        starts.inc(label="ok")
        self._trace("monitor_started", contact=site.contact)

    def _apply_remote_state(self, job: GridJob, state: str,
                            failure_reason: str,
                            exit_code: Optional[int]) -> None:
        if job.is_terminal:
            return
        if job.state == J.STAGING_OUT:
            # The remote side already reported DONE; the stage-out
            # process owns the rest of the lifecycle.  A stale status
            # response must not regress the state machine.
            return
        if state == "PENDING" and job.state != J.PENDING:
            self.queue.transition(job, J.PENDING)
        elif state == "ACTIVE" and job.state != J.ACTIVE:
            job.start_time = self.sim.now
            self.queue.transition(job, J.ACTIVE, "execute",
                                  resource=job.resource)
        elif state == "DONE":
            job.exit_code = exit_code if exit_code is not None else 0
            if job.request.output_datasets and \
                    self.scheduler.data_services is not None:
                # Archive declared outputs at the site's storage element
                # before the job is allowed to go terminal.
                self.queue.transition(
                    job, J.STAGING_OUT, "stage_out", resource=job.resource,
                    datasets=len(job.request.output_datasets))
                self.host.spawn(self._stage_out_datasets(job),
                                name=f"stageout:{job.job_id}")
                return
            self.queue.transition(job, J.DONE)
        elif state == "FAILED":
            self._remote_failure(job, failure_reason)

    def _remote_failure(self, job: GridJob, reason: str,
                        transient: Optional[bool] = None) -> None:
        if job.is_terminal or job.state == J.STAGING_OUT:
            return    # the run is over; stage-out owns what is left
        self.queue.log(job, "remote_failure", reason=reason,
                       attempt=job.attempts)
        if transient is None:
            transient = _is_transient(reason)
        if transient and job.attempts < job.max_attempts:
            # Resubmit: new logical attempt, broker may pick a new site.
            job.jmid = ""
            job.contact = ""
            job.committed = False
            if self.scheduler.broker is not None:
                job.resource = ""
            self.queue.transition(job, J.UNSUBMITTED)
            self.sim.metrics.counter("gridmanager.resubmits").inc()
            self._trace("resubmit", job=job.job_id, reason=reason)
            self.kick()
        else:
            job.failure_reason = reason
            self.queue.transition(job, J.FAILED)

    # -- watching: one status per site is the §4.2 probe ---------------------
    def _watch_site(self, site: RemoteSite):
        """Every PROBE_INTERVAL, one ``status`` to `site` about its
        watchable jobs -- only those its last report missed while its
        Grid Monitor is fresh; a stale site may get a new monitor.  With
        nothing watchable here the watcher parks on an event, so a quiet
        site keeps nothing on the heap."""
        while True:
            if not site.watchable:
                site.wake = self.sim.event(name=f"gm-watchable:{self.user}")
                yield site.wake
            yield self.sim.timeout(self.PROBE_INTERVAL)
            jobs = self.scheduler.watchable_jobs(site)
            if site.fresh(self.sim.now):
                suspects, site.suspects = site.suspects, set()
                jobs = [job for job in jobs if job.jmid in suspects]
            else:
                self._ensure_monitor(site)
            if jobs:
                yield from self._ask(site, jobs)

    def _ask(self, site: RemoteSite, jobs: list):
        outcomes = self.sim.metrics.counter("gridmanager.probe_outcomes")
        # Snapshot the attempts we ask about: the answer can cross a
        # resubmission (a failure report for THIS attempt races with the
        # next one), after which it -- or the silence -- is about a dead
        # attempt and must not touch the job.
        asked = [(job, job.jmid) for job in jobs]
        try:
            answer = yield from self.client.status(
                site.contact, [jmid for _job, jmid in asked])
        except (AuthenticationError, AuthorizationError) as exc:
            self._refused(asked, exc)
            return
        except RPCError:
            # Machine crash or network failure: indistinguishable (§4.2).
            # Keep the jobs and ask again on the next pass.
            outcomes.inc(len(asked), label="unreachable")
            self._trace("resource_unreachable", contact=site.contact,
                        jobs=len(asked))
            return
        for job, jmid in asked:
            if job.jmid == jmid and jmid in answer:
                outcomes.inc(label="alive")
                status = answer[jmid]
                self._apply_remote_state(job, status["state"],
                                         status["failure_reason"],
                                         status["exit_code"])
        # Left out of the gatekeeper's answer: only those JobManagers died.
        for job, jmid in asked:
            if job.jmid == jmid and jmid not in answer and \
                    not job.is_terminal:
                outcomes.inc(label="silent")
                self._trace("jobmanager_silent", job=job.job_id, jmid=jmid)
                yield from self._restart_jobmanager(job)

    def _refused(self, asked: list, exc: RPCError) -> None:
        """The gatekeeper refused our credential: the §5 hold for each
        job still on the attempt we asked about."""
        for job, jmid in asked:
            if job.jmid == jmid:
                self.sim.metrics.counter("gridmanager.probe_outcomes").inc(
                    label="credential")
                self.scheduler.credential_problem(job, str(exc))

    def _restart_jobmanager(self, job: GridJob):
        jmid = job.jmid
        try:
            yield from self.client.restart_jobmanager(job.contact, jmid)
        except (AuthenticationError, AuthorizationError) as exc:
            self._refused([(job, jmid)], exc)
            return
        except RemoteError as exc:
            if exc.kind == "KeyError" and job.jmid == jmid:
                # No state file: the JobManager never survived to
                # persist, so it ran nothing -- the one safe resubmission.
                self.sim.metrics.counter("gridmanager.probe_outcomes").inc(
                    label="restart_failed")
                self._remote_failure(job, f"jobmanager crashed: {exc}")
            return      # otherwise the gatekeeper could not say: ask again
        except RPCError:
            return    # lost it again; the next pass asks again
        self.sim.metrics.counter("gridmanager.probe_outcomes").inc(
            label="restarted")
        self._trace("jobmanager_restarted", job=job.job_id, jmid=job.jmid)
        # Point the revived JobManager's streaming at our GASS server.
        if job.request.stdout_url:
            try:
                yield from self.client.update_env(
                    job.contact, job.jmid, "GASS_URL",
                    job.request.stdout_url)
            except RPCError:
                pass

    # -- exit ---------------------------------------------------------------
    def _check_all_done(self) -> bool:
        if self.scheduler.nonterminal_count():
            return False
        self.exited = True
        self._trace("exit", jobs=len(self.scheduler.jobs_for_user()))
        self.shutdown()
        for proc in self._procs:
            if proc.alive:
                proc.kill(cause="gridmanager exit")
        self.scheduler.gridmanager_exited()
        return True
