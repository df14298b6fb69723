"""The GridManager daemon (paper §4.2, Figure 1).

One GridManager per user, created by the Scheduler when grid-universe
jobs enter the queue, terminating when none remain.  It owns the whole
remote lifecycle:

* **submission** via the two-phase GRAM protocol, persisting the sequence
  token before phase 1 and the JobManager contact before phase 2, so a
  submit-machine crash at *any* point resumes without duplicating or
  losing the job;
* **failure detection** by periodically asking every JobManager for
  its ``status`` -- the §4.2 probe -- with the exact decision tree:
  JobManager silent -> probe the Gatekeeper; Gatekeeper answers ->
  restart the JobManager; Gatekeeper silent -> crash and partition are
  indistinguishable, so keep probing until contact returns, then
  restart/reconnect (the revived JobManager either resumes watching or
  reports that the job finished during the outage);
* **resubmission** of jobs that failed for transient, non-application
  reasons;
* **job state**, which arrives by status callback (a sink service), by
  Grid Monitor report, or as the answer to the probe -- all three through
  ``_apply_remote_state``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..gram.client import Gram2Client, GramClientError
from ..gram.protocol import GatekeeperBusy, Refusal
from ..sim.errors import (
    AuthenticationError,
    AuthorizationError,
    RPCError,
    RPCTimeout,
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


class GridManager(Service):
    """Callback sink + the per-user submission/probing machinery."""

    # The one status period (§4.2): how often each watchable job's
    # JobManager is asked for its status.
    PROBE_INTERVAL = 30.0
    # How often the submit loop looks again while an UNSUBMITTED job
    # waits on the clock (a site's retry_after, no candidate site, an
    # arrival during a pass); one that waits for room waits for a slot.
    SUBMIT_RETRY_INTERVAL = 20.0
    # §5.1 is the agent's answer to its own load: a site gets a Grid
    # Monitor once this many of our jobs are in flight there (the sweep
    # in docs/PERFORMANCE.md; below it a monitor's heartbeat horizon
    # costs more recovery time than its batching saves).
    MONITOR_MIN_JOBS = 32
    # A site's heartbeat is stale once this many of its monitor's stated
    # report intervals pass in silence: per-job watching resumes and, at
    # a site that still carries the load, the monitor is relaunched
    # (with a cooldown so a dead gatekeeper isn't hammered).
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
        self.user = user
        # contact -> (last report or launch, the horizon its monitor's
        # stated interval gives it); volatile, like `_stated`
        self._monitor_beat: dict[str, tuple[float, float]] = {}
        self._monitor_attempt: dict[str, float] = {}  # contact -> last launch
        self._monitor_suspect: set[str] = set()       # jmids absent from report
        self.client = Gram2Client(host, credential_source=self._credential)
        self.exited = False
        # The one throttle: contact -> per-user JobManager limit its site
        # last stated (in any phase-1 answer); what the pass left waiting.
        self._stated: dict[str, Optional[int]] = {}
        self._waiting: set[str] = set()         # contacts ...
        self._waiting_jobs: set[str] = set()    # ... and who waits there
        self._again = False     # a waited-for slot freed during the pass
        self._wake = self.sim.event(name=f"gm-wake:{user}")
        self._watch_wake = None    # set while the watch loop is parked
        self._procs = [
            host.spawn(self._submit_loop(), name=f"gridmanager:{user}"),
            host.spawn(self._watch_loop(), name=f"gm-watch:{user}"),
        ]
        self.sim.trace.log("gridmanager", "start", user=user)

    # -- plumbing -----------------------------------------------------------
    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log("gridmanager", event, user=self.user, **details)

    def kick(self) -> None:
        if not self._wake.triggered and not self._wake._scheduled:
            self._wake.succeed(None)

    def room(self, contact: str) -> bool:
        """In flight at `contact` is below our cap and the site's."""
        limit = self.scheduler.max_submitted_per_resource
        stated = self._stated.get(contact)
        if stated is not None and (limit is None or stated < limit):
            limit = stated
        return limit is None or self.scheduler.inflight_on(contact) < limit

    def slot_freed(self, contact: str) -> None:
        """In flight at `contact` dropped, or its stated limit moved: if
        a job waits there, look again -- now, or after the running pass."""
        if contact in self._waiting:
            self._again = True
            self.kick()

    def _wait_for_room(self, job: GridJob, *contacts: str) -> None:
        """A slot freed at any of `contacts` wakes `job`; the throttle
        counts the first, where it would have gone, once per pass."""
        self._waiting_jobs.add(job.job_id)
        if contacts[0] not in self._waiting:
            self.sim.metrics.counter("gridmanager.submit_throttled").inc(
                label=contacts[0])
        self._waiting.update(contacts)

    def _learn_limit(self, contact: str, limit: Optional[int]) -> None:
        if self._stated.get(contact) != limit:
            self._stated[contact] = limit
            self.slot_freed(contact)    # if it rose, that is room

    def notify_watchable(self) -> None:
        """A job just became watchable: rouse the watch loop if parked."""
        wake, self._watch_wake = self._watch_wake, None
        if wake is not None:
            wake.succeed(None)

    # -- submission ------------------------------------------------------------
    def _submit_loop(self):
        while not self.exited:
            self._again = False
            yield from self._submit_pass()
            if self._check_all_done():
                return
            if self._again:
                continue    # a slot someone waits for freed meanwhile
            self._wake = self.sim.event(name=f"gm-wake:{self.user}")
            if self.scheduler.unsubmitted_ids() <= self._waiting_jobs:
                # Every transition into UNSUBMITTED and every freed slot
                # kicks the wake event: a pure wait cannot miss work.
                yield self._wake
            else:
                yield self.sim.any_of(
                    [self._wake,
                     self.sim.timeout(self.SUBMIT_RETRY_INTERVAL)])

    def _submit_pass(self):
        """The UNSUBMITTED jobs as the queue stands, in job_id order,
        each into room; a broker that said "nowhere" rests until a
        submission of this pass has yielded."""
        self._waiting.clear()
        self._waiting_jobs.clear()
        nowhere = False
        for job in self.scheduler.unsubmitted_jobs():
            if job.state != J.UNSUBMITTED or \
                    self.sim.now < job.backoff_until:
                continue
            if job.resource and not self.room(job.resource):
                if self.scheduler.broker is None:
                    self._wait_for_room(job, job.resource)
                    continue
                job.resource = ""   # full: the broker may know better
            if not job.resource:
                if self.scheduler.broker is None:
                    continue    # nowhere to send it (yet)
                if nowhere:
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
        self.scheduler.transition(job, J.SUBMITTING, "submit",
                                  resource=job.resource,
                                  attempt=job.attempts)
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
            # Congestion, not failure: no attempt is consumed.  At the
            # per-user limit the job waits for room, i.e. for one of our
            # JobManagers to finish; if the site counts more of them than
            # we do (a held job's, a superseded attempt's), or refused
            # for another reason, it waits as long as the site says.
            job.attempts -= 1
            ours = failure.reason == Refusal.USER_JOBMANAGERS and \
                self.scheduler.inflight_on(contact) > failure.user_limit
            if not ours:
                job.backoff_until = self.sim.now + failure.retry_after
                self._trace("gatekeeper_busy_backoff", job=job.job_id,
                            until=job.backoff_until)
            self.scheduler.transition(job, J.UNSUBMITTED)
            if ours:
                self._wait_for_room(job, contact)
            return
        if failure is not None:
            self._submission_failed(job, failure, phase="phase1")
            return
        job.jmid = jmid = response["jmid"]
        job.contact = response["contact"]
        self.scheduler.persist(job)
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
            self.scheduler.transition(job, J.PENDING)
        else:
            self.scheduler.persist(job)
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
        self._ensure_monitor(job.contact)

    # -- data placement (repro.data) -----------------------------------------
    def _credential(self, audience: str):
        source = self.scheduler.credential_source
        return None if source is None else source(audience)

    def _stage_inputs_for(self, job: GridJob):
        """Place the job's input datasets at its site's SE.  True = go on
        to GRAM submission; False = the job left the submission path
        (failed staging and was resubmitted/failed, or was superseded).
        """
        self.scheduler.transition(
            job, J.STAGING, "stage_in", resource=job.resource,
            datasets=len(job.request.input_datasets))
        started = self.sim.now
        try:
            staged = yield from self._stage_inputs(job)
        except (RPCError, RuntimeError) as exc:
            # Same transient treatment as a remote stage-in failure,
            # plus a breather so a dead SE/catalog is not hammered.
            job.attempts += 1
            job.backoff_until = self.sim.now + 30.0
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
            self.scheduler.transition(job, J.DONE)
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
        self.scheduler.transition(job, J.DONE)

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
        report is marked suspect -- the watch loop gives exactly those
        jobs the per-job §4.2 treatment while everything covered by the
        monitor stays quiet.
        A monitor we never asked for is refused (and so retires).
        """
        contact = ctx.caller_host
        if contact not in self._monitor_attempt or self.exited:
            return False
        self._heartbeat(contact, interval)
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
        for job in self.scheduler.watchable_jobs(contact):
            if job.jmid in reports:
                self._monitor_suspect.discard(job.jmid)
            elif job.jmid not in self._monitor_suspect:
                # Still watchable but invisible to the site's monitor:
                # its JobManager died (monitors see every live *and*
                # unacked-terminal JobManager of ours).
                self._monitor_suspect.add(job.jmid)
                self.sim.metrics.counter(
                    "gridmanager.monitor_suspects").inc()
                self._trace("monitor_missing_jm", job=job.job_id,
                            jmid=job.jmid, contact=contact)
        return True

    # -- grid monitor lifecycle ---------------------------------------------
    def _heartbeat(self, contact: str, interval: float) -> None:
        self._monitor_beat[contact] = (
            self.sim.now, interval * self.MONITOR_MISS_FACTOR)

    def _monitor_fresh(self, contact: str) -> bool:
        """Has `contact`'s monitor reported (or been launched) recently?"""
        last, horizon = self._monitor_beat.get(contact, (0.0, -1.0))
        return self.sim.now - last <= horizon

    def _ensure_monitor(self, contact: str) -> None:
        """Launch (or relaunch) the Grid Monitor at `contact` if our load
        there calls for one and none is reporting.

        Called on every successful submit and on every stale-heartbeat
        watch pass; the freshness check and launch cooldown make both
        O(1) no-ops while a monitor is alive, so the steady state costs
        one ``start_monitor`` RPC per site per outage, not per job.
        Only the launch is gated on load (``grid_monitor``: from the
        first job): a monitor that reports is never worse than probing,
        so it lives until it retires itself.
        """
        if self.exited or not contact or \
                self.scheduler.inflight_on(contact) < (
                    1 if self.scheduler.grid_monitor
                    else self.MONITOR_MIN_JOBS) or \
                self._monitor_fresh(contact):
            return
        last = self._monitor_attempt.get(contact)
        if last is not None and \
                self.sim.now - last < self.MONITOR_START_COOLDOWN:
            return
        self._monitor_attempt[contact] = self.sim.now
        self.host.spawn(self._start_monitor(contact),
                        name=f"gm-monitor:{self.user}")

    def _start_monitor(self, contact: str):
        starts = self.sim.metrics.counter("gridmanager.monitor_starts")
        try:
            answer = yield from self.client.start_monitor(
                contact, callback=(self.host.name, self.callback_service))
        except RPCError as exc:
            starts.inc(label="failed")
            self._trace("monitor_start_failed", contact=contact,
                        reason=str(exc))
            return
        # Optimistic heartbeat: the monitor exists *now*; its first
        # report lands one interval out, well inside the staleness
        # horizon -- so the watch loop stands down immediately instead
        # of fanning out per-job probes while the monitor warms up.
        self._heartbeat(contact, answer["interval"])
        starts.inc(label="ok")
        self._trace("monitor_started", contact=contact)

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
            self.scheduler.transition(job, J.PENDING)
        elif state == "ACTIVE" and job.state != J.ACTIVE:
            job.start_time = self.sim.now
            self.scheduler.transition(job, J.ACTIVE, "execute",
                                      resource=job.resource)
        elif state == "DONE":
            job.exit_code = exit_code if exit_code is not None else 0
            if job.request.output_datasets and \
                    self.scheduler.data_services is not None:
                # Archive declared outputs at the site's storage element
                # before the job is allowed to go terminal.
                self.scheduler.transition(
                    job, J.STAGING_OUT, "stage_out", resource=job.resource,
                    datasets=len(job.request.output_datasets))
                self.host.spawn(self._stage_out_datasets(job),
                                name=f"stageout:{job.job_id}")
                return
            self.scheduler.transition(job, J.DONE)
        elif state == "FAILED":
            self._remote_failure(job, failure_reason)

    def _remote_failure(self, job: GridJob, reason: str,
                        transient: Optional[bool] = None) -> None:
        if job.is_terminal or job.state == J.STAGING_OUT:
            return    # the run is over; stage-out owns what is left
        self.scheduler.log(job, "remote_failure", reason=reason,
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
            self.scheduler.transition(job, J.UNSUBMITTED)
            self.sim.metrics.counter("gridmanager.resubmits").inc()
            self._trace("resubmit", job=job.job_id, reason=reason)
            self.kick()
        else:
            job.failure_reason = reason
            self.scheduler.transition(job, J.FAILED)

    # -- watching: status is the §4.2 probe -----------------------------------
    def _watch_loop(self):
        """Every PROBE_INTERVAL, one ``status`` RPC per watchable job.

        The answer is both the liveness proof and the job's state; its
        absence enters the §4.2 decision tree.  At a site with a Grid
        Monitor the report stream is the liveness proof instead: jobs at
        a freshly-reporting site are skipped unless the report marked
        them suspect, and a stale site gets the per-job treatment (and,
        if it still carries the load, a new monitor).  Freshness is
        decided once per site until the pass next yields -- only while
        it waits on an answer can a report land or a horizon pass.  With
        nothing watchable the loop parks on an event, so an idle
        GridManager keeps nothing on the heap.
        """
        while not self.exited:
            if not self.scheduler.watchable_count():
                self._watch_wake = self.sim.event(
                    name=f"gm-watchable:{self.user}")
                yield self._watch_wake
            yield self.sim.timeout(self.PROBE_INTERVAL)
            fresh: dict[str, bool] = {}
            for job in self.scheduler.watchable_jobs():
                contact = job.contact or job.resource
                covered = fresh.get(contact)
                if covered is None:
                    covered = fresh[contact] = self._monitor_fresh(contact)
                    if not covered:
                        # No monitor, or a stale heartbeat (it, or the
                        # whole site, is gone): watch this site's jobs
                        # ourselves, and ask for one if the load is there.
                        self._ensure_monitor(contact)
                if covered:
                    if job.jmid not in self._monitor_suspect:
                        continue
                    self._monitor_suspect.discard(job.jmid)
                yield from self._watch_job(job)
                fresh.clear()

    def _watch_job(self, job: GridJob):
        outcomes = self.sim.metrics.counter("gridmanager.probe_outcomes")
        # Snapshot the attempt we are asking about: every yield below
        # can interleave with a resubmission (a failure report for THIS
        # attempt races with the next one), after which the answer --
        # or the silence -- is about a dead attempt and must not touch
        # the job.
        jmid = job.jmid
        if not jmid or job.is_terminal:
            return    # mutated since the pass's list was drawn
        try:
            status = yield from self.client.status(job.contact, jmid)
        except AuthenticationError as exc:
            # An expired/bad proxy gets the §5 hold-and-notify
            # treatment -- unless the error is for a superseded
            # attempt, which says nothing about the current one's
            # credential.
            if job.jmid == jmid:
                outcomes.inc(label="credential")
                self.scheduler.credential_problem(job, str(exc))
            return
        except RPCError:
            status = None    # silence: the §4.2 tree below
        if job.jmid != jmid:
            return
        if status is not None:
            outcomes.inc(label="alive")
            self._apply_remote_state(
                job, status["state"], status.get("failure_reason", ""),
                status.get("exit_code"))
            return
        outcomes.inc(label="silent")
        self._trace("jobmanager_silent", job=job.job_id, jmid=job.jmid)
        try:
            yield from self.client.ping_gatekeeper(job.contact)
        except (RPCError, AuthenticationError):
            # Machine crash or network failure: indistinguishable (§4.2).
            # Keep the job and retry on the next pass.
            outcomes.inc(label="unreachable")
            self._trace("resource_unreachable", job=job.job_id,
                        contact=job.contact)
            return
        if job.jmid != jmid:
            return
        # Gatekeeper is alive: only the JobManager died.  Restart it.
        yield from self._restart_jobmanager(job)

    def _restart_jobmanager(self, job: GridJob):
        outcomes = self.sim.metrics.counter("gridmanager.probe_outcomes")
        jmid = job.jmid
        try:
            yield from self.client.restart_jobmanager(job.contact, jmid)
            outcomes.inc(label="restarted")
            self._trace("jobmanager_restarted", job=job.job_id,
                        jmid=job.jmid)
        except RPCTimeout:
            return    # lost it again; the next pass retries
        except RPCError as exc:
            # No state file: the JobManager never survived to persist.
            outcomes.inc(label="restart_failed")
            if job.jmid == jmid:
                self._remote_failure(job, f"jobmanager crashed: {exc}")
            return
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
        if not self.scheduler.jobs or self.scheduler.nonterminal_count():
            return False
        self.exited = True
        self._trace("exit", jobs=len(self.scheduler.jobs))
        self.shutdown()
        for proc in self._procs:
            if proc.alive:
                proc.kill(cause="gridmanager exit")
        self.scheduler.gridmanager_exited()
        return True
