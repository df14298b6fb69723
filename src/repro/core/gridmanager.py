"""The GridManager (paper §4.2, Figure 1): the grid universe's executor.

The persistent queue -- the Scheduler of Figure 1 -- is the agent's
:class:`~repro.condor.queue.JobQueue`, shared with its personal pool's
Schedd.  Each boot of the submit machine attaches one GridManager to it
for the grid universe.  It keeps the indexes its loops read and holds
and releases jobs when the user's credential lapses; and it "handles all
jobs for a single user and terminates once all jobs are complete": it
starts when grid work appears (a submit, a release, or a recovered queue
-- where it reconnects to, or safely resubmits, every job: the §4.2
"protect against local failure" story) and stops when none is left.
While it runs it owns the whole remote lifecycle:

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

from typing import Optional

from ..condor.queue import JobQueue
from ..gram.client import Gram2Client, GramClientError
from ..gram.protocol import GatekeeperBusy, Refusal
from ..sim.errors import (
    AuthenticationError,
    AuthorizationError,
    RemoteError,
    RPCError,
)
from ..sim.rpc import Service, call
from ..sim.stats import by, fold
from . import job as J
from .broker import Broker
from .job import GridJob

fold("gridmanager", "submitted", "gridmanager.submits")
fold("gridmanager", "staged_in", "gridmanager.stage_in_bytes",
     lambda c, r: c.inc(r.details["moved"], label=r.details["resource"]),
     when=lambda r: r.details["moved"])
fold("gridmanager", "stage_out_corrupt", "gridmanager.stage_out_corrupt",
     by("se"))
fold("gridmanager", "monitor_missing_jm", "gridmanager.monitor_suspects")
fold("gridmanager", "monitor_start_failed", "gridmanager.monitor_starts",
     lambda c, r: c.inc(label="failed"))
fold("gridmanager", "monitor_started", "gridmanager.monitor_starts",
     lambda c, r: c.inc(label="ok"))
fold("gridmanager", "resubmit", "gridmanager.resubmits")

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
    """What the GridManager knows of one gatekeeper contact.

    `inflight` and `watchable` (job ids) are its indexes, kept in step
    with every write; the rest is volatile, gone when it stops: the jmids
    whose end we have recorded (`done`: the next ``status`` ask carries
    their end commit), the
    per-user limit the site last stated, until when a refusal closed it,
    whether a job of the submit pass waits for room here, the Grid
    Monitor's heartbeat, last launch and suspects, and the site's watch
    process.
    """

    def __init__(self, contact: str):
        self.contact = contact
        self.inflight: set[str] = set()     # STAGING..ACTIVE here
        self.watchable: set[str] = set()    # committed PENDING/ACTIVE here
        self.done: set[str] = set()         # jmids to end-commit here
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
    """The grid executor over one user's job queue: the indexes its
    loops read, credential holds, and -- while it runs -- the callback
    sink ``gramcb:<user>`` and the submission/watch machinery."""

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
        queue: JobQueue,
        broker: Optional[Broker] = None,
        max_submitted_per_resource: Optional[int] = None,
        data_services=None,
        grid_monitor: bool = False,
    ):
        # (no Service.__init__: the callback sink is registered only
        # while the GridManager runs, from _start to _check_all_done)
        self.host = queue.host
        self.sim = queue.sim
        self.user = queue.owner
        self.name = self.callback_service = f"gramcb:{self.user}"
        self.authorizer = None
        self._procs = []
        self.queue = queue
        self.broker = broker
        # audience -> signing proof; the agent sets it once its
        # credential monitor exists (None: no GSI)
        self.credential_source = None
        # Grid Monitor fan-in (§5.1): True watches every site by report,
        # launching a site's monitor with the first job there; False
        # (the default) asks each site's gatekeeper.
        self.grid_monitor = grid_monitor
        # Data-management wiring (repro.data.DataServices) or None: input
        # datasets are staged / output datasets placed through these.
        self.data_services = data_services
        # Fair-share throttle: cap this user's in-flight jobs
        # (STAGING..ACTIVE) per remote resource, so one agent cannot
        # monopolize a gatekeeper in a multi-tenant grid.
        self.max_submitted_per_resource = max_submitted_per_resource
        self.client = Gram2Client(self.host,
                                  credential_source=self._credential)
        self.running = False
        self._waiting_jobs: set[str] = set()    # who waits for room
        self._on_broker = False     # one of them waits on the broker
        self._again = False     # a waited-for slot freed during the pass
        # Incremental views of the grid records, refreshed by moved()
        # after every write (every mutation is written, so they can never
        # go stale); the loops read these instead of scanning the queue.
        self._nonterminal: set[str] = set()
        self._by_jmid: dict[str, GridJob] = {}
        # job id -> (jmid, contact) of its open remote attempt
        self._attempt: dict[str, tuple[str, str]] = {}
        # contact -> what we know of that site, and the site each
        # in-flight job is counted at
        self.sites: dict[str, RemoteSite] = {}
        self._site_of: dict[str, RemoteSite] = {}
        for job in queue.attach(self, GridJob.UNIVERSES):
            self._reindex(job)
            if job.is_terminal and job.jmid:
                # its end commit may have been lost with our predecessor
                self._ended(job.jmid, job.contact)
        # The grid-wide gauge still carries what our predecessor last
        # added to it, which is this depth: every change was written.
        self._last_depth = len(self._nonterminal)
        if self._nonterminal:
            self.sim.trace.log("scheduler", "recovered", user=self.user,
                               jobs=len(self._nonterminal))
            self._start()

    def _start(self) -> None:
        """Grid work appeared -- a submit, a release, or a recovered
        queue: run, unless running already."""
        if self.running:
            return
        self.host.register_service(self.name, self)
        self.running = True
        self._wake = self.sim.event(name=f"gm-wake:{self.user}")
        self.spawn(self._submit_loop(), name=f"gridmanager:{self.user}")
        self._trace("start")
        for site in self.sites.values():
            if site.watchable:      # recovered from the queue
                self.watch(site)

    # -- the queue's callbacks ---------------------------------------------------
    def moved(self, job: GridJob, was: Optional[str]) -> None:
        """`job` was just written (`was`: its state before, None when it
        entered the queue): bring the indexes and the depth gauge in
        step, and look again if the job ended."""
        self._reindex(job)
        depth = len(self._nonterminal)
        # Applied as a delta so N concurrent per-user agents sharing one
        # registry yield a true grid-wide depth instead of whichever
        # agent wrote last clobbering the gauge.
        self.sim.metrics.gauge("scheduler.queue_depth").inc(
            depth - self._last_depth)
        self._last_depth = depth
        if job.is_terminal:
            self.kick()

    def remove(self, job_id: str) -> None:
        self.spawn(self.cancel(job_id), name=f"cancel:{job_id}")

    def _reindex(self, job: GridJob) -> None:
        jid = job.job_id
        if job.is_terminal:
            self._nonterminal.discard(jid)
        else:
            self._nonterminal.add(jid)
        # The open attempt: once the job ends or moves on, what we wrote
        # is its durable end, and the JobManager gets its end commit.
        attempt = (job.jmid, job.contact) \
            if job.jmid and not job.is_terminal else None
        old = self._attempt.get(jid)
        if old != attempt:
            if old is not None:
                del self._by_jmid[old[0]]
                self._ended(*old)
            if attempt is None:
                del self._attempt[jid]
            else:
                self._by_jmid[job.jmid] = job
                self._attempt[jid] = attempt
        # In flight at a site (the submit throttle's input), and watchable
        # there (committed PENDING/ACTIVE: what the site's watch asks about)
        contact = (job.contact or job.resource) if job.state in (
            J.STAGING, J.SUBMITTING, J.PENDING, J.ACTIVE) else ""
        site = self._site_of.get(jid)
        if site is not None and site.contact != contact:
            del self._site_of[jid]
            site.inflight.discard(jid)
            site.watchable.discard(jid)
            self.slot_freed(site)
            site = None
        if contact and site is None:
            site = self._site_of[jid] = self.site(contact)
            site.inflight.add(jid)
        if site is None:
            return
        if job.committed and job.jmid and job.state in (J.PENDING, J.ACTIVE):
            if not site.watchable:
                self.watch(site)    # its first: rouse a watcher
            site.watchable.add(jid)
        else:
            site.watchable.discard(jid)

    def _ended(self, jmid: str, contact: str) -> None:
        """The end of `jmid` is durable here: the site's next ask carries
        its end commit (an agent watching by report seldom asks, so its
        JobManagers leave at the end of their window instead)."""
        if not self.grid_monitor:
            self.site(contact).done.add(jmid)

    def site(self, contact: str) -> RemoteSite:
        """The record of `contact`, made at its first mention."""
        site = self.sites.get(contact)
        if site is None:
            site = self.sites[contact] = RemoteSite(contact)
        return site

    # -- the user's operations ------------------------------------------------
    def submit(self, request, resource: str = "",
               job_id: str = "") -> str:
        job = GridJob(job_id=job_id or self.queue.new_id(),
                      request=request, resource=resource)
        self.queue.submit(job, resource=resource or "(broker)")
        self.sim.metrics.counter("scheduler.jobs_queued").inc()
        self.sim.metrics.counter("scheduler.user_jobs_queued").inc(
            label=self.user)
        self._start()
        self.kick()
        return job.job_id

    def jobs_for_user(self) -> list[GridJob]:
        """Every grid job of this user, ascending job_id."""
        return sorted(self.queue.of(GridJob.UNIVERSES),
                      key=lambda job: job.job_id)

    def job_by_jmid(self, jmid: str) -> Optional[GridJob]:
        return self._by_jmid.get(jmid)

    def _watchable(self, site: RemoteSite) -> list[GridJob]:
        """Committed PENDING/ACTIVE jobs at `site`, ascending job_id."""
        return [self.queue.jobs[jid] for jid in sorted(site.watchable)]

    def cancel(self, job_id: str):
        """Generator: cancel a job locally and remotely."""
        job = self.queue.jobs.get(job_id)
        if job is None or job.is_terminal:
            return False
        if job.committed and job.jmid and self.running:
            try:
                yield from self.client.cancel(job.contact, job.jmid)
            except RPCError:
                pass    # best effort: the remote side may be gone
            if job.is_terminal:
                return False    # finished while the remote cancel ran
        job.failure_reason = "removed by user"
        self.queue.transition(job, J.FAILED, "removed")
        return True

    # -- holds ---------------------------------------------------------------
    def hold_for_credentials(self, reason: str = "") -> int:
        held = 0
        for job in self.queue.of(GridJob.UNIVERSES):
            if job.state == J.UNSUBMITTED:
                job.hold_reason = reason
                self.queue.transition(job, J.HELD, "held", reason=reason)
                held += 1
        return held

    def release_credential_holds(self) -> int:
        released = 0
        for job in self.queue.of(GridJob.UNIVERSES):
            if job.state == J.HELD:
                # A job held *mid-flight* (credential error discovered by
                # the status probe) still has a committed remote JobManager
                # that may be running -- or have finished -- the job.  Release
                # it back to PENDING so we reconnect to the same jmid;
                # resubmitting (UNSUBMITTED) would mint a new sequence
                # number and run the job a second time.
                if job.committed and job.jmid:
                    self.queue.transition(job, J.PENDING, "released")
                else:
                    # Held between the two phases: that JobManager was
                    # never committed and aborts itself; forget it, so
                    # its reports cannot touch the next attempt.
                    job.jmid = job.contact = ""
                    self.queue.transition(job, J.UNSUBMITTED, "released")
                released += 1
        if released:
            self._start()
            self.kick()
        return released

    def credential_problem(self, job: GridJob, reason: str) -> None:
        """A GRAM operation failed authentication: hold the job."""
        if job.is_terminal or job.state in (J.HELD, J.STAGING_OUT):
            return    # nothing (more) a hold would stop
        self.sim.metrics.counter("scheduler.credential_holds").inc()
        job.hold_reason = f"credential problem: {reason}"
        self.queue.transition(job, J.HELD, "held", reason=job.hold_reason)
        self.queue.notifier.email(
            self.sim.now, subject="job held: credential problem",
            body=f"{job.job_id}: {reason}")

    # -- plumbing -----------------------------------------------------------
    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log("gridmanager", event, user=self.user, **details)

    def kick(self) -> None:
        """Wake the submit loop; nothing while stopped."""
        if self.running and not self._wake.triggered and \
                not self._wake._scheduled:
            self._wake.succeed(None)

    def room(self, contact: str) -> bool:
        """`contact` is open, and in flight there is below our cap and
        the site's."""
        return self.site(contact).room(
            self.max_submitted_per_resource, self.sim.now)

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
        sites = [self.site(contact) for contact in contacts]
        if not sites[0].waiting:
            self.sim.metrics.counter("gridmanager.submit_throttled").inc(
                label=contacts[0])
        for site in sites:
            site.waiting = True

    def _learn_limit(self, contact: str, limit: Optional[int]) -> None:
        site = self.site(contact)
        if site.stated != limit:
            site.stated = limit
            self.slot_freed(site)    # if it rose, that is room

    def watch(self, site: RemoteSite) -> None:
        """`site` just got a watchable job: start its watcher, or rouse
        it if parked."""
        if not self.running:
            return
        if site.watcher is None:
            site.watcher = self.spawn(
                self._watch_site(site),
                name=f"gm-watch:{self.user}@{site.contact}")
        wake, site.wake = site.wake, None
        if wake is not None:
            wake.succeed(None)

    # -- submission ------------------------------------------------------------
    def _submit_loop(self):
        while self.running:
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
                if self.broker is None:
                    self._wait_for_room(job, job.resource)
                    continue
                job.resource = ""   # full: the broker may know better
            if not job.resource:
                if self.broker is None or nowhere:
                    # nowhere to send it: a kick (a submission that
                    # yielded, a freed slot, a user) brings it back
                    self._waiting_jobs.add(job.job_id)
                    continue
                asked: dict[str, bool] = {}     # contact -> had room
                resource = yield from self.broker.pick(
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
                self.data_services is not None:
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
            # pin the job to an attempt the queue has disowned.
            self._trace("submit_superseded", job=job.job_id, seq=job.seq)
            return
        if isinstance(failure, GatekeeperBusy):
            # Congestion, not failure: no attempt is consumed; the job
            # waits for room here.  A refusal our count cannot explain
            # (the site counts a held job's JobManager, or refused for
            # another reason) closes the site for as long as it says.
            job.attempts -= 1
            site = self.site(contact)
            if failure.reason != Refusal.USER_JOBMANAGERS or \
                    len(site.inflight) <= failure.user_limit:
                site.busy_until = self.sim.now + failure.retry_after
                self._trace("gatekeeper_busy_backoff", job=job.job_id,
                            contact=contact, until=site.busy_until)
            self.queue.transition(job, J.UNSUBMITTED)
            self._wait_for_room(job, contact)
            return
        if failure is not None:
            self._submission_failed(job, failure)
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
            self.credential_problem(job, str(failure))
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
        self.sim.metrics.histogram("gridmanager.submit_latency").observe(
            self.sim.now - attempt_start)
        self._trace("submitted", job=job.job_id, jmid=job.jmid,
                    resource=job.resource)
        self._ensure_monitor(self.site(job.contact))

    # -- data placement (repro.data) -----------------------------------------
    def _credential(self, audience: str):
        source = self.credential_source
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
            self.site(job.resource).busy_until = self.sim.now + 30
            self._remote_failure(job, f"stage-in failed: {exc}")
            return False
        if job.state != J.STAGING:
            return False    # cancelled/held while transfers ran
        self.sim.metrics.histogram("gridmanager.stage_in_time").observe(
            self.sim.now - started)
        self._trace("staged_in", job=job.job_id, resource=job.resource,
                    moved=staged)
        return True

    def _stage_inputs(self, job: GridJob):
        """Move each missing input dataset to the site's SE; returns the
        bytes actually transferred (0 = everything was already local)."""
        from ..data.catalog import dataset_path

        data = self.data_services
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

        data = self.data_services
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

    def _submission_failed(self, job: GridJob, exc: Exception) -> None:
        if isinstance(exc, (AuthenticationError, AuthorizationError)):
            self.credential_problem(job, str(exc))
            return
        self.sim.metrics.counter("gridmanager.submit_failures").inc(
            label="phase1")
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
        job = self.job_by_jmid(jmid)
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
        if remote is None or remote.launched is None or not self.running:
            return False
        remote.beat = (self.sim.now, interval * self.MONITOR_MISS_FACTOR)
        self.sim.metrics.counter("gridmanager.monitor_reports").inc(
            label=site)
        self.sim.metrics.counter("gridmanager.monitor_jobs_reported").inc(
            len(reports))
        for jmid in sorted(reports):
            job = self.job_by_jmid(jmid)
            if job is None or job.jmid != jmid:
                continue    # superseded attempt: drop the stale entry
            entry = reports[jmid]
            self._apply_remote_state(
                job, entry["state"], entry["failure_reason"],
                entry["exit_code"])
        for job in self._watchable(remote):
            if job.jmid in reports:
                remote.suspects.discard(job.jmid)
            elif job.jmid not in remote.suspects:
                # Still watchable but invisible to the site's monitor:
                # its JobManager died (monitors see every live *and*
                # unacked-terminal JobManager of ours).
                remote.suspects.add(job.jmid)
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
        if not self.running or not self.grid_monitor or \
                not site.inflight or site.fresh(self.sim.now):
            return
        if site.launched is not None and \
                self.sim.now - site.launched < self.MONITOR_START_COOLDOWN:
            return
        site.launched = self.sim.now
        self.spawn(self._start_monitor(site), name=f"gm-monitor:{self.user}")

    def _start_monitor(self, site: RemoteSite):
        try:
            answer = yield from self.client.start_monitor(
                site.contact,
                callback=(self.host.name, self.callback_service))
        except RPCError as exc:
            self._trace("monitor_start_failed", contact=site.contact,
                        reason=str(exc))
            return
        # Optimistic heartbeat: the monitor exists *now*; its first
        # report lands one interval out, well inside the staleness
        # horizon -- so the site's watcher stands down immediately
        # instead of asking while the monitor warms up.
        site.beat = (self.sim.now,
                     answer["interval"] * self.MONITOR_MISS_FACTOR)
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
                    self.data_services is not None:
                # Archive declared outputs at the site's storage element
                # before the job is allowed to go terminal.
                self.queue.transition(
                    job, J.STAGING_OUT, "stage_out", resource=job.resource,
                    datasets=len(job.request.output_datasets))
                self.spawn(self._stage_out_datasets(job),
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
            if self.broker is not None:
                job.resource = ""
            self.queue.transition(job, J.UNSUBMITTED)
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
            jobs = self._watchable(site)
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
        done = tuple(sorted(site.done)) if site.done else ()
        try:
            answer = yield from self.client.status(
                site.contact, [jmid for _job, jmid in asked], done)
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
        site.done.difference_update(done)
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
                self.credential_problem(job, str(exc))

    def _restart_jobmanager(self, job: GridJob):
        jmid = job.jmid
        try:
            answer = yield from self.client.restart_jobmanager(
                job.contact, jmid)
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
        status = answer["status"]
        if status["state"] in (J.DONE, J.FAILED) and job.jmid == jmid:
            # it had retired at its end, which we missed: this is the end
            self._apply_remote_state(job, status["state"],
                                     status["failure_reason"],
                                     status["exit_code"])
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
        if self._nonterminal:
            return False
        self._trace("exit", jobs=len(self.jobs_for_user()))
        self.crash("gridmanager exit")
        return True

    def crash(self, cause: str = "crash") -> None:
        """Stop: the next grid work starts us again (:meth:`_start`).
        What the sites' records hold is volatile, like the run."""
        self.running = False
        super().crash(cause)
        self.sites.clear()
