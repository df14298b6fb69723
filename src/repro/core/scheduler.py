"""The Condor-G Scheduler: the grid executor over the agent's job queue.

The Scheduler is the first box of Figure 1.  The persistent queue is the
:class:`~repro.condor.queue.JobQueue` the agent shares with its personal
pool's Schedd; this class runs its grid jobs: it spawns one GridManager
per user with queued grid jobs, keeps the indexes the GridManager reads,
and holds and releases jobs when the user's credential lapses.  One
built after a submit-machine crash attaches to the queue the boot read
back from disk, and its GridManager reconnects to (or safely resubmits)
every job -- the §4.2 "protect against local failure" story.
"""

from __future__ import annotations

from typing import Optional

from ..condor.queue import JobQueue
from ..sim.errors import RPCError
from . import job as J
from .broker import Broker
from .gridmanager import GridManager, RemoteSite
from .job import GridJob


class CondorGScheduler:
    """The grid executor over one user's job queue: GridManager lifecycle,
    the indexes its loops read, the submit throttle's tally and
    credential holds."""

    def __init__(
        self,
        queue: JobQueue,
        broker: Optional[Broker] = None,
        max_submitted_per_resource: Optional[int] = None,
        data_services=None,
        grid_monitor: bool = False,
    ):
        self.queue = queue
        self.host = queue.host
        self.sim = queue.sim
        self.user = queue.owner
        self.broker = broker
        # audience -> signing proof; the agent sets it once its
        # credential monitor exists (None: no GSI)
        self.credential_source = None
        # Grid Monitor fan-in (§5.1): True watches every site by report,
        # the GridManager launching a site's monitor with its first job
        # there; False (the default) asks each site's gatekeeper.
        self.grid_monitor = grid_monitor
        # Data-management wiring (repro.data.DataServices) or None; the
        # GridManager stages input datasets / places output datasets
        # through these services when a job declares any.
        self.data_services = data_services
        # Fair-share throttle: cap this user's in-flight jobs
        # (SUBMITTING/PENDING/ACTIVE) per remote resource, so one agent
        # cannot monopolize a gatekeeper in a multi-tenant grid.
        self.max_submitted_per_resource = max_submitted_per_resource
        # Incremental views of the grid records, refreshed by moved()
        # after every write (every mutation is written, so they can never
        # go stale); the GridManager loops read these instead of scanning
        # the whole queue.
        self._nonterminal: set[str] = set()
        self._by_jmid: dict[str, GridJob] = {}
        self._jmid_of: dict[str, str] = {}
        # contact -> what the GridManager knows of that site, and the
        # site each in-flight job is counted at
        self.sites: dict[str, RemoteSite] = {}
        self._site_of: dict[str, RemoteSite] = {}
        self.gridmanager: Optional[GridManager] = None
        for job in queue.attach(self, GridJob.UNIVERSES):
            self._reindex(job)
        # The grid-wide gauge still carries what our predecessor last
        # added to it, which is this depth: every change was written.
        self._last_depth = len(self._nonterminal)
        if self._nonterminal:
            self.sim.trace.log("scheduler", "recovered", user=self.user,
                               jobs=len(self._nonterminal))
            self._ensure_gridmanager()

    # -- the queue's callbacks ---------------------------------------------------
    def moved(self, job: GridJob, was: Optional[str]) -> None:
        """`job` was just written (`was`: its state before, None when it
        entered the queue): bring the indexes and the depth gauge in
        step, and let a GridManager whose job ended look again."""
        self._reindex(job)
        depth = len(self._nonterminal)
        # Applied as a delta so N concurrent per-user schedulers sharing
        # one registry yield a true grid-wide depth instead of whichever
        # agent wrote last clobbering the gauge.
        self.sim.metrics.gauge("scheduler.queue_depth").inc(
            depth - self._last_depth)
        self._last_depth = depth
        if job.is_terminal and self.gridmanager is not None:
            self.gridmanager.kick()

    def remove(self, job_id: str) -> None:
        self.sim.spawn(self.cancel(job_id), name=f"cancel:{job_id}")

    def _reindex(self, job: GridJob) -> None:
        jid = job.job_id
        if job.is_terminal:
            self._nonterminal.discard(jid)
        else:
            self._nonterminal.add(jid)
        old_jmid = self._jmid_of.get(jid, "")
        if old_jmid != job.jmid:
            if old_jmid:
                self._by_jmid.pop(old_jmid, None)
            if job.jmid:
                self._by_jmid[job.jmid] = job
            self._jmid_of[jid] = job.jmid
        # In flight at a site (the submit throttle's input), and watchable
        # there (committed PENDING/ACTIVE: what the site's watch asks about)
        contact = (job.contact or job.resource) if job.state in (
            J.STAGING, J.SUBMITTING, J.PENDING, J.ACTIVE) else ""
        site = self._site_of.get(jid)
        if site is not None and site.contact != contact:
            del self._site_of[jid]
            site.inflight.discard(jid)
            site.watchable.discard(jid)
            if self.gridmanager is not None:
                self.gridmanager.slot_freed(site)
            site = None
        if contact and site is None:
            site = self._site_of[jid] = self.site(contact)
            site.inflight.add(jid)
        if site is None:
            return
        if job.committed and job.jmid and job.state in (J.PENDING, J.ACTIVE):
            if not site.watchable and self.gridmanager is not None:
                self.gridmanager.watch(site)    # its first: rouse a watcher
            site.watchable.add(jid)
        else:
            site.watchable.discard(jid)

    def site(self, contact: str) -> RemoteSite:
        """The record of `contact`, made at its first mention."""
        site = self.sites.get(contact)
        if site is None:
            site = self.sites[contact] = RemoteSite(contact)
        return site

    # -- submission ------------------------------------------------------------
    def submit(self, request, resource: str = "",
               job_id: str = "") -> str:
        job = GridJob(job_id=job_id or self.queue.new_id(),
                      request=request, resource=resource)
        self.queue.submit(job, resource=resource or "(broker)")
        self.sim.metrics.counter("scheduler.jobs_queued").inc()
        self.sim.metrics.counter("scheduler.user_jobs_queued").inc(
            label=self.user)
        self._ensure_gridmanager()
        if self.gridmanager is not None:
            self.gridmanager.kick()
        return job.job_id

    def _ensure_gridmanager(self) -> None:
        if self.gridmanager is None or self.gridmanager.exited:
            self.gridmanager = GridManager(self, self.user, self.host)

    def gridmanager_exited(self) -> None:
        # every job is terminal: what the sites' records still hold was
        # that GridManager's, and volatile like it
        self.gridmanager = None
        self.sites.clear()

    # -- queries ------------------------------------------------------------
    def jobs_for_user(self) -> list[GridJob]:
        """Every grid job of this scheduler's user, ascending job_id."""
        return sorted(self.queue.of(GridJob.UNIVERSES),
                      key=lambda job: job.job_id)

    # O(1)/O(k) accessors for the GridManager loops (index-backed).
    def job_by_jmid(self, jmid: str) -> Optional[GridJob]:
        return self._by_jmid.get(jmid)

    def watchable_jobs(self, site: RemoteSite) -> list[GridJob]:
        """Committed PENDING/ACTIVE jobs at `site`, ascending job_id."""
        return [self.queue.jobs[jid] for jid in sorted(site.watchable)]

    def nonterminal_count(self) -> int:
        return len(self._nonterminal)

    # -- cancellation -----------------------------------------------------------
    def cancel(self, job_id: str):
        """Generator: cancel a job locally and remotely."""
        job = self.queue.jobs.get(job_id)
        if job is None or job.is_terminal:
            return False
        if job.committed and job.jmid and self.gridmanager is not None:
            try:
                yield from self.gridmanager.client.cancel(job.contact,
                                                          job.jmid)
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
                # it back to PENDING so the GridManager reconnects to the
                # same jmid; resubmitting (UNSUBMITTED) would mint a new
                # sequence number and run the job a second time.
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
            self._ensure_gridmanager()
            self.gridmanager.kick()
        return released

    def credential_problem(self, job: GridJob, reason: str) -> None:
        """A GRAM operation failed authentication: hold the job."""
        if job.is_terminal or job.state in (J.HELD, J.STAGING_OUT):
            return    # nothing (more) a hold would stop
        self.sim.metrics.counter("scheduler.credential_holds").inc()
        job.hold_reason = f"credential problem: {reason}"
        self.queue.transition(job, J.HELD, "held", reason=job.hold_reason)
        self.queue.notifier.email(
            self.sim.now, f"{self.user}@example.edu",
            subject="job held: credential problem",
            body=f"{job.job_id}: {reason}")
