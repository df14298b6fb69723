"""The Condor-G Scheduler: the persistent queue of grid jobs.

The Scheduler is the first box of Figure 1: it accepts user submissions,
stores every job (and each job's protocol progress) in the submit
machine's stable storage, spawns one GridManager per user with queued
grid jobs, and is the point where holds/releases and completion
notifications happen.  A scheduler built after a submit-machine crash
reads the queue back from disk, and its GridManager reconnects to (or
safely resubmits) every job -- the §4.2 "protect against local failure"
story.
"""

from __future__ import annotations

import bisect
from typing import Optional

from ..sim.errors import SimulationError
from ..sim.hosts import Host
from ..states import GRID_EDGES, IllegalTransition, check_edge
from . import job as J
from .broker import Broker
from .gridmanager import GridManager
from .job import GridJob, next_grid_job_id
from .userlog import Notifier, UserLog

QUEUE_NS = "condorg-queue"
REQUEST_NS = "condorg-queue-request"
USERLOG_NS = "condorg-userlog"


class CondorGScheduler:
    """Per-user persistent job queue + GridManager lifecycle."""

    def __init__(
        self,
        host: Host,
        user: str,
        broker: Optional[Broker] = None,
        notifier: Optional[Notifier] = None,
        max_submitted_per_resource: Optional[int] = None,
        data_services=None,
        grid_monitor: bool = False,
    ):
        self.host = host
        self.sim = host.sim
        self.user = user
        self.broker = broker
        # audience -> signing proof; the agent sets it once its
        # credential monitor exists (None: no GSI)
        self.credential_source = None
        # Grid Monitor fan-in (§5.1): True has the GridManager launch a
        # site's monitor from the first job instead of when its own load
        # there calls for one (GridManager.MONITOR_MIN_JOBS).
        self.grid_monitor = grid_monitor
        # Data-management wiring (repro.data.DataServices) or None; the
        # GridManager stages input datasets / places output datasets
        # through these services when a job declares any.
        self.data_services = data_services
        # Fair-share throttle: cap this user's in-flight jobs
        # (SUBMITTING/PENDING/ACTIVE) per remote resource, so one agent
        # cannot monopolize a gatekeeper in a multi-tenant grid.
        self.max_submitted_per_resource = max_submitted_per_resource
        self.notifier = notifier or Notifier()
        self.userlog = UserLog(
            host.stable.namespace(f"{USERLOG_NS}:{user}"))
        self.jobs: dict[str, GridJob] = {}
        # Incremental views of `jobs`, refreshed by _reindex() on every
        # persist() (every state mutation persists, so they can never go
        # stale); the GridManager loops read these instead of scanning
        # the whole queue.
        self._nonterminal: set[str] = set()
        self._unsubmitted: set[str] = set()
        self._watchable: dict[str, str] = {}     # job_id -> its contact
        self._watchable_at: dict[str, set[str]] = {}    # and the inverse
        self._by_jmid: dict[str, GridJob] = {}
        self._jmid_of: dict[str, str] = {}
        self._sorted_jobs: list[GridJob] = []    # ascending job_id
        # Throttle bookkeeping: resource contact -> in-flight job count,
        # plus which resource each job is currently counted against.
        self._inflight: dict[str, int] = {}
        self._inflight_res: dict[str, str] = {}
        self._last_depth = 0
        self._store = host.stable.namespace(f"{QUEUE_NS}:{user}")
        self._requests = host.stable.namespace(f"{REQUEST_NS}:{user}")
        self.gridmanager: Optional[GridManager] = None
        self._recover_queue()

    # -- the one writer of GridJob.state ----------------------------------------
    def transition(self, job: GridJob, state: str, event: str = "",
                   **details) -> None:
        """Move `job` along a declared edge of ``GRID_EDGES`` (any other
        raises :class:`IllegalTransition` on the spot), persist it and log
        `event`.  A terminal state stamps ``end_time`` and, unless the
        caller names the event, reports through :meth:`job_finished`;
        leaving HELD clears the reason and logs ``released`` whoever
        causes it.  Set the other fields the step changes first."""
        check_edge(GRID_EDGES, job.job_id, job.state, state)
        released = job.state == J.HELD
        if released:
            job.hold_reason = ""
        elif state != J.HELD and job.hold_reason:
            raise IllegalTransition(f"{job.job_id}: {state} with "
                                    f"hold_reason {job.hold_reason!r}")
        job.state = state
        if job.is_terminal:
            job.end_time = self.sim.now
        self.persist(job)
        if released and event != "released":
            self.log(job, "released")
        if event:
            self.log(job, event, **details)
        elif job.is_terminal:
            self.job_finished(job)
        if job.is_terminal and self.gridmanager is not None:
            self.gridmanager.kick()

    # -- persistence ----------------------------------------------------------
    def persist(self, job: GridJob) -> None:
        """Rewrite the job's progress record (`submit` wrote the request:
        it is large and frozen, so it goes to disk once, not per state
        change)."""
        self._store.put(job.job_id, job.progress_record())
        self._reindex(job)
        depth = len(self._nonterminal)
        # Applied as a delta so N concurrent per-user schedulers sharing
        # one registry yield a true grid-wide depth instead of whichever
        # agent persisted last clobbering the gauge.
        self.sim.metrics.gauge("scheduler.queue_depth").inc(
            depth - self._last_depth)
        self._last_depth = depth

    def _reindex(self, job: GridJob) -> None:
        jid = job.job_id
        if job.is_terminal:
            self._nonterminal.discard(jid)
        else:
            self._nonterminal.add(jid)
        if job.state == J.UNSUBMITTED:
            self._unsubmitted.add(jid)
        else:
            self._unsubmitted.discard(jid)
        watchable = bool(job.committed and job.jmid
                         and job.state in (J.PENDING, J.ACTIVE))
        contact = (job.contact or job.resource) if watchable else None
        old_contact = self._watchable.get(jid)
        if contact != old_contact:
            if old_contact is not None:
                self._watchable_at[old_contact].discard(jid)
                del self._watchable[jid]
            if watchable:
                self._watchable[jid] = contact
                self._watchable_at.setdefault(contact, set()).add(jid)
                if old_contact is None and self.gridmanager is not None:
                    self.gridmanager.notify_watchable()
        old_jmid = self._jmid_of.get(jid, "")
        if old_jmid != job.jmid:
            if old_jmid:
                self._by_jmid.pop(old_jmid, None)
            if job.jmid:
                self._by_jmid[job.jmid] = job
            self._jmid_of[jid] = job.jmid
        # In-flight-per-resource tally (the submit throttle's input).
        res = job.resource if (job.resource and not job.is_terminal
                               and job.state in (J.STAGING, J.SUBMITTING,
                                                 J.PENDING, J.ACTIVE)) \
            else ""
        old_res = self._inflight_res.get(jid, "")
        if old_res != res:
            if old_res:
                left = self._inflight.get(old_res, 0) - 1
                if left > 0:
                    self._inflight[old_res] = left
                else:
                    self._inflight.pop(old_res, None)
                if self.gridmanager is not None:
                    self.gridmanager.slot_freed(old_res)
            if res:
                self._inflight[res] = self._inflight.get(res, 0) + 1
                self._inflight_res[jid] = res
            else:
                self._inflight_res.pop(jid, None)

    def _add_job(self, job: GridJob) -> None:
        self.jobs[job.job_id] = job
        bisect.insort(self._sorted_jobs, job, key=lambda j: j.job_id)
        self._reindex(job)

    def _recover_queue(self) -> None:
        for key, record in self._store.items():
            job = GridJob.from_record(
                {**record, "request": self._requests.get(key)})
            self.jobs[job.job_id] = job
        self._sorted_jobs = sorted(self.jobs.values(),
                                   key=lambda j: j.job_id)
        for job in self.jobs.values():
            self._reindex(job)
        # The grid-wide gauge still carries what our predecessor last
        # added to it, which is this depth: every change was persisted.
        self._last_depth = len(self._nonterminal)
        live = [j for j in self.jobs.values() if not j.is_terminal]
        if live:
            self.sim.trace.log("scheduler", "recovered", user=self.user,
                               jobs=len(live))
            self._ensure_gridmanager()

    # -- submission ------------------------------------------------------------
    def submit(self, request, resource: str = "",
               job_id: str = "") -> str:
        job = GridJob(job_id=job_id or next_grid_job_id(),
                      request=request, resource=resource)
        job.submit_time = self.sim.now
        self._add_job(job)
        self._requests.put(job.job_id, job.stored_request())
        self.persist(job)
        self.sim.metrics.counter("scheduler.jobs_queued").inc()
        self.sim.metrics.counter("scheduler.user_jobs_queued").inc(
            label=self.user)
        self.log(job, "queued", resource=resource or "(broker)")
        self._ensure_gridmanager()
        if self.gridmanager is not None:
            self.gridmanager.kick()
        return job.job_id

    def _ensure_gridmanager(self) -> None:
        if self.gridmanager is None or self.gridmanager.exited:
            self.gridmanager = GridManager(self, self.user, self.host)

    def gridmanager_exited(self) -> None:
        self.gridmanager = None

    # -- queries ------------------------------------------------------------
    def jobs_for_user(self) -> list[GridJob]:
        """Every job of this scheduler's user, ascending job_id."""
        return list(self._sorted_jobs)

    def status(self, job_id: str) -> GridJob:
        return self.jobs[job_id]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for job in self.jobs.values():
            out[job.state] = out.get(job.state, 0) + 1
        return out

    def all_terminal(self) -> bool:
        return not self._nonterminal

    # O(1)/O(k) accessors for the GridManager loops (index-backed).
    def job_by_jmid(self, jmid: str) -> Optional[GridJob]:
        return self._by_jmid.get(jmid)

    def watchable_jobs(self, contact: Optional[str] = None) -> list[GridJob]:
        """Committed PENDING/ACTIVE jobs (all, or those at `contact`),
        ascending job_id."""
        jids = self._watchable if contact is None \
            else self._watchable_at.get(contact, ())
        return [self.jobs[jid] for jid in sorted(jids)]

    def watchable_count(self) -> int:
        return len(self._watchable)

    def unsubmitted_ids(self) -> set[str]:
        return self._unsubmitted

    def unsubmitted_jobs(self) -> list[GridJob]:
        return [self.jobs[jid] for jid in sorted(self._unsubmitted)]

    def nonterminal_count(self) -> int:
        return len(self._nonterminal)

    def inflight_on(self, resource: str) -> int:
        """This user's SUBMITTING/PENDING/ACTIVE jobs at `resource`."""
        return self._inflight.get(resource, 0)

    # -- cancellation -----------------------------------------------------------
    def cancel(self, job_id: str):
        """Generator: cancel a job locally and remotely."""
        job = self.jobs.get(job_id)
        if job is None or job.is_terminal:
            return False
        if job.committed and job.jmid and self.gridmanager is not None:
            try:
                yield from self.gridmanager.client.cancel(job.contact,
                                                          job.jmid)
            except SimulationError:
                raise
            except Exception:  # noqa: BLE001 - cancel is best effort
                pass
            if job.is_terminal:
                return False    # finished while the remote cancel ran
        job.failure_reason = "removed by user"
        self.transition(job, J.FAILED, "removed")
        return True

    # -- holds ---------------------------------------------------------------
    def hold_for_credentials(self, reason: str = "") -> int:
        held = 0
        for job in self.jobs.values():
            if job.state in (J.UNSUBMITTED,):
                job.hold_reason = reason
                self.transition(job, J.HELD, "held", reason=reason)
                held += 1
        return held

    def release_credential_holds(self) -> int:
        released = 0
        for job in self.jobs.values():
            if job.state == J.HELD:
                # A job held *mid-flight* (credential error discovered by
                # the status probe) still has a committed remote JobManager
                # that may be running -- or have finished -- the job.  Release
                # it back to PENDING so the GridManager reconnects to the
                # same jmid; resubmitting (UNSUBMITTED) would mint a new
                # sequence number and run the job a second time.
                if job.committed and job.jmid:
                    self.transition(job, J.PENDING, "released")
                else:
                    # Held between the two phases: that JobManager was
                    # never committed and aborts itself; forget it, so
                    # its reports cannot touch the next attempt.
                    job.jmid = job.contact = ""
                    self.transition(job, J.UNSUBMITTED, "released")
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
        self.transition(job, J.HELD, "held", reason=job.hold_reason)
        self.notifier.email(
            self.sim.now, f"{self.user}@example.edu",
            subject="job held: credential problem",
            body=f"{job.job_id}: {reason}")

    # -- completion -----------------------------------------------------------
    def job_finished(self, job: GridJob) -> None:
        event = "terminate" if job.state == J.DONE else "failed"
        self.sim.metrics.counter("scheduler.jobs_finished").inc(label=event)
        self.sim.metrics.counter("scheduler.user_jobs_finished").inc(
            label=self.user)
        self.log(job, event, exit_code=job.exit_code,
                 reason=job.failure_reason)
        self.notifier.fire(job.job_id, event,
                           exit_code=job.exit_code,
                           reason=job.failure_reason)
        if job.state == J.FAILED:
            self.notifier.email(
                self.sim.now, f"{self.user}@example.edu",
                subject=f"job failed: {job.job_id}",
                body=job.failure_reason)

    # -- logging ------------------------------------------------------------
    def log(self, job: GridJob, event: str, **details) -> None:
        self.userlog.add(self.sim.now, job.job_id, event, **details)
        self.sim.trace.log("scheduler", event, user=self.user,
                           job=job.job_id, **details)
