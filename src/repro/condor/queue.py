"""The job queue: every job one agent (or one pool Schedd) holds.

In the paper the Condor-G Scheduler *is* the persistent Condor queue:
one submit path, one ``condor_q``, one user log and one set of callbacks
for every universe (§4.1, Figure 2).  :class:`JobQueue` keeps every
record on the submit machine's disk (the frozen request or ad once, the
progress record at every change), reads them back after a crash, is the
one writer of their state and builds every :class:`JobStatus`.  What
runs the jobs is each universe's *executor* -- the ``GridManager`` for
``grid``, the ``Schedd``'s claims and shadows for ``vanilla``/``standard``
-- called back after every change.  Where
the universes differ, the record type declares it (:class:`QueueRecord`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional

from ..sim.hosts import Host
from ..states import COMPLETE_STATES, TERMINAL_STATES, IllegalTransition, \
    JobState, check_edge, is_complete, is_terminal

QUEUE_NS = "job-queue"            # progress records, one write per change
FROZEN_NS = "job-queue-frozen"    # request / ad, written at submission


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time snapshot of one job."""

    job_id: str
    state: str
    universe: str
    resource: str = ""
    exit_code: Optional[int] = None
    failure_reason: str = ""
    hold_reason: str = ""
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    attempts: int = 0
    max_attempts: int = 0

    @property
    def is_complete(self) -> bool:
        return is_complete(self.state)

    @property
    def is_terminal(self) -> bool:
        return is_terminal(self.state)


class QueueRecord:
    """What a job record type declares to the queue that holds it; it
    also has the fields :class:`JobStatus` reads, ``progress_record()``
    (rewritten at every change), ``frozen_record()`` (written once) and a
    ``from_record`` classmethod taking both joined, which applies the
    type's crash-recovery relation."""

    #: the universes whose jobs are records of this type
    UNIVERSES: ClassVar[tuple]
    #: the transition relation (``repro.states``) its writer checks
    EDGES: ClassVar[dict]
    #: the key ``from_record`` expects the frozen part under
    FROZEN: ClassVar[str]
    #: states only the user moves a record out of: a queue whose records
    #: are all terminal or parked has nothing left to run
    PARKED: ClassVar[frozenset] = frozenset()

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def queue_record(self) -> dict:
        """Both halves joined: what ``from_record`` takes."""
        return {**self.progress_record(), self.FROZEN: self.frozen_record()}

    def evicted_by_crash(self, was: str) -> Optional[dict]:
        """User-log details of the ``evicted`` event a submit-machine
        crash in state `was` costs this record, or None for no event."""
        return None


def job_number(job_id: str) -> int:
    """The ``N`` of a queue's job id ``"N.0"``: the order of submission."""
    return int(job_id.partition(".")[0])


class JobQueue:
    """One persistent queue of job records, with one writer.

    `owner` names it on disk and in ``scheduler`` trace records; `kinds`
    are the record types it holds; `userlog` and `notifier` are the
    user's §4.1 surface (a pool Schedd with no user behind it has none).
    It numbers every record it holds, in every universe, from one
    counter (:meth:`new_id`): ids are unique per queue, so a join across
    agents keys by owner.
    """

    def __init__(self, host: Host, owner: str, kinds: tuple,
                 userlog=None, notifier=None):
        self.host = host
        self.sim = host.sim
        self.owner = owner
        self.userlog = userlog
        self.notifier = notifier
        self.jobs: dict[str, QueueRecord] = {}
        self._executors: dict[str, object] = {}     # universe -> executor
        self._in_state: dict[str, set[str]] = {}    # state -> job ids
        self._progress = host.stable.namespace(f"{QUEUE_NS}:{owner}")
        self._frozen = host.stable.namespace(f"{FROZEN_NS}:{owner}")
        record_type = {universe: kind for kind in kinds
                       for universe in kind.UNIVERSES}
        last = 0
        for key, record in self._progress.items():
            last = max(last, job_number(key))
            kind = record_type[record["universe"]]
            job = kind.from_record(
                {**record, kind.FROZEN: self._frozen.get(key)})
            self.jobs[key] = job
            self._index(job, None)
            if job.state != record["state"]:
                # the disk says what recovery made of it
                self._progress.put(key, job.progress_record())
                evicted = job.evicted_by_crash(record["state"])
                if evicted is not None:
                    self.log(job, "evicted", **evicted)
        # numbering continues past the highest id on disk, so a
        # rebooted submit machine never reissues one
        self._ids = itertools.count(last + 1)

    # -- executors ---------------------------------------------------------
    def attach(self, executor, universes: tuple) -> list:
        """`executor` runs the records of `universes`: called back
        (``moved(job, was)``) after every write, asked to ``remove``.
        Returns the records it already has, in queue order."""
        for universe in universes:
            self._executors[universe] = executor
        return list(self.of(universes))

    def of(self, universes: tuple) -> Iterator[QueueRecord]:
        """The records of `universes`, in queue order."""
        return (job for job in self.jobs.values() if job.universe in universes)

    # -- the one writer ------------------------------------------------------
    def new_id(self) -> str:
        """The next job id, ``"N.0"`` (Condor's cluster.proc)."""
        return f"{next(self._ids)}.0"

    def submit(self, job: QueueRecord, **details) -> str:
        """Enter `job`: its frozen part goes to disk now and never again;
        ``queued`` is logged with `details`."""
        if job.job_id in self.jobs:
            raise ValueError(f"{job.job_id} is already queued")
        job.submit_time = self.sim.now
        self.jobs[job.job_id] = job
        self._frozen.put(job.job_id, job.frozen_record())
        self._write(job, None)
        self.log(job, "queued", **details)
        return job.job_id

    def transition(self, job: QueueRecord, state: str, event: str = "",
                   **details) -> None:
        """Move `job` along a declared edge of its own relation (any other
        raises :class:`IllegalTransition` on the spot), persist it, call
        its executor back, and log `event`.  Leaving HELD clears the
        reason and logs ``released`` whoever causes it.  A terminal state
        stamps ``end_time``; unless the caller names the event, it is
        logged and counted as ``terminate``/``failed``; and every terminal
        state but a removal fires the notifier (and e-mails a failure).
        Set the other fields the step changes first."""
        was = job.state
        check_edge(job.EDGES, job.job_id, was, state)
        if was == JobState.HELD:
            job.hold_reason = ""
        elif state != JobState.HELD and job.hold_reason:
            raise IllegalTransition(f"{job.job_id}: {state} with "
                                    f"hold_reason {job.hold_reason!r}")
        job.state = state
        terminal = state in TERMINAL_STATES
        if terminal:
            job.end_time = self.sim.now
        self._write(job, was)
        if was == JobState.HELD and event != "released":
            self.log(job, "released")
        if not event and terminal:
            # (only grid jobs finish unnamed: a pool job's finish is its
            # shadow's `terminate` or the user's `removed`)
            event = "terminate" if state in COMPLETE_STATES else "failed"
            self.sim.metrics.counter("scheduler.jobs_finished").inc(
                label=event)
            self.sim.metrics.counter("scheduler.user_jobs_finished").inc(
                label=self.owner)
            details = {"exit_code": job.exit_code,
                       "reason": job.failure_reason}
        if event:
            self.log(job, event, **details)
        if terminal and event != "removed" and self.notifier is not None:
            self.notifier.fire(job.job_id, event, exit_code=job.exit_code,
                               reason=job.failure_reason)
            if state == JobState.FAILED:
                self.notifier.email(
                    self.sim.now, subject=f"job failed: {job.job_id}",
                    body=job.failure_reason)

    def persist(self, job: QueueRecord, frozen: bool = False) -> None:
        """Rewrite `job`'s progress record after a change that is not a
        state change (and its frozen part too, if `frozen`)."""
        if frozen:
            self._frozen.put(job.job_id, job.frozen_record())
        self._write(job, job.state)

    def _write(self, job: QueueRecord, was: Optional[str]) -> None:
        self._progress.put(job.job_id, job.progress_record())
        self._index(job, was)
        self._executors[job.universe].moved(job, was)

    def _index(self, job: QueueRecord, was: Optional[str]) -> None:
        if was is not None:
            self._in_state[was].discard(job.job_id)
        ids = self._in_state.get(job.state)
        if ids is None:
            ids = self._in_state[job.state] = set()
        ids.add(job.job_id)

    def log(self, job: QueueRecord, event: str, **details) -> None:
        """One user-log record and one ``scheduler`` trace record about
        `job`."""
        if self.userlog is not None:
            self.userlog.add(self.sim.now, job.job_id, event, **details)
        self.sim.trace.log("scheduler", event, user=self.owner,
                           job=job.job_id, **details)

    # -- user operations -----------------------------------------------------
    def remove(self, job_id: str) -> None:
        """condor_rm: ask the job's executor to remove it."""
        job = self.jobs.get(job_id)
        if job is not None:
            self._executors[job.universe].remove(job_id)

    # -- queries ---------------------------------------------------------------
    def ids_in(self, state: str) -> set[str]:
        """The ids of the records in `state` (a live view: do not mutate)."""
        return self._in_state.get(state) or set()

    def all_terminal(self) -> bool:
        """Every record is terminal or parked (waits for its user)."""
        return all(state in TERMINAL_STATES
                   or all(state in self.jobs[jid].PARKED for jid in ids)
                   for state, ids in self._in_state.items())

    def status(self, job_id: str) -> JobStatus:
        job = self.jobs[job_id]
        return JobStatus(
            job_id=job.job_id, state=job.state, universe=job.universe,
            resource=job.resource, exit_code=job.exit_code,
            failure_reason=job.failure_reason, hold_reason=job.hold_reason,
            submit_time=job.submit_time, start_time=job.start_time,
            end_time=job.end_time, attempts=job.attempts,
            max_attempts=job.max_attempts)

    def statuses(self) -> list[JobStatus]:
        """Every job, in job-id order (``"2.0"`` before ``"10.0"``)."""
        return [self.status(job_id)
                for job_id in sorted(self.jobs, key=job_number)]
