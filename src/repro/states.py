"""The unified job-state vocabulary.

Three queue layers each grew their own state strings -- the Condor-G
grid queue (``core.job``), the Condor pool queue (``condor.jobs``), and
the site batch systems (``lrm.base``) -- plus ad-hoc literal tuples in
``core.api`` and ``chaos.invariants`` deciding what counts as finished.
:class:`JobState` is the single spelling of all of them.

It is a *str* enum: every member ``==`` its literal value, hashes like
it, formats like it, JSON-serializes as it, and round-trips through
stable storage and the network layer unchanged.  Code (and persisted
records from older runs) carrying plain strings keeps working; the enum
adds the shared ``is_terminal`` / ``is_complete`` vocabulary so the
"which strings mean done?" question has one answer.
"""

from __future__ import annotations

import enum

from .sim.errors import SimulationError


class JobState(str, enum.Enum):
    """Every job state across the grid-queue, pool, and LRM layers."""

    # Condor-G grid queue (paper §4.2 state machine, plus the
    # data-placement phases from repro.data)
    UNSUBMITTED = "UNSUBMITTED"
    STAGING = "STAGING"           # inputs moving to the chosen site's SE
    SUBMITTING = "SUBMITTING"
    PENDING = "PENDING"
    ACTIVE = "ACTIVE"
    STAGING_OUT = "STAGING_OUT"   # remote DONE; outputs being placed
    DONE = "DONE"
    FAILED = "FAILED"
    HELD = "HELD"

    # Condor pool queue (Schedd)
    IDLE = "IDLE"
    MATCHED = "MATCHED"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    REMOVED = "REMOVED"

    # Site batch systems (LRMs)
    QUEUED = "QUEUED"
    CANCELLED = "CANCELLED"

    # Behave exactly like the underlying string everywhere it is
    # printed, formatted, or serialized (default Enum.__str__ would
    # yield "JobState.DONE" and change every trace and digest).
    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def is_terminal(self) -> bool:
        """The state is absorbing: the job will never run again."""
        return self in TERMINAL_STATES


#: States no job ever leaves, across all layers.
TERMINAL_STATES = frozenset({
    JobState.DONE, JobState.COMPLETED, JobState.FAILED,
    JobState.REMOVED, JobState.CANCELLED,
})

#: Successful completion, across all layers.
COMPLETE_STATES = frozenset({JobState.DONE, JobState.COMPLETED})


_S = JobState

#: The grid queue's transition relation (``core.job.GridJob``, paper
#: §4.2): the only edges ``JobQueue.transition`` will take.  Every table
#: here is walked through real code by ``tests/core/test_state_relations.py``.
GRID_EDGES = {
    _S.UNSUBMITTED: frozenset({_S.STAGING, _S.SUBMITTING, _S.HELD,
                               _S.FAILED}),
    _S.STAGING: frozenset({_S.SUBMITTING, _S.UNSUBMITTED, _S.FAILED}),
    _S.SUBMITTING: frozenset({_S.PENDING, _S.ACTIVE, _S.STAGING_OUT,
                              _S.DONE, _S.UNSUBMITTED, _S.FAILED, _S.HELD}),
    _S.PENDING: frozenset({_S.ACTIVE, _S.STAGING_OUT, _S.DONE,
                           _S.UNSUBMITTED, _S.FAILED, _S.HELD}),
    _S.ACTIVE: frozenset({_S.PENDING, _S.STAGING_OUT, _S.DONE,
                          _S.UNSUBMITTED, _S.FAILED, _S.HELD}),
    _S.STAGING_OUT: frozenset({_S.DONE, _S.FAILED}),
    # held mid-flight, the remote job runs on: its reports still apply
    _S.HELD: frozenset({_S.UNSUBMITTED, _S.PENDING, _S.ACTIVE,
                        _S.STAGING_OUT, _S.DONE, _S.FAILED}),
    _S.DONE: frozenset(),
    _S.FAILED: frozenset(),
}

#: What a submit-machine crash does to an in-flight grid record; only
#: ``GridJob.from_record`` takes these.
GRID_RECOVER = {
    _S.SUBMITTING: frozenset({_S.PENDING, _S.UNSUBMITTED}),
    _S.STAGING: frozenset({_S.UNSUBMITTED}),
    _S.STAGING_OUT: frozenset({_S.PENDING, _S.UNSUBMITTED}),
}

#: The pool queue's relation (``condor.jobs.CondorJob``), likewise.
POOL_EDGES = {
    _S.IDLE: frozenset({_S.MATCHED, _S.HELD, _S.REMOVED}),
    # (COMPLETED: a short job's exit can overtake the activation reply)
    _S.MATCHED: frozenset({_S.RUNNING, _S.IDLE, _S.REMOVED, _S.COMPLETED}),
    _S.RUNNING: frozenset({_S.COMPLETED, _S.IDLE, _S.REMOVED}),
    _S.HELD: frozenset({_S.IDLE, _S.REMOVED}),
    _S.COMPLETED: frozenset(),
    _S.REMOVED: frozenset(),
}

#: Only ``CondorJob.from_record``: mid-flight at the crash is idle again.
POOL_RECOVER = {
    _S.MATCHED: frozenset({_S.IDLE}),
    _S.RUNNING: frozenset({_S.IDLE}),
}

# -- the site side: each taken only by its record's ``_move`` -----------------
#: A GRAM JobManager (``gram.jobmanager``, paper §3.2).  A restart from its
#: state file takes running edges only (before the commit it aborts, after
#: it resumes), so there is no recover table.
GRAM_EDGES = {
    "UNCOMMITTED": frozenset({"STAGE_IN", "FAILED"}),
    "STAGE_IN": frozenset({"PENDING", "FAILED"}),
    # (PENDING -> DONE: a short job finishes between two sweeps)
    "PENDING": frozenset({"ACTIVE", "DONE", "FAILED"}),
    "ACTIVE": frozenset({"PENDING", "DONE", "FAILED"}),   # requeued
    "DONE": frozenset(), "FAILED": frozenset(),
}

#: A Condor startd slot (``condor.startd``, paper §5).  Unclaimed is not
#: absorbing: the slot dies by ``Startd.kill`` or shutdown, not by state.
STARTD_EDGES = {
    "Unclaimed": frozenset({"Claimed"}),
    "Claimed": frozenset({"Busy", "Unclaimed"}),
    "Busy": frozenset({"Claimed", "Unclaimed"}),
}

#: A DAG node (``dagman``); a retry re-runs the node inside RUNNING.
DAG_EDGES = {
    "WAITING": frozenset({"READY"}),
    "READY": frozenset({"RUNNING"}),
    "RUNNING": frozenset({"DONE", "FAILED"}),
    "DONE": frozenset(), "FAILED": frozenset(),
}

#: Only loading a rescue file: a node the last run finished is done.
DAG_RECOVER = {"WAITING": frozenset({"DONE"})}

#: One flooded logical job (``core.flood``, paper §4.4).
FLOOD_EDGES = {
    "FLOODED": frozenset({"RUNNING", "FAILED"}),
    "RUNNING": frozenset({"DONE", "FAILED"}),
    "DONE": frozenset(), "FAILED": frozenset(),
}


class IllegalTransition(SimulationError):
    """A record was asked to take an edge its relation lacks."""


def check_edge(edges: dict, record: str, old: str, new: str) -> None:
    """Raise :class:`IllegalTransition` unless ``edges`` has old -> new
    (`record`: a job id, ``jm:<jmid>``, ``startd:<name>``, ``dag:<node>``)."""
    if new not in edges.get(old, ()):
        raise IllegalTransition(f"{record}: {old} -> {new} is not declared")


def is_terminal(state: str) -> bool:
    """`state` (enum member or plain string) is absorbing."""
    return state in TERMINAL_STATES


def is_complete(state: str) -> bool:
    """`state` (enum member or plain string) is a successful finish."""
    return state in COMPLETE_STATES
