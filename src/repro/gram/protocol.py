"""GRAM protocol definitions (paper §3.2).

Job request structure and the GRAM job states; the edges between them
are ``repro.states.GRAM_EDGES``.

``UNCOMMITTED`` is the window between the two phases of the commit
protocol: the JobManager exists and holds the request, but nothing has
been submitted to the local scheduler.  If the commit never arrives the
JobManager aborts -- this is the *at-most-once* half of exactly-once.
The client retrying `submit` with the same sequence number until it gets
a response is the *at-least-once* half.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..sim.fastcopy import FrozenDict, Immutable

# GRAM job states
UNCOMMITTED = "UNCOMMITTED"
STAGE_IN = "STAGE_IN"
PENDING = "PENDING"
ACTIVE = "ACTIVE"
DONE = "DONE"
FAILED = "FAILED"

GRAM_TERMINAL = frozenset({DONE, FAILED})

# LRM state -> GRAM state
_LRM_TO_GRAM = {
    "QUEUED": PENDING,
    "RUNNING": ACTIVE,
    "COMPLETED": DONE,
    "FAILED": FAILED,
    "CANCELLED": FAILED,
}


def gram_state_of(lrm_state: str) -> str:
    return _LRM_TO_GRAM[lrm_state]


class Refusal(str, enum.Enum):
    """Why a gatekeeper refused a phase-1 ``submit``."""

    USER_JOBMANAGERS = "USER_JOBMANAGERS"   # the caller's own are too many
    SITE_JOBMANAGERS = "SITE_JOBMANAGERS"   # the machine-wide cap
    RATE = "RATE"                           # admission token bucket empty
    DEPTH = "DEPTH"                         # LRM queue-depth backpressure


class GatekeeperBusy(Exception):
    """A refused phase-1 ``submit``: congestion, never failure.  Crosses
    the wire as the refused answer (these fields plus ``message``); the
    client raises it again.  ``user_limit``: the per-user JobManager
    limit in force, as in every answer; ``retry_after``: how long to
    wait when the remedy is nothing the client can observe."""

    def __init__(self, reason: Refusal, user_limit: Optional[int],
                 retry_after: float, message: str = ""):
        super().__init__(message or reason.name)
        self.reason, self.user_limit = reason, user_limit
        self.retry_after = retry_after


@dataclass(frozen=True)
class GramJobRequest(Immutable):
    """The RSL of a job: what the client asks a gatekeeper to run.

    ``executable_url``/``stdin_url`` point at the client's GASS server
    for stage-in; ``stdout_url`` is where the JobManager streams output.
    ``program`` carries an executable *behaviour* (for GlideIns); plain
    jobs just consume ``runtime`` seconds.  An immutable value: a dict
    or list given for a field is frozen, ``with_env``/``replace`` build a
    new request.
    """

    executable_url: str = ""
    stdin_url: str = ""
    stdout_url: str = ""
    stderr_url: str = ""
    # remote file name -> client GASS URL, staged out on completion
    output_files: FrozenDict = field(default_factory=FrozenDict)
    # logical dataset names the job reads; the GridManager stages them
    # to the site's storage element before GRAM submission (repro.data)
    input_datasets: tuple = ()
    # (name, size) pairs the job produces; placed at the site's storage
    # element and registered in the replica catalog on terminal success
    output_datasets: tuple = ()
    runtime: float = 1.0
    walltime: Optional[float] = None
    cpus: int = 1
    env: FrozenDict = field(default_factory=FrozenDict)
    program: Optional[Callable] = None
    exit_code: int = 0
    label: str = ""

    def with_env(self, **env: Any) -> "GramJobRequest":
        return replace(self, env={**self.env, **env})


def to_lrm_spec(request: GramJobRequest):
    """Convert a GRAM request into a local scheduler JobSpec."""
    from ..lrm.base import JobSpec

    return JobSpec(
        executable=request.executable_url or request.label or "a.out",
        runtime=request.runtime,
        walltime=request.walltime,
        cpus=request.cpus,
        env=request.env,
        program=request.program,
        exit_code=request.exit_code,
    )
