"""Grid job records held in the agent's job queue.

The state machine (paper §4.2) is declared once, as
``repro.states.GRID_EDGES`` (``GRID_RECOVER`` for what a crash does); the
queue's ``transition`` is its only writer.

Everything needed to survive a submit-machine crash is in
``queue_record()``: notably the GRAM *sequence number* (so a recovered
GridManager retries the same logical submission instead of creating a
new one) and the JobManager contact (so it reconnects instead of
resubmitting).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..condor.queue import QueueRecord
from ..gram.protocol import GramJobRequest
from ..sim.fastcopy import FrozenDict
from ..states import GRID_EDGES, GRID_RECOVER, JobState, check_edge

# Module-level aliases: the enum members compare and serialize exactly
# like the string literals they replace (see repro.states).
UNSUBMITTED = JobState.UNSUBMITTED
STAGING = JobState.STAGING
SUBMITTING = JobState.SUBMITTING
PENDING = JobState.PENDING
ACTIVE = JobState.ACTIVE
STAGING_OUT = JobState.STAGING_OUT
DONE = JobState.DONE
FAILED = JobState.FAILED
HELD = JobState.HELD

@dataclass
class GridJob(QueueRecord):
    """One grid job in the agent's job queue (run by the GridManager)."""

    UNIVERSES = ("grid",)
    EDGES = GRID_EDGES
    FROZEN = "request"

    job_id: str
    request: GramJobRequest
    resource: str = ""            # gatekeeper contact ("" = broker decides)
    state: str = UNSUBMITTED
    seq: Optional[int] = None     # GRAM sequence number (persisted!)
    jmid: str = ""
    contact: str = ""
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    exit_code: Optional[int] = None
    failure_reason: str = ""
    hold_reason: str = ""
    attempts: int = 0             # resubmissions after remote failures
    max_attempts: int = 5
    committed: bool = False       # two-phase commit completed
    universe: str = "grid"

    # -- persistence ----------------------------------------------------------
    def frozen_record(self) -> GramJobRequest:
        """The request as it goes to disk (frozen, so written once)."""
        request = self.request
        if request.program is not None:
            # Callables do not survive a crash; the resubmitting layer
            # (e.g. the GlideIn manager) owns re-creating such jobs.
            request = replace(request, program=None)
        return request

    def progress_record(self) -> FrozenDict:
        """The mutable fields, as of now: what every state change
        rewrites."""
        return FrozenDict(
            job_id=self.job_id,
            resource=self.resource,
            state=self.state,
            seq=self.seq,
            jmid=self.jmid,
            contact=self.contact,
            submit_time=self.submit_time,
            start_time=self.start_time,
            end_time=self.end_time,
            exit_code=self.exit_code,
            failure_reason=self.failure_reason,
            hold_reason=self.hold_reason,
            attempts=self.attempts,
            max_attempts=self.max_attempts,
            committed=self.committed,
            universe=self.universe,
        )

    @classmethod
    def from_record(cls, record: dict) -> "GridJob":
        job = cls(**record)
        if job.jmid and not job.committed and \
                job.state in (SUBMITTING, PENDING, ACTIVE, STAGING_OUT):
            # We crashed with phase 1 answered and the commit's fate
            # unknown (a callback may even have reported progress since).
            # As with a lost commit ACK, resubmitting could run the job
            # twice: reconnect via jmid and let the §4.2 probe find out --
            # a JobManager the commit never reached aborts by itself, and
            # that failure is safe to resubmit.
            job.committed = True
        state = job.state
        if state == SUBMITTING:
            # We crashed mid-protocol.  With a JobManager contact we
            # reconnect; otherwise a new attempt is submitted and the
            # uncommitted remote JobManager (if any) aborts itself.
            state = PENDING if job.committed else UNSUBMITTED
        elif state == STAGING:
            # Input staging is idempotent (replicas already placed are
            # found in the catalog and skipped), so just start over.
            state = UNSUBMITTED
        elif state == STAGING_OUT:
            # The remote run finished; reconnecting via jmid re-reports
            # DONE and re-runs the (idempotent) output placement.
            state = PENDING if (job.committed and job.jmid) \
                else UNSUBMITTED
        if state != job.state:
            check_edge(GRID_RECOVER, job.job_id, job.state, state)
            job.state = state
        return job
