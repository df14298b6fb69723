"""Condor job model: job ads plus execution behaviour.

A Condor job is described by a ClassAd (Requirements/Rank/ImageSize/...)
and characterized by how much work it does (``runtime`` of slot-seconds)
and its universe:

* ``vanilla`` -- no checkpointing: preemption restarts it from scratch;
* ``standard`` -- linked with the Condor syscall/checkpoint library:
  periodic checkpoints flow to the submit side, preemption resumes from
  the last checkpoint, and file I/O is redirected to the Shadow as remote
  system calls (paper §5).

``io_interval``/``io_bytes`` model Remote I/O traffic: every interval the
job performs a remote syscall of that size through its Shadow, as the
MW-QAP workers did (paper §6: "each worker used Remote I/O services to
communicate with the master").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..classads import ClassAd
from ..sim.fastcopy import FrozenDict
from ..states import POOL_EDGES, POOL_RECOVER, JobState, check_edge
from .queue import QueueRecord

# Module-level aliases: the enum members compare and serialize exactly
# like the string literals they replace (see repro.states).
IDLE = JobState.IDLE
MATCHED = JobState.MATCHED
RUNNING = JobState.RUNNING
COMPLETED = JobState.COMPLETED
REMOVED = JobState.REMOVED
HELD = JobState.HELD

@dataclass
class CondorJob(QueueRecord):
    """One pool job in a job queue (run by a Schedd)."""

    UNIVERSES = ("vanilla", "standard")
    EDGES = POOL_EDGES
    FROZEN = "ad"
    PARKED = frozenset({HELD})
    # what a JobStatus reads that only grid records have
    failure_reason = ""
    max_attempts = 0

    job_id: str
    ad: ClassAd
    runtime: float
    universe: str = "vanilla"          # vanilla | standard
    io_interval: float = 0.0           # 0 = no remote I/O
    io_bytes: int = 0
    state: str = IDLE
    progress: float = 0.0              # work completed (standard universe)
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    exit_code: Optional[int] = None
    matched_to: str = ""               # startd name
    matched_host: str = ""             # host the startd lives on
    restarts: int = 0
    checkpoints: int = 0
    remote_syscalls: int = 0
    total_goodput: float = 0.0         # work preserved across restarts
    hold_reason: str = ""
    # Application behaviour run inside the remote sandbox (not persisted;
    # a recovered queue reruns such jobs only if resubmitted with it).
    program: Optional[Callable] = None
    # Submit-side handler for the job's remote syscalls (e.g. a master
    # serving get_task/put_result to its workers).  Not persisted.
    syscall_handler: Optional[Callable] = None

    @property
    def resource(self) -> str:
        return self.matched_to

    @property
    def attempts(self) -> int:
        return self.restarts

    def progress_record(self) -> FrozenDict:
        """Everything persisted but the ad (no callables), as of now:
        what each state change rewrites."""
        return FrozenDict(
            job_id=self.job_id,
            runtime=self.runtime,
            universe=self.universe,
            io_interval=self.io_interval,
            io_bytes=self.io_bytes,
            state=self.state,
            progress=self.progress,
            submit_time=self.submit_time,
            start_time=self.start_time,
            end_time=self.end_time,
            exit_code=self.exit_code,
            matched_to=self.matched_to,
            restarts=self.restarts,
            checkpoints=self.checkpoints,
            hold_reason=self.hold_reason,
        )

    def frozen_record(self) -> str:
        """The ad as it goes to disk (only condor_prio rewrites it)."""
        return str(self.ad)

    def evicted_by_crash(self, was: str) -> Optional[dict]:
        # the crash took its shadow: the log says where it resumes from
        return {"checkpoint": self.progress} if was == RUNNING else None

    @classmethod
    def from_record(cls, record: dict) -> "CondorJob":
        record = dict(record)
        job = cls(ad=ClassAd.parse(record.pop("ad")).seal(), **record)
        # Anything that was mid-flight when we crashed is idle again.
        if job.state in (MATCHED, RUNNING):
            check_edge(POOL_RECOVER, job.job_id, job.state, IDLE)
            job.state = IDLE
            job.matched_to = ""
        return job


def job_ad(
    owner: str,
    requirements: str = "true",
    rank: str = "0",
    image_size: int = 32,
    **extra: Any,
) -> ClassAd:
    """Build a job ad with the conventional attributes."""
    ad = ClassAd({"Owner": owner, "ImageSize": image_size})
    ad.set_expression("Requirements", requirements)
    ad.set_expression("Rank", rank)
    ad.update(ClassAd(extra))
    return ad
