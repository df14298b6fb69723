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

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..classads import ClassAd
from ..sim.fastcopy import FrozenDict
from ..states import POOL_RECOVER, JobState, check_edge

# Module-level aliases: the enum members compare and serialize exactly
# like the string literals they replace (see repro.states).
IDLE = JobState.IDLE
MATCHED = JobState.MATCHED
RUNNING = JobState.RUNNING
COMPLETED = JobState.COMPLETED
REMOVED = JobState.REMOVED
HELD = JobState.HELD

_ids = itertools.count(1)


def next_cluster_id() -> str:
    return f"{next(_ids)}.0"


def reset_cluster_ids() -> None:
    """Restart cluster numbering (testbed isolation helper)."""
    global _ids
    _ids = itertools.count(1)


@dataclass
class CondorJob:
    """One queue entry in a Schedd."""

    job_id: str
    ad: ClassAd
    runtime: float
    universe: str = "vanilla"          # vanilla | standard | grid
    io_interval: float = 0.0           # 0 = no remote I/O
    io_bytes: int = 0
    ckpt_bytes: int = 0                # checkpoint image size (standard)
    ckpt_server: str = ""              # site-local checkpoint server host
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
    def owner(self) -> str:
        return self.ad.get("Owner", "nobody")

    def progress_record(self) -> FrozenDict:
        """Everything persisted but the ad (no callables), as of now:
        what each state change rewrites."""
        return FrozenDict(
            job_id=self.job_id,
            runtime=self.runtime,
            universe=self.universe,
            io_interval=self.io_interval,
            io_bytes=self.io_bytes,
            ckpt_bytes=self.ckpt_bytes,
            ckpt_server=self.ckpt_server,
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

    def queue_record(self) -> dict:
        """Both halves joined: what :meth:`from_record` takes."""
        return {**self.progress_record(), "ad": str(self.ad)}

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
    ad = ClassAd()
    ad["Owner"] = owner
    ad["ImageSize"] = image_size
    ad.set_expression("Requirements", requirements)
    ad.set_expression("Rank", rank)
    for key, value in extra.items():
        ad[key] = value
    return ad
