"""Condor: intra-domain computation management (paper §1, §5, Figure 2).

Collector + Negotiator (matchmaking), Schedd (persistent queue), Startd +
Starter (execution slot with sandboxing, remote syscalls, checkpointing),
Shadow (submit-side syscall server and lease watcher), and pool assembly
helpers.  The GlideIn mechanism of :mod:`repro.core.glidein` starts these
same daemons on Grid resources via GRAM.
"""

from .collector import Collector
from .jobs import (
    COMPLETED,
    CondorJob,
    HELD,
    IDLE,
    MATCHED,
    REMOVED,
    RUNNING,
    job_ad,
)
from .negotiator import Negotiator
from .pool import CondorPool, build_pool
from .schedd import Schedd
from .shadow import Shadow
from .startd import Startd, WorkerContext, machine_ad

__all__ = [
    "COMPLETED", "CondorJob", "CondorPool", "Collector", "HELD", "IDLE",
    "MATCHED", "Negotiator", "REMOVED", "RUNNING", "Schedd", "Shadow",
    "Startd", "WorkerContext", "build_pool", "job_ad", "machine_ad",
]
