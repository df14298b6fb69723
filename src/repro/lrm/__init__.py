"""Local resource managers: PBS, LSF, LoadLeveler, NQE, fork, Condor pools."""

from .base import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    ExecutionContext,
    JobSpec,
    LocalResourceManager,
    LRMJob,
)
from .flavors import (
    FLAVORS,
    CondorPoolLRM,
    ForkLRM,
    LoadLevelerCluster,
    LSFCluster,
    NQECluster,
    PBSCluster,
    make_lrm,
)

__all__ = [
    "CANCELLED", "COMPLETED", "CondorPoolLRM", "ExecutionContext", "FAILED",
    "FLAVORS", "ForkLRM", "JobSpec", "LoadLevelerCluster", "LRMJob",
    "LSFCluster", "LocalResourceManager", "NQECluster", "PBSCluster",
    "QUEUED", "RUNNING", "TERMINAL_STATES", "make_lrm",
]
