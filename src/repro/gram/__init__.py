"""GRAM: Grid Resource Allocation and Management (paper §3.2).

Gatekeeper + JobManager on the resource side; two-phase-commit client on
the submit side; the legacy one-phase client kept as an exactly-once
baseline.
"""

from .client import Gram1Client, Gram2Client, GramClientError
from .gatekeeper import Gatekeeper
from .jobmanager import JobManager
from .monitor import GridMonitor
from .protocol import (
    ACTIVE,
    DONE,
    FAILED,
    GRAM_TERMINAL,
    GatekeeperBusy,
    GramJobRequest,
    PENDING,
    Refusal,
    STAGE_IN,
    UNCOMMITTED,
    gram_state_of,
    to_lrm_spec,
)

__all__ = [
    "ACTIVE", "DONE", "FAILED", "GRAM_TERMINAL", "Gatekeeper",
    "GatekeeperBusy", "Gram1Client", "Gram2Client", "GramClientError",
    "GramJobRequest", "GridMonitor",
    "JobManager", "PENDING", "Refusal", "STAGE_IN", "UNCOMMITTED",
    "gram_state_of",
    "to_lrm_spec",
]
