"""Condor-G core: the computation management agent (paper §4-§5)."""

from .api import CondorGAgent, JobDescription, JobStatus
from .broker import (
    Broker,
    MatchmakingBroker,
    QueueAwareBroker,
    UserListBroker,
)
from .flood import FloodedJob, FloodingSubmitter
from .credmon import CredentialMonitor
from .gcat import assemble_chunks, gcat_wrap
from .glidein import GlideInManager, GlideInSpec
from .gridmanager import GridManager
from .job import (
    ACTIVE,
    DONE,
    FAILED,
    GridJob,
    HELD,
    PENDING,
    SUBMITTING,
    UNSUBMITTED,
)
from .submitfile import SubmitFileError, parse_submit_file, \
    submit_from_file
from .tools import condor_history, condor_q
from .userlog import Email, LogEvent, Notifier, UserLog

__all__ = [
    "ACTIVE", "Broker", "CondorGAgent",
    "CredentialMonitor", "DONE", "Email", "FAILED", "GlideInManager",
    "FloodedJob", "FloodingSubmitter", "GlideInSpec", "GridJob",
    "GridManager", "HELD", "JobDescription", "MatchmakingBroker",
    "JobStatus", "LogEvent", "Notifier", "PENDING",
    "QueueAwareBroker", "SUBMITTING", "UNSUBMITTED", "UserListBroker",
    "SubmitFileError", "UserLog", "assemble_chunks", "condor_history",
    "condor_q", "gcat_wrap",
    "parse_submit_file", "submit_from_file",
]
