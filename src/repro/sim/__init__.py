"""Deterministic discrete-event simulation substrate.

This package is the testbed the whole Condor-G reproduction runs on: a
generator-based event loop (:mod:`~repro.sim.kernel`), hosts with
crash/restart semantics and stable storage (:mod:`~repro.sim.hosts`), a
lossy/partitionable network (:mod:`~repro.sim.network`), an RPC layer with
at-most-once semantics (:mod:`~repro.sim.rpc`), failure injection
(:mod:`~repro.sim.failures`), and structured tracing
(:mod:`~repro.sim.trace`).
"""

from .errors import (
    AuthenticationError,
    AuthorizationError,
    HostDown,
    Interrupt,
    ProcessKilled,
    RemoteError,
    RPCError,
    RPCTimeout,
    ServiceUnavailable,
    SimulationError,
)
from .failures import FailureInjector
from .hosts import Host, StableNamespace, StableStorage
from .kernel import AnyOf, Event, Process, Simulator, Timeout
from .network import Network
from .rng import RngRegistry
from .rpc import CallContext, Service, call, notify
from .stats import Counter, Gauge, Histogram, MetricsRegistry
from .sync import Semaphore
from .trace import Trace, TraceRecord

__all__ = [
    "AnyOf", "AuthenticationError", "AuthorizationError",
    "CallContext", "Counter", "Event", "FailureInjector",
    "Gauge", "Histogram", "Host", "HostDown", "Interrupt",
    "MetricsRegistry", "Network", "Process", "ProcessKilled",
    "RemoteError", "RngRegistry", "RPCError", "RPCTimeout",
    "Semaphore", "Service", "ServiceUnavailable",
    "SimulationError", "Simulator", "StableNamespace", "StableStorage",
    "Timeout", "Trace", "TraceRecord", "call", "notify",
]
