"""Checkpoint/restore for running simulations.

A :class:`SimSnapshot` is a replay point -- the provenance ``(scenario,
seed, plan, time)`` needed to rebuild the testbed -- and a canonical,
JSON-safe fingerprint to check the rebuild against: the kernel event
heap (tombstone-free, ``_seq`` preserved), every named RNG stream's
position in creation order, per-host state (stable storage, services,
live process names), the network fabric (partitions, isolation,
counters), the :class:`~repro.sim.failures.FailureInjector` record,
every daemon reachable from the testbed roots, the metrics snapshot,
and a trace watermark.  There is no document format to version: a
snapshot from another build is restored like any other, and
:func:`verify` names the first path where this build's replay differs.

Generator frames are not serialized (CPython cannot pickle a suspended
frame; the chaos runner ships ``(scenario, seed)`` across processes,
never simulators).  So a snapshot is *resumed* by running the live
testbed on (:func:`capture` is side-effect-free), *rehydrated* by
:func:`restore` (rebuild, re-apply the plan, replay to the snapshot
time, verify), or *forked* by :class:`ForkPoint` (evaluate futures in
``os.fork()`` children, no replay: shrink-from-snapshot uses it).

The contract (checked by ``tests/sim/test_snapshot_properties.py``):
``run(0, T)`` produces the same chaos run digest as ``run(0, t);
capture; restore; run(t, T)``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import pickle
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, TYPE_CHECKING

from .errors import SimulationError
from .failures import FailureInjector
from .hosts import Host, StableStorage
from .kernel import Entry, Event, Process, Simulator, Timeout, _UNSET
from .network import Network
from .rng import RngRegistry
from .stats import MetricsRegistry
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from ..grid.testbed import GridTestbed

#: structures deeper than this are fingerprinted as a type tag; the cap
#: is generous (daemon state sits well above it) and deterministic, so
#: both sides of a comparison truncate identically.
_MAX_DEPTH = 16


class SnapshotError(SimulationError):
    """Snapshot machinery misuse (missing provenance, fork unavailable)."""


class SnapshotMismatch(SnapshotError):
    """A rehydrated testbed's state diverged from the snapshot.

    Carries ``divergence`` -- ``{"path": ..., "snapshot": ...,
    "rebuilt": ...}`` for the first differing leaf -- so the failure
    points at the guilty subsystem instead of just two hashes.
    """

    def __init__(self, message: str, divergence: Optional[dict] = None):
        super().__init__(message)
        self.divergence = divergence or {}


# -- canonical state walking --------------------------------------------------
#
# The walker reduces arbitrary object graphs to JSON-safe structure:
# primitives pass through (floats as their exact ``repr``), containers
# recurse deterministically (dict keys sorted, sets sorted by canonical
# form), known simulator types become stable tags (their state is
# covered by dedicated sections), and everything else is walked through
# ``__dict__``/``__slots__``.  Revisited objects become ``<ref:...>``
# tags: the visit order is deterministic, so two identical states
# produce identical ref patterns, and cycles terminate.

_TAGGED_TYPES = (Simulator, Network, Trace, MetricsRegistry, RngRegistry,
                 FailureInjector)


def _callable_tag(fn: Any) -> str:
    name = getattr(fn, "__qualname__", None) or type(fn).__name__
    return f"<callable {name}>"


def _slot_names(cls: type) -> list[str]:
    out: list[str] = []
    for klass in cls.__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        out.extend(s for s in slots if s not in ("__dict__", "__weakref__"))
    return out


def _canon(obj: Any, memo: dict[int, bool], depth: int = 0) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, Enum):
        return f"<{type(obj).__name__}.{obj.name}>"
    if depth > _MAX_DEPTH:
        return f"<deep:{type(obj).__name__}>"

    # Simulator infrastructure: stable tags, state covered elsewhere.
    if isinstance(obj, _TAGGED_TYPES):
        return f"<{type(obj).__name__}>"
    if isinstance(obj, random.Random):
        return "<Random>"          # positions live in the rng section
    if isinstance(obj, Host):
        return f"<Host {obj.name}>"
    if isinstance(obj, Process):
        return f"<Process {obj.name} {'alive' if obj._alive else 'dead'}>"
    if isinstance(obj, Event):
        state = "triggered" if obj.triggered else "pending"
        return f"<{type(obj).__name__} {obj.name} {state}>"
    if isinstance(obj, Entry):
        return f"<Entry {_entry_name(obj)} {obj._cancelled}>"
    if isinstance(obj, itertools.count):
        return repr(obj)           # "count(42)": deterministic
    if isinstance(obj, BaseException):
        return f"<{type(obj).__name__}: {obj}>"

    oid = id(obj)
    if oid in memo:
        return f"<ref:{type(obj).__name__}>"

    if isinstance(obj, dict):
        memo[oid] = True
        return {str(k): _canon(v, memo, depth + 1)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, deque)):
        memo[oid] = True
        return [_canon(v, memo, depth + 1) for v in obj]
    if isinstance(obj, (set, frozenset)):
        memo[oid] = True
        members = [_canon(v, memo, depth + 1) for v in obj]
        return sorted(members,
                      key=lambda m: json.dumps(m, sort_keys=True))
    if isinstance(obj, (bytes, bytearray)):
        return f"<bytes:{hashlib.sha256(bytes(obj)).hexdigest()[:16]}>"
    if isinstance(obj, StableStorage):
        memo[oid] = True
        return {"@type": "StableStorage",
                "@state": _canon(obj._data, memo, depth + 1)}
    if callable(obj) and not hasattr(obj, "__dict__"):
        return _callable_tag(obj)
    if hasattr(obj, "gi_frame"):   # generator object
        return f"<generator {getattr(obj, '__name__', 'gen')}>"

    # Generic object: walk instance state.
    state = getattr(obj, "__dict__", None)
    if state is None:
        names = _slot_names(type(obj))
        state = {n: getattr(obj, n) for n in names if hasattr(obj, n)}
    if not isinstance(state, dict):   # e.g. modules, odd proxies
        return f"<{type(obj).__name__}>"
    memo[oid] = True
    if callable(obj) and not state:
        return _callable_tag(obj)
    return {"@type": type(obj).__name__,
            "@state": {k: _canon(v, memo, depth + 1)
                       for k, v in sorted(state.items())}}


# -- fingerprint sections -----------------------------------------------------

def _entry_name(entry: Entry) -> str:
    """The callback a bare entry runs, and the process it resumes."""
    fn, owner = entry.fn, getattr(entry.fn, "__self__", None)
    name = getattr(fn, "__qualname__", type(fn).__name__)
    return f"{name}:{owner.name}" if isinstance(owner, Process) else name


def _heap_row(t: float, seq: int, item: Any) -> list:
    """One heap row; an RPC in flight is a ``_Request`` row named by the
    leg in flight, ``request`` or ``reply``."""
    if isinstance(item, Entry):
        return [repr(t), seq, "Entry", _entry_name(item),
                _value_tag(item.arg)]
    value = item._pending_value if isinstance(item, Timeout) else item._value
    return [repr(t), seq, type(item).__name__, item.name, _value_tag(value)]


def _value_tag(value: Any) -> Any:
    if isinstance(value, Event):     # a process resumed with its target
        return f"<{type(value).__name__} {value.name}>"
    if value is _UNSET or value is None:
        return None
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    return f"<{type(value).__name__}>"


def kernel_fingerprint(sim: Simulator) -> dict:
    """Canonical view of the event heap and kernel counters.

    Calls :meth:`Simulator.compact_heap` first: dropping tombstones is
    behaviour-neutral (cancelled entries are skipped on pop), and
    without it the raw heap bytes depend on whether -- and when --
    automatic compaction last ran.
    """
    sim.compact_heap()
    heap = [_heap_row(*row)
            for row in sorted(sim._heap, key=lambda row: row[:2])]
    return {
        "now": repr(sim.now),
        "seq": sim._seq,
        "heap": heap,
        "failures": [[proc.name, type(exc).__name__]
                     for proc, exc in sim._failures],
    }


def _host_fingerprint(host: Host, memo: dict[int, bool]) -> dict:
    return {
        "up": host.up,
        "site": host.site,
        "crash_count": host.crash_count,
        "stable": _canon(host.stable._data, memo, 1),
        "services": {name: _canon(svc, memo, 1)
                     for name, svc in sorted(host.services.items())},
        "processes": sorted(p.name for p in host.processes),
        "boot_actions": [_callable_tag(fn) for fn in host.boot_actions],
    }


def _network_fingerprint(net: Optional[Network]) -> Optional[dict]:
    if net is None:
        return None
    return {
        "latency": repr(net.latency),
        "jitter": repr(net.jitter),
        "loss_rate": repr(net.loss_rate),
        "lan_factor": repr(net.lan_factor),
        "partitions": sorted("|".join(sorted(pair))
                             for pair in net._partitions),
        "isolated": sorted(net._isolated),
        "sent": net.sent,
        "delivered": net.delivered,
        "dropped": net.dropped,
    }


def _trace_watermark(trace: Trace) -> dict:
    h = hashlib.sha256()
    memo: dict[int, bool] = {}
    for rec in trace._records:
        details = json.dumps(_canon(rec.details, memo, 8), sort_keys=True)
        memo.clear()
        h.update(f"{rec.time!r}|{rec.component}|{rec.event}|{details}\n"
                 .encode())
    return {
        "records": len(trace._records),
        "seq": trace._seq,
        "dropped": trace.dropped,
        "sha256": h.hexdigest(),
    }


def sim_fingerprint(sim: Simulator) -> dict:
    """Canonical state of a bare :class:`Simulator` (no testbed roots)."""
    memo: dict[int, bool] = {}
    return {
        "kernel": kernel_fingerprint(sim),
        "rng": [[name, _canon(list(state), memo, 1)]
                for name, state in sim.rng.snapshot_state()],
        "network": _network_fingerprint(sim.network),
        "hosts": {name: _host_fingerprint(host, memo)
                  for name, host in sorted(sim.hosts.items())},
        "metrics": _canon(sim.metrics.snapshot(), memo, 0),
        "trace": _trace_watermark(sim.trace),
    }


def state_roots(tb: "GridTestbed") -> dict[str, Any]:
    """The testbed attributes that hold daemon/topology state (a daemon
    installed with ``Host.boot`` is in its host's ``services``)."""
    return {
        "sites": tb.sites,
        "users": tb.users,
        "agents": tb.agents,
        "traffic": tb.traffic,
        "myproxy": tb.myproxy,
        "data_services": tb.data_services,
    }


def fingerprint(tb: "GridTestbed") -> dict:
    """Full canonical state of a testbed, as JSON-safe structure.

    Side-effect-free with respect to anything the run digest hashes: no
    trace records, no metric bumps, no RNG draws.  (It does compact heap
    tombstones, which is invisible to event ordering in every mode.)
    """
    fp = sim_fingerprint(tb.sim)
    memo: dict[int, bool] = {}
    fp["injector"] = [ev.to_dict() for ev in tb.failures.injected]
    fp["testbed"] = _canon(state_roots(tb), memo, 0)
    return _thaw(fp)


def _thaw(obj: Any) -> Any:
    """Normalize through JSON so stored and fresh fingerprints compare
    structurally (tuples become lists, float leaves are already reprs)."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _digest_of(fp: dict) -> str:
    blob = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def state_digest(tb: "GridTestbed") -> str:
    """SHA-256 over the full canonical state fingerprint."""
    return _digest_of(fingerprint(tb))


def _first_diff(a: Any, b: Any, path: str = "$") -> Optional[dict]:
    if type(a) is not type(b):
        return {"path": path, "snapshot": f"<{type(a).__name__}> {a!r:.80}",
                "rebuilt": f"<{type(b).__name__}> {b!r:.80}"}
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return {"path": f"{path}.{key}", "snapshot": "<absent>",
                        "rebuilt": repr(b[key])[:200]}
            if key not in b:
                return {"path": f"{path}.{key}",
                        "snapshot": repr(a[key])[:200],
                        "rebuilt": "<absent>"}
            found = _first_diff(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        for i, (va, vb) in enumerate(zip(a, b)):
            found = _first_diff(va, vb, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return {"path": f"{path}.length", "snapshot": len(a),
                    "rebuilt": len(b)}
        return None
    if a != b:
        return {"path": path, "snapshot": repr(a)[:200],
                "rebuilt": repr(b)[:200]}
    return None


# -- the snapshot object ------------------------------------------------------

#: each field of a snapshot document and the JSON types it may hold
_FIELD_TYPES = {"scenario": (str, type(None)), "seed": (int, type(None)),
                "plan": (dict, type(None)), "time": (int, float),
                "fingerprint": dict, "digest": str}


@dataclass
class SimSnapshot:
    """A replay point -- the provenance ``(scenario, seed, plan, time)``
    :func:`restore` rebuilds from -- and the fingerprint (with its
    digest) that the replayed state must match."""

    scenario: Optional[str]
    seed: Optional[int]
    plan: Optional[dict]
    time: float
    fingerprint: dict
    digest: str

    def to_json(self) -> str:
        # vars, not asdict: asdict deep-copies the fingerprint first
        return json.dumps(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "SimSnapshot":
        """Parse a :meth:`to_json` document, which is outside input: a
        JSON object with exactly these fields, of their types, and a
        finite non-negative ``time``, or a :class:`SnapshotError`.
        Whether its build fingerprints as this one does, :func:`restore`
        finds out by replay."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SnapshotError(f"snapshot document is not JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise SnapshotError("snapshot document is not a JSON object")
        if set(data) != set(_FIELD_TYPES):
            raise SnapshotError(
                f"snapshot document lacks keys "
                f"{sorted(set(_FIELD_TYPES) - set(data))}, has unknown keys "
                f"{sorted(set(data) - set(_FIELD_TYPES))}")
        for name, types in _FIELD_TYPES.items():
            if type(data[name]) is bool or not isinstance(data[name], types):
                raise SnapshotError(f"snapshot document: {name} has type "
                                    f"{type(data[name]).__name__}")
        if not 0 <= data["time"] < math.inf:
            raise SnapshotError(f"snapshot document: time {data['time']!r} "
                                f"is not finite and non-negative")
        return cls(**{**data, "time": float(data["time"])})


def capture(tb: "GridTestbed", scenario: Optional[str] = None,
            seed: Optional[int] = None, plan: Any = None) -> SimSnapshot:
    """Snapshot `tb` right now.

    ``scenario``/``seed``/``plan`` are the provenance :func:`restore`
    rebuilds from; ``seed`` defaults to the testbed config's seed.
    ``plan`` may be a FaultPlan (anything with ``to_dict``) or a dict.
    """
    if plan is not None and hasattr(plan, "to_dict"):
        plan = plan.to_dict()
    if seed is None:
        seed = tb.config.seed
    fp = fingerprint(tb)
    return SimSnapshot(scenario=scenario, seed=seed, plan=plan,
                       time=tb.sim.now, fingerprint=fp, digest=_digest_of(fp))


def verify(tb: "GridTestbed", snap: SimSnapshot) -> None:
    """Assert `tb`'s state is bit-identical to the snapshot's.

    Raises :class:`SnapshotMismatch` naming the first divergent path.
    """
    fresh = fingerprint(tb)
    if fresh == snap.fingerprint:
        return
    divergence = _first_diff(snap.fingerprint, fresh) or {}
    raise SnapshotMismatch(
        f"state diverged from snapshot at t={snap.time!r}: "
        f"{divergence.get('path', '?')}: "
        f"snapshot={divergence.get('snapshot')!r} "
        f"rebuilt={divergence.get('rebuilt')!r}", divergence)


def restore(snap: SimSnapshot) -> "GridTestbed":
    """Rebuild a live testbed in the snapshot's exact state.

    Generator frames cannot be serialized, so restore *rehydrates*:
    rebuild ``scenario.build(seed)``, re-apply the fault plan, replay to
    the snapshot time, then :func:`verify` bit-identity -- failing
    loudly rather than returning a silently-divergent simulation.
    """
    if snap.scenario is None or snap.seed is None:
        raise SnapshotError(
            "snapshot carries no (scenario, seed) provenance; capture() "
            "with scenario=... to make it restorable")
    from ..chaos.plan import FaultPlan
    from ..grid.scenarios import get_scenario

    try:
        scenario = get_scenario(snap.scenario)
        plan = FaultPlan.from_dict(snap.plan or {})
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"cannot replay snapshot: {exc.args[0]}") from None
    tb = scenario.build(snap.seed)
    if plan.events:
        plan.apply(tb)
    tb.run(until=snap.time)
    verify(tb, snap)
    return tb


# -- fork-based O(1) restore --------------------------------------------------

class ForkPoint:
    """Evaluate candidate futures of a live testbed without replaying.

    Holds the *parent* process at the snapshot instant; each
    :meth:`eval` forks a child, runs ``fn()`` against the (copy-on-
    write) simulator state, and ships the picklable result back over a
    pipe.  The parent never advances, so every evaluation starts from
    exactly the same state -- a true O(1) in-memory restore, and the
    only way to resume a generator-based simulation without replaying
    it.  The child exits with ``os._exit`` so no atexit/coverage hooks
    of the host process run twice.

    POSIX-only (``os.fork``); callers should check :meth:`supported`
    and fall back to replay-from-zero.
    """

    @staticmethod
    def supported() -> bool:
        return hasattr(os, "fork")

    def __init__(self) -> None:
        if not self.supported():
            raise SnapshotError("os.fork is unavailable on this platform")
        self.evaluations = 0

    def eval(self, fn: Callable[[], Any]) -> Any:
        self.evaluations += 1
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:   # child
            try:
                os.close(read_fd)
                try:
                    payload = pickle.dumps((True, fn()))
                except BaseException as exc:  # noqa: BLE001 - report upward
                    payload = pickle.dumps(
                        (False, f"{type(exc).__name__}: {exc}"))
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(len(payload).to_bytes(8, "big"))
                    pipe.write(payload)
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            header = pipe.read(8)
            size = int.from_bytes(header, "big") if len(header) == 8 else -1
            payload = pipe.read(size) if size >= 0 else b""
        os.waitpid(pid, 0)
        if size < 0 or len(payload) != size:
            raise SnapshotError("forked evaluation died before reporting")
        ok, value = pickle.loads(payload)
        if not ok:
            raise SnapshotError(f"forked evaluation failed: {value}")
        return value


__all__ = [
    "ForkPoint", "SimSnapshot", "SnapshotError", "SnapshotMismatch",
    "capture", "fingerprint", "kernel_fingerprint", "restore",
    "sim_fingerprint", "state_digest", "state_roots", "verify",
]
