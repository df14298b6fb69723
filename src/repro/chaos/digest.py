"""Canonical run digests and the determinism auditor.

"Deterministic simulation" is only worth something if it is *checked*:
:func:`run_digest` reduces a finished run to a stable SHA-256 over the
trace, the metrics snapshot, and the terminal state of every queue, and
:func:`audit_determinism` (see :mod:`repro.chaos.runner`) runs the same
``(scenario, seed)`` twice and fails on any divergence.  Any wall-clock
read, global-RNG draw, or dict-ordering dependence sneaking into the
simulator shows up here as a digest mismatch long before it corrupts an
experiment.

Values are sanitized before hashing: anything that is not a JSON-ish
primitive is replaced by its type name, so object ``repr``\\ s containing
memory addresses can never leak nondeterminism into the digest.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import islice
from typing import Any, Iterator, TYPE_CHECKING

from ..sim.rng import sha256

if TYPE_CHECKING:  # pragma: no cover
    from ..grid.testbed import GridTestbed

_details = json.JSONEncoder(sort_keys=True).encode
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def sanitize(value: Any, depth: int = 6) -> Any:
    """Reduce `value` to deterministic JSON-serializable structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if depth <= 0:
        return f"<{type(value).__name__}>"
    if isinstance(value, dict):
        return {str(k): sanitize(v, depth - 1)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [sanitize(v, depth - 1) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: sanitize(getattr(value, f.name), depth - 1)
                for f in dataclasses.fields(value)}
    return f"<{type(value).__name__}>"


def _trace_lines(tb: "GridTestbed") -> Iterator[str]:
    """One compact line per retained trace record, in log order."""
    for rec in tb.sim.trace:
        details = _details(sanitize(rec.details))
        yield f"{rec.time!r}|{rec.component}|{rec.event}|{details}"


def trace_fingerprint(tb: "GridTestbed") -> list[str]:
    """The trace lines the digest hashes, as a list."""
    return list(_trace_lines(tb))


def _agent_row(job) -> dict:
    """What the digest keeps of one record of an agent's queue."""
    return {"state": job.state, "resource": job.resource,
            "exit_code": job.exit_code, "attempts": job.attempts,
            "hold_reason": job.hold_reason,
            "failure_reason": job.failure_reason}


def _site_row(job) -> dict:
    """What the digest keeps of one job of a site's LRM."""
    return {"state": job.state, "owner": job.owner,
            "exit_code": job.exit_code}


def _queues(tb: "GridTestbed") -> dict:
    """Per part, ``(name, row, table)`` of each agent's queue or each
    site's LRM in name order; a table maps a job's key to its record."""
    return {"agents": [(name, _agent_row, agent.queue.jobs)
                       for name, agent in sorted(tb.agents.items())],
            "sites": [(name, _site_row, site.lrm.jobs)
                      for name, site in sorted(tb.sites.items())]}


def queue_state(tb: "GridTestbed") -> dict:
    """Terminal queue state of every record in every agent's queue, in
    every universe, and of every site LRM."""
    return {part: {name: {key: row(job) for key, job in table.items()}
                   for name, row, table in queues}
            for part, queues in _queues(tb).items()}


def _queue_pieces(tb: "GridTestbed") -> Iterator[str]:
    """``_dump(sanitize(queue_state(tb)))`` in pieces, a queue's records
    256 at a time, in the order ``sanitize`` sorts them."""
    opening = "{"
    for part, queues in _queues(tb).items():
        yield f'{opening}"{part}":{{'
        sep = ""
        for name, row, table in queues:
            yield f"{sep}{_dump(name)}:{{"
            keys = sorted(table, key=str)
            for i in range(0, len(keys), 256):
                chunk = {key: row(table[key]) for key in keys[i:i + 256]}
                yield ("," if i else "") + _dump(sanitize(chunk, 4))[1:-1]
            yield "}"
            sep = ","
        yield "}"
        opening = ","
    yield "}"


def digest_parts(tb: "GridTestbed") -> dict:
    """The five sanitized components the digest hashes: the trace
    fingerprint, the count of dropped trace records, the metrics
    snapshot, the terminal queue state and the final simulated time."""
    return {
        "trace": trace_fingerprint(tb),
        "trace_dropped": tb.sim.trace.dropped,
        "metrics": sanitize(tb.sim.metrics.snapshot()),
        "queues": sanitize(queue_state(tb)),
        "time": tb.sim.now,
    }


def run_digest(tb: "GridTestbed") -> str:
    """Stable SHA-256 of ``json.dumps(digest_parts(tb), sort_keys=True,
    separators=(",", ":"))``, fed in pieces: the queues 256 records and
    the trace 256 lines at a time."""
    sim = tb.sim
    h = sha256(f'{{"metrics":{_dump(sanitize(sim.metrics.snapshot()))}'
               f',"queues":'.encode())
    for piece in _queue_pieces(tb):
        h.update(piece.encode())
    h.update(f',"time":{_dump(sim.now)},"trace":['.encode())
    lines, sep = _trace_lines(tb), ""
    while chunk := list(islice(lines, 256)):
        h.update(f"{sep}{_dump(chunk)[1:-1]}".encode())
        sep = ","
    h.update(f'],"trace_dropped":{_dump(sim.trace.dropped)}}}'.encode())
    return h.hexdigest()


def first_divergence(a: list[str], b: list[str]) -> dict:
    """Locate the first differing trace line between two fingerprints."""
    for i, (la, lb) in enumerate(zip(a, b)):
        if la != lb:
            return {"index": i, "first": la, "second": lb}
    if len(a) != len(b):
        i = min(len(a), len(b))
        return {"index": i,
                "first": a[i] if i < len(a) else "<end of trace>",
                "second": b[i] if i < len(b) else "<end of trace>"}
    return {}
