"""Structured event tracing.

Every subsystem reports interesting transitions (`sim.trace.log(component,
event, **details)`), producing a single ordered record of the run.  The
Figure-1/Figure-2 benchmarks assert the component interaction sequence
directly against this trace, and the metrics module derives concurrency
timelines from it.

The trace is *indexed*: records are bucketed per component, per event,
and per ``(component, event)`` pair, so :meth:`Trace.select` and
:meth:`Trace.contains_sequence` answer from the relevant bucket instead
of scanning the whole run.  The buckets are built lazily on first query
rather than per ``log()`` call, which keeps the hot logging path to a
single append.  It can also be *bounded* (``max_records``): the oldest
records are evicted ring-buffer style (``dropped`` counts them) while
the indexes stay consistent, so long-running simulations hold memory
constant.  Subscribers still see
every record as it is logged, bounded or not -- streaming consumers
(metrics, live dashboards) never miss anything.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


@dataclass(frozen=True, slots=True)
class TraceRecord:
    time: float
    component: str
    event: str
    details: dict[str, Any] = field(default_factory=dict)
    seq: int = 0        # global log order (total, unlike `time`)

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:12.3f}] {self.component:<24} {self.event:<28} {kv}"


class Trace:
    """Indexed (and optionally bounded) log of :class:`TraceRecord`."""

    def __init__(self, sim: "Simulator", enabled: bool = True,
                 max_records: Optional[int] = None):
        self.sim = sim
        self.enabled = enabled
        self.max_records = max_records
        self.dropped = 0
        self._records: deque[TraceRecord] = deque()
        self._by_key: dict[tuple[str, str], deque[TraceRecord]] = {}
        self._by_component: dict[str, deque[TraceRecord]] = {}
        self._by_event: dict[str, deque[TraceRecord]] = {}
        # Records logged but not yet folded into the three indexes: a
        # suffix of _records (indexing is deferred to the first query,
        # so runs that are never queried never pay for the buckets).
        self._pending: deque[TraceRecord] = deque()
        self._seq = 0
        self._subscribers: list[Callable[[TraceRecord], None]] = []

    @property
    def records(self) -> list[TraceRecord]:
        """The retained records, oldest first (a copy; don't mutate)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def log(self, component: str, event: str, **details: Any) -> None:
        if not self.enabled:
            return
        self._seq += 1
        rec = TraceRecord(self.sim.now, component, event, details, self._seq)
        self._records.append(rec)
        self._pending.append(rec)
        if self.max_records is not None:
            while len(self._records) > self.max_records:
                self._evict_oldest()
        for sub in self._subscribers:
            sub(rec)

    def _index_one(self, rec: TraceRecord) -> None:
        self._by_key.setdefault((rec.component, rec.event), deque()).append(rec)
        self._by_component.setdefault(rec.component, deque()).append(rec)
        self._by_event.setdefault(rec.event, deque()).append(rec)

    def _ensure_index(self) -> None:
        """Fold any unindexed records into the query indexes."""
        pending = self._pending
        while pending:
            self._index_one(pending.popleft())

    def _evict_oldest(self) -> None:
        # The globally oldest record is also the oldest entry of each of
        # its index buckets (buckets are filled in log order), so every
        # eviction is an O(1) popleft from all four deques.  With lazy
        # indexing, records still sitting in _pending (a suffix of
        # _records) were never indexed, so when eviction catches up to
        # them only _pending needs the popleft.
        old = self._records.popleft()
        self.dropped += 1
        if self._pending and self._pending[0] is old:
            self._pending.popleft()
            return
        for index, key in (
            (self._by_key, (old.component, old.event)),
            (self._by_component, old.component),
            (self._by_event, old.event),
        ):
            bucket = index[key]
            bucket.popleft()
            if not bucket:
                del index[key]

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        self._subscribers.append(fn)

    # -- queries ----------------------------------------------------------
    def select(
        self,
        component: Optional[str] = None,
        event: Optional[str] = None,
        **match: Any,
    ) -> list[TraceRecord]:
        self._ensure_index()
        if component is not None and event is not None:
            base: Iterable[TraceRecord] = \
                self._by_key.get((component, event), ())
        elif component is not None:
            base = self._by_component.get(component, ())
        elif event is not None:
            base = self._by_event.get(event, ())
        else:
            base = self._records
        if not match:
            return list(base)
        return [rec for rec in base
                if all(rec.details.get(k) == v for k, v in match.items())]

    def events(self, component: Optional[str] = None) -> list[str]:
        """Ordered event names, optionally restricted to one component."""
        if component is not None:
            self._ensure_index()
            return [r.event for r in self._by_component.get(component, ())]
        return [r.event for r in self._records]

    def contains_sequence(self, *events: str, component: Optional[str] = None
                          ) -> bool:
        """True if `events` occur in order (not necessarily adjacent)."""
        it: Iterator[str] = iter(self.events(component))
        return all(ev in it for ev in events)

    def components(self) -> list[str]:
        """Component names with retained records, in first-seen order."""
        self._ensure_index()
        return list(self._by_component)

    def iter_prefix(self, component_prefix: str) -> Iterator[TraceRecord]:
        """Records of every component matching the prefix, in log order.

        Merges the matching per-component buckets by global sequence
        number, so only components under the prefix are ever touched.
        """
        self._ensure_index()
        matching = [bucket for comp, bucket in self._by_component.items()
                    if comp.startswith(component_prefix)]
        if not matching:
            return iter(())
        if len(matching) == 1:
            return iter(matching[0])
        return heapq.merge(*matching, key=lambda r: r.seq)

    def end_time(self) -> Optional[float]:
        """Time of the newest retained record (None when empty)."""
        return self._records[-1].time if self._records else None

    def dump(self, limit: Optional[int] = None) -> str:
        recs = self.records if limit is None else self.records[:limit]
        return "\n".join(str(r) for r in recs)

    def clear(self) -> None:
        self._records.clear()
        self._by_key.clear()
        self._by_component.clear()
        self._by_event.clear()
        self._pending.clear()
        self.dropped = 0
