"""Data-locality-aware resource brokering.

The :class:`~repro.core.broker.QueueAwareBroker` picks the emptiest
queue; for staging-bound workloads that is exactly wrong -- an idle site
with none of the job's input data costs a multi-gigabyte WAN transfer
before the job can start.  :class:`DataAwareBroker` scores each
candidate by *expected time to useful work*:

    score = queue_wait_estimate + bytes_missing_at_site / link_bandwidth

where ``bytes_missing_at_site`` comes from one replica-catalog lookup
per input dataset (shared across all candidate sites) and the queue
estimate from the same live ``queue_info`` probe the queue-aware broker
uses.  Lowest score wins; ties break to the freer, earlier-listed site,
so the choice is deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.broker import Broker
from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import call
from .services import DataServices

if TYPE_CHECKING:  # pragma: no cover
    from ..core.job import GridJob

#: Pessimistic queue-wait estimate per queued CPU ahead of us (seconds).
WAIT_PER_QUEUED_CPU = 30.0


class DataAwareBroker(Broker):
    """Pick the site where (queue wait + input staging) ends soonest."""

    def __init__(self, host: Host, resources: list[str],
                 data: DataServices, credential_source=None,
                 wait_per_queued_cpu: float = WAIT_PER_QUEUED_CPU):
        if not resources:
            raise ValueError("need at least one resource contact")
        self.host = host
        self.sim = host.sim
        self.resources = list(resources)
        self.data = data
        self.credential_source = credential_source
        self.wait_per_queued_cpu = wait_per_queued_cpu

    def _credential(self, audience: str):
        if self.credential_source is None:
            return None
        return self.credential_source(audience)

    def _dataset_entries(self, job: "GridJob"):
        """One catalog lookup per input dataset (shared across sites)."""
        entries = {}
        for name in getattr(job.request, "input_datasets", ()):
            try:
                entry = yield from call(
                    self.host, self.data.catalog_host, "rls", "lookup",
                    timeout=30.0,
                    credential=self._credential(self.data.catalog_host),
                    name=name)
            except RPCError:
                # Unknown dataset or catalog outage: no locality signal
                # for this dataset; staging will surface the real error.
                continue
            entries[name] = entry
        return entries

    def missing_bytes(self, entries: dict, contact: str) -> float:
        """Input bytes not yet present at `contact`'s storage element."""
        se = self.data.storage_element(contact)
        if not se:
            # A data job cannot run where there is nowhere to stage to.
            return float("inf") if entries else 0.0
        return float(sum(entry["size"] for entry in entries.values()
                         if se not in entry["replicas"]))

    def pick(self, job: "GridJob", has_room):
        candidates = list(filter(has_room, self.resources))
        if not candidates:
            return None     # nowhere to go: no catalog or queue look-ups
        entries = yield from self._dataset_entries(job)
        bandwidth = self.data.link_bandwidth or 1.0
        best, best_score, best_missing = None, None, 0.0
        for contact in candidates:
            try:
                info = yield from call(
                    self.host, contact, "gatekeeper", "queue_info",
                    timeout=10.0, credential=self._credential(contact))
            except RPCError:
                continue
            free = max(info.get("free_slots", 0), 0)
            queued = max(info.get("queued_cpus", 0), 0)
            wait = 0.0 if free > 0 else queued * self.wait_per_queued_cpu
            missing = self.missing_bytes(entries, contact)
            score = (wait + missing / bandwidth, -free)
            if best_score is None or score < best_score:
                best, best_score, best_missing = contact, score, missing
        if best is not None:
            self.sim.metrics.counter("broker.data_picks").inc(label=best)
            if entries:
                outcome = "hit" if best_missing == 0.0 else "cold"
                self.sim.metrics.counter("broker.data_locality").inc(
                    label=outcome)
        return best
