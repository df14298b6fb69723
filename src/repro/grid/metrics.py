"""Metrics derived from the simulation trace.

The paper reports its experiences in CPU-hours delivered, average and
peak concurrently busy processors, and elapsed wall-clock -- all of which
fall out of the LRM start/finish trace records.

Multi-tenant runs additionally need *per-user* accounting (who queued
what, who burned which CPU-seconds, who got throttled where, what each
user's allocations cost): :func:`user_rollup` joins every agent's queue,
the per-user metric labels, and the sites' usage ledgers into one table,
and :func:`grid_cost_report` aggregates the §1 cost reports across every
agent of a testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, TYPE_CHECKING

import numpy as np

from ..states import JobState
from ..sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from .testbed import GridTestbed


@dataclass
class ConcurrencyStats:
    cpu_seconds: float
    average_busy: float
    peak_busy: int
    first_start: float
    last_finish: float

    @property
    def cpu_hours(self) -> float:
        return self.cpu_seconds / 3600.0

    @property
    def span(self) -> float:
        return max(0.0, self.last_finish - self.first_start)


_EVENT_SETS = {
    # LRM allocations: slot occupancy at the batch-system level
    "lrm:": ("start", ("finish", "preempt")),
    # Startd sandboxes: actual application work on pool slots
    "startd:": ("job_start", ("job_done", "job_vacated", "job_failed")),
}


def _lrm_intervals(trace: Trace, component_prefix: str = "lrm:",
                   job_filter: Optional[str] = None
                   ) -> list[tuple[float, float]]:
    """(start, end) pairs of job executions from trace records.

    Walks only the components under ``component_prefix`` via the trace's
    per-component index rather than replaying the whole record log.
    """
    start_event, end_events = _EVENT_SETS.get(component_prefix,
                                              _EVENT_SETS["lrm:"])
    starts: dict[tuple[str, str], float] = {}
    intervals: list[tuple[float, float]] = []
    for rec in trace.iter_prefix(component_prefix):
        job = rec.details.get("job", "")
        if job_filter is not None and job_filter not in str(job):
            continue
        key = (rec.component, job)
        if rec.event == start_event:
            starts[key] = rec.time
        elif rec.event in end_events and key in starts:
            intervals.append((starts.pop(key), rec.time))
    # anything still running at the end of the trace
    end = trace.end_time()
    if end is not None:
        for t0 in starts.values():
            intervals.append((t0, end))
    return intervals


def concurrency(trace: Trace, component_prefix: str = "lrm:",
                job_filter: Optional[str] = None) -> ConcurrencyStats:
    """Busy-CPU statistics over the run (1 cpu per interval assumed)."""
    intervals = _lrm_intervals(trace, component_prefix, job_filter)
    if not intervals:
        return ConcurrencyStats(0.0, 0.0, 0, 0.0, 0.0)
    events: list[tuple[float, int]] = []
    for start, end in intervals:
        events.append((start, +1))
        events.append((end, -1))
    events.sort()
    busy = 0
    peak = 0
    area = 0.0
    last_t = events[0][0]
    for t, delta in events:
        area += busy * (t - last_t)
        busy += delta
        peak = max(peak, busy)
        last_t = t
    first = min(s for s, _ in intervals)
    last = max(e for _, e in intervals)
    # Same definition as ConcurrencyStats.span (clamped at zero): a
    # zero-length run has an average of 0, not cpu_seconds / epsilon.
    span = max(0.0, last - first)
    return ConcurrencyStats(
        cpu_seconds=area,
        average_busy=area / span if span > 0 else 0.0,
        peak_busy=peak,
        first_start=first,
        last_finish=last,
    )


def concurrency_from_snapshot(snapshot: dict,
                              gauge: str = "lrm.busy_slots"
                              ) -> ConcurrencyStats:
    """Busy-CPU statistics from a metrics-registry JSON snapshot.

    The busy-slot gauge integrates itself as the simulation runs, so
    this is O(1) in the length of the run -- no trace replay.  Pass
    ``sim.metrics.snapshot()`` (or a deserialized export of it).
    """
    entry = snapshot.get("metrics", {}).get(gauge)
    if entry is None or entry.get("first_active") is None:
        return ConcurrencyStats(0.0, 0.0, 0, 0.0, 0.0)
    first = entry["first_active"]
    last = entry["last_idle"] if entry["value"] == 0 and \
        entry["last_idle"] is not None else snapshot["time"]
    area = entry["integral"]
    span = max(0.0, last - first)
    return ConcurrencyStats(
        cpu_seconds=area,
        average_busy=area / span if span > 0 else 0.0,
        peak_busy=int(entry["max"]),
        first_start=first,
        last_finish=last,
    )


def registry_concurrency(sim, gauge: str = "lrm.busy_slots"
                         ) -> ConcurrencyStats:
    """Convenience wrapper: incremental concurrency for a live simulator."""
    return concurrency_from_snapshot(sim.metrics.snapshot(), gauge=gauge)


def timeline(trace: Trace, bucket: float,
             component_prefix: str = "lrm:",
             job_filter: Optional[str] = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """(bucket_times, busy_cpus) sampled series for plotting/tables."""
    intervals = _lrm_intervals(trace, component_prefix, job_filter)
    if not intervals:
        return np.array([]), np.array([])
    t0 = min(s for s, _ in intervals)
    t1 = max(e for _, e in intervals)
    edges = np.arange(t0, t1 + bucket, bucket)
    busy = np.zeros(len(edges))
    for start, end in intervals:
        i0 = np.searchsorted(edges, start, side="right") - 1
        i1 = np.searchsorted(edges, end, side="right") - 1
        for i in range(max(i0, 0), min(i1 + 1, len(edges))):
            lo = max(start, edges[i])
            hi = min(end, edges[i] + bucket)
            if hi > lo:
                busy[i] += (hi - lo) / bucket
    return edges, busy


def queue_waits(trace: Trace, component_prefix: str = "lrm:"
                ) -> list[float]:
    """Per-job queue wait times (from LRM 'start' records)."""
    return [rec.details["waited"]
            for rec in trace.iter_prefix(component_prefix)
            if rec.event == "start" and "waited" in rec.details]


def percentile(values: Iterable[float], q: float) -> float:
    values = list(values)
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- per-user accounting (multi-tenant runs) -----------------------------------

def _labels_about(counter, user: str) -> float:
    """Sum a counter's labels that belong to `user`.

    Gatekeepers label by the submitting identity, which is either the
    user's submit host (``submit-<user>``) or a site-local gridmap
    account (``<site>_<user>``); both embed the user name, the same
    convention :meth:`GridTestbed.cost_report` applies to LRM accounts.
    """
    if counter is None:
        return 0.0
    return sum(v for label, v in counter.labels.items() if user in label)


def user_rollup(tb: "GridTestbed") -> dict[str, dict]:
    """One accounting row per user of a (finished or live) testbed.

    Joins three surfaces: each agent's persistent queue (job states and
    attempts), the per-user metric labels (queued/finished counters,
    gatekeeper admissions and rejections, client-side throttling), and
    the sites' per-account CPU ledgers (usage and §1 allocation cost).
    """
    metrics = tb.sim.metrics
    queued_c = metrics.get("scheduler.user_jobs_queued")
    finished_c = metrics.get("scheduler.user_jobs_finished")
    gk_submits = metrics.get("gatekeeper.submits_by_user")
    gk_rejects = metrics.get("gatekeeper.rejects_by_user")
    out: dict[str, dict] = {}
    for name, agent in sorted(tb.agents.items()):
        # GlideIn-path payloads live in the agent's personal condor
        # queue, not the grid queue (there the jobs are the pilots).
        jobs, pool = [], []
        for status in agent.statuses():
            (jobs if status.universe == "grid" else pool).append(status)
        by_state: dict[str, int] = {}
        for job in jobs:
            by_state[str(job.state)] = by_state.get(str(job.state), 0) + 1
        cpu_seconds = sum(
            usage for site in tb.sites.values()
            for account, usage in site.lrm.user_usage.items()
            if name in account)
        cost = tb.cost_report(name)
        out[name] = {
            "jobs": len(jobs),
            "done": by_state.get(str(JobState.DONE), 0),
            "failed": by_state.get(str(JobState.FAILED), 0),
            "held": by_state.get(str(JobState.HELD), 0),
            "attempts": sum(j.attempts for j in jobs),
            "condor_jobs": len(pool),
            "condor_done": sum(s.is_complete for s in pool),
            "queued_counter": (queued_c.labelled(name)
                               if queued_c is not None else 0.0),
            "finished_counter": (finished_c.labelled(name)
                                 if finished_c is not None else 0.0),
            "gatekeeper_submits": _labels_about(gk_submits, name),
            "gatekeeper_rejects": _labels_about(gk_rejects, name),
            "cpu_seconds": cpu_seconds,
            "cpu_hours": cpu_seconds / 3600.0,
            "cost": cost["total"],
        }
    return out


def data_rollup(tb: "GridTestbed") -> dict:
    """One table for the data plane of a run (repro.data).

    Joins the transfer scheduler's per-link counters, the replica
    catalog's verb counters, the GridManagers' staging counters, and the
    catalog's final replica map.  Empty-ish when the testbed has no data
    services.
    """
    metrics = tb.sim.metrics

    def labels_of(name: str) -> dict:
        c = metrics.get(name)
        return dict(sorted(c.labels.items())) if c is not None else {}

    def total_of(name: str) -> float:
        c = metrics.get(name)
        return c.value if c is not None else 0.0

    replicas: dict[str, int] = {}
    if tb.replica_catalog is not None:
        for name in tb.replica_catalog.names():
            entry = tb.replica_catalog.entry(name)
            replicas[name] = len(entry["replicas"])
    return {
        "bytes_moved": total_of("dts.bytes_moved"),
        "bytes_moved_by_link": labels_of("dts.bytes_moved"),
        "transfers": total_of("dts.transfers"),
        "transfer_retries": total_of("dts.retries"),
        "transfer_failures": total_of("dts.failures"),
        "checksum_mismatches": total_of("dts.checksum_mismatch"),
        "catalog_lookups": labels_of("catalog.lookups"),
        "catalog_registrations": total_of("catalog.registrations"),
        "catalog_invalidations": total_of("catalog.invalidations"),
        "stage_in_bytes": total_of("gridmanager.stage_in_bytes"),
        "stage_in_hits": total_of("gridmanager.stage_in_hits"),
        "stage_out_bytes": total_of("gridmanager.stage_out_bytes"),
        "stage_out_corrupt": total_of("gridmanager.stage_out_corrupt"),
        "broker_locality": labels_of("broker.data_locality"),
        "replica_counts": replicas,
    }


def grid_cost_report(tb: "GridTestbed") -> dict:
    """§1 cost reports for every agent, plus grid-wide totals.

    ``users`` maps each user to their per-site (and ``total``) charge;
    ``per_site`` sums each site's revenue over all users; ``total`` is
    the grand total (and equals the sum of either view).
    """
    users = {name: tb.cost_report(name) for name in sorted(tb.agents)}
    per_site: dict[str, float] = {name: 0.0 for name in sorted(tb.sites)}
    for report in users.values():
        for site_name, charge in report.items():
            if site_name != "total":
                per_site[site_name] = per_site.get(site_name, 0.0) + charge
    return {
        "users": users,
        "per_site": per_site,
        "total": sum(per_site.values()),
    }


def fairness(values: Iterable[float]) -> float:
    """Jain's fairness index over per-user shares (1.0 = perfectly fair).

    ``(sum x)^2 / (n * sum x^2)`` -- the standard scalar for "did N
    tenants get comparable service", reported by the multiuser
    benchmark next to its raw per-user table.
    """
    xs = np.asarray(list(values), dtype=float)
    if xs.size == 0:
        return 1.0
    denom = xs.size * float(np.square(xs).sum())
    if denom == 0.0:
        return 1.0
    return float(np.square(xs.sum()) / denom)
