"""Grid invariants: what must hold after *any* survivable fault schedule.

Each invariant is a function ``(tb) -> list[Violation]`` evaluated over a
finished (quiesced) testbed, using the three observability surfaces the
simulator already maintains: the trace, the metrics registry, and the
terminal state of every agent's persistent queue.  They encode the
paper's headline claims:

* **exactly_once** (§4.1): no logical grid job's payload runs to
  completion in a site scheduler more than once, ever -- across
  resubmissions, JobManager restarts, replayed commits, and crashes.
* **terminal_or_held** (§4.2): by the horizon every submitted job is
  terminal (DONE/FAILED) or held *with a stated reason* -- nothing is
  silently lost or wedged in a non-terminal state.
* **credential_hold_notify** (§4.3): credential trouble always surfaces
  as hold + e-mail, never as a silent job failure.
* **no_orphan_glideins** (§5): once all glidein allocations are over, no
  startd is still registered in the personal pool.
* **conservation**: submit/finish counters, queue contents, and network
  accounting agree with each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from ..states import JobState

if TYPE_CHECKING:  # pragma: no cover
    from ..grid.testbed import GridTestbed

_CREDENTIAL_MARKERS = ("credential", "proxy", "authentication",
                       "not authorized")


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to debug the run."""

    invariant: str
    detail: str
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "detail": self.detail,
                "context": dict(self.context)}

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


# -- individual invariants ----------------------------------------------------

def check_exactly_once(tb: "GridTestbed") -> list[Violation]:
    """At most one COMPLETED site-scheduler execution per logical job.

    Joins three trace layers: gatekeeper ``jobmanager_created`` /
    ``duplicate_submit`` records map the ``client`` host and a GRAM
    sequence number (which embeds the job id) to a jmid; each
    JobManager's ``lrm_submit`` record maps its jmid to the LRM job it
    created; the LRM's ``finish`` records say which of those actually
    ran to completion.

    Job ids are unique per queue, so a logical job is ``client:job_id``,
    keyed by its owner; every violation carries the owning user so
    multi-tenant campaigns can attribute blame.
    """
    trace = tb.sim.trace
    owner = {f"{agent.host.name}:{job.job_id}": name
             for name, agent in tb.agents.items()
             for job in agent.gridmanager.jobs_for_user()}
    jm_to_logical: dict[str, str] = {}
    for event in ("jobmanager_created", "duplicate_submit"):
        for rec in trace.select(None, event):
            seq = str(rec.details.get("seq", ""))
            if "/" in seq:
                jm_to_logical[rec.details["jmid"]] = \
                    f"{rec.details['client']}:{seq.rsplit('/', 1)[0]}"

    # jmid -> the (lrm host, local id) execution it owns.  Replayed
    # submissions reuse the dedup key, so re-logging the same pair is
    # expected; two *different* pairs under one jmid would itself be a
    # dedup failure.
    executions: dict[tuple[str, str], set[str]] = {}
    out: list[Violation] = []
    for jmid, logical in jm_to_logical.items():
        for rec in trace.select(f"jobmanager:{jmid}", "lrm_submit"):
            key = (str(rec.details.get("lrm", "")),
                   str(rec.details.get("local", "")))
            executions.setdefault(key, set()).add(logical)

    completed_by_logical: dict[str, list[tuple[str, str]]] = {}
    for (lrm, local), logicals in executions.items():
        if len(logicals) > 1:
            out.append(Violation(
                "exactly_once",
                f"LRM job {local} on {lrm} is owned by several logical "
                f"jobs: {sorted(logicals)}",
                {"lrm": lrm, "local": local,
                 "logical": sorted(logicals),
                 "users": sorted({owner.get(lg, "?")
                                  for lg in logicals})}))
            continue
        done = trace.select(f"lrm:{lrm}", "finish", job=local,
                            state="COMPLETED")
        if done:
            logical = next(iter(logicals))
            completed_by_logical.setdefault(logical, []).append(
                (lrm, local))

    for logical, runs in sorted(completed_by_logical.items()):
        if len(runs) > 1:
            out.append(Violation(
                "exactly_once",
                f"{logical} ran to completion {len(runs)} times: {runs}",
                {"job": logical, "executions": runs,
                 "user": owner.get(logical, "?")}))

    # A job the agent reports DONE must have exactly one completion on
    # record (a DONE with zero executions means a completion was faked
    # or the completion chain is broken).
    for name, agent in tb.agents.items():
        for job in agent.gridmanager.jobs_for_user():
            logical = f"{agent.host.name}:{job.job_id}"
            if job.state == JobState.DONE and \
                    not completed_by_logical.get(logical):
                out.append(Violation(
                    "exactly_once",
                    f"{job.job_id} is DONE but no completed LRM "
                    "execution is on record",
                    {"job": job.job_id, "resource": job.resource,
                     "user": name}))
    return out


def check_terminal_or_held(tb: "GridTestbed") -> list[Violation]:
    """Every submitted job is terminal, or held with a reason."""
    out = []
    for name, agent in tb.agents.items():
        for job in agent.statuses():
            if job.is_terminal:
                continue
            if job.state != JobState.HELD:
                out.append(Violation(
                    "terminal_or_held",
                    f"{job.job_id} stuck in {job.state} at horizon "
                    f"(attempts={job.attempts})",
                    {"agent": name, "job": job.job_id, "state": job.state,
                     "attempts": job.attempts,
                     "reason": job.failure_reason or job.hold_reason}))
            elif job.universe == "grid" and not job.hold_reason:
                # (a user's own condor_hold may give no reason)
                out.append(Violation(
                    "terminal_or_held",
                    f"{job.job_id} is HELD without a reason",
                    {"agent": name, "job": job.job_id}))
    return out


def check_credential_hold_notify(tb: "GridTestbed") -> list[Violation]:
    """Credential expiry yields hold + notification, never silent failure."""
    out = []
    for name, agent in tb.agents.items():
        credential_holds = [
            job for job in agent.gridmanager.jobs_for_user()
            if job.state == JobState.HELD
            and _credentialish(job.hold_reason)]
        if credential_holds and \
                not agent.notifier.emails_about("credential"):
            out.append(Violation(
                "credential_hold_notify",
                f"{len(credential_holds)} job(s) held for credentials "
                f"but user {name} was never e-mailed",
                {"agent": name,
                 "jobs": [j.job_id for j in credential_holds]}))
        for job in agent.gridmanager.jobs_for_user():
            if job.state == JobState.FAILED \
                    and _credentialish(job.failure_reason):
                out.append(Violation(
                    "credential_hold_notify",
                    f"{job.job_id} FAILED on a credential problem "
                    f"({job.failure_reason!r}); it should have been held",
                    {"agent": name, "job": job.job_id,
                     "reason": job.failure_reason}))
    return out


def check_no_orphan_glideins(tb: "GridTestbed") -> list[Violation]:
    """Once all glidein allocations ended, no startd may survive."""
    out = []
    for name, agent in tb.agents.items():
        manager = agent.glideins
        if manager is None or not manager.submitted:
            continue
        allocations = [agent.queue.jobs[j] for j in manager.submitted
                       if j in agent.queue.jobs]
        if not all(j.is_terminal for j in allocations):
            continue       # drain not finished; terminal_or_held owns this
        live = manager.live_count()
        if live:
            out.append(Violation(
                "no_orphan_glideins",
                f"{live} startd(s) alive after every glidein allocation "
                f"of {name} ended",
                {"agent": name, "live": live}))
    gauge = tb.sim.metrics.get("glidein.live")
    if gauge is not None and gauge.value != 0 and all(
            agent.all_terminal() for agent in tb.agents.values()):
        out.append(Violation(
            "no_orphan_glideins",
            f"glidein.live gauge is {gauge.value} after global drain",
            {"gauge": gauge.value}))
    return out


def check_conservation(tb: "GridTestbed") -> list[Violation]:
    """Counters, queue contents, and network accounting must agree."""
    out = []
    metrics = tb.sim.metrics
    queued = _counter_value(metrics, "scheduler.jobs_queued")
    in_queues = sum(len(agent.gridmanager.jobs_for_user())
                    for agent in tb.agents.values())
    if queued != in_queues:
        out.append(Violation(
            "conservation",
            f"scheduler.jobs_queued={queued:g} but queues hold "
            f"{in_queues} job(s)",
            {"counter": queued, "queued": in_queues}))

    finished = _counter_value(metrics, "scheduler.jobs_finished")
    # removals of grid jobs: the set the finish counters count
    removed_by_user: Counter = Counter()
    for rec in tb.sim.trace.select("scheduler", "removed"):
        agent = tb.agents.get(rec.details["user"])
        if agent and agent.queue.jobs[rec.details["job"]].universe == "grid":
            removed_by_user[rec.details["user"]] += 1
    removed = sum(removed_by_user.values())
    terminal = sum(1 for agent in tb.agents.values()
                   for job in agent.gridmanager.jobs_for_user()
                   if job.is_terminal)
    if finished + removed != terminal:
        out.append(Violation(
            "conservation",
            f"{terminal} terminal job(s) but jobs_finished={finished:g} "
            f"and removed={removed}",
            {"terminal": terminal, "finished": finished,
             "removed": removed}))

    # Per-user conservation: each tenant's labelled counters must agree
    # with that tenant's queue, so one user's leak cannot hide inside
    # another user's surplus in the global sums above.
    queued_by_user = metrics.get("scheduler.user_jobs_queued")
    finished_by_user = metrics.get("scheduler.user_jobs_finished")
    for name, agent in sorted(tb.agents.items()):
        grid_jobs = agent.gridmanager.jobs_for_user()
        in_queue = len(grid_jobs)
        if queued_by_user is not None and \
                queued_by_user.labelled(name) != in_queue:
            out.append(Violation(
                "conservation",
                f"user {name}: user_jobs_queued="
                f"{queued_by_user.labelled(name):g} but the queue holds "
                f"{in_queue} job(s)",
                {"user": name,
                 "counter": queued_by_user.labelled(name),
                 "queued": in_queue}))
        if finished_by_user is None:
            continue
        user_terminal = sum(1 for job in grid_jobs if job.is_terminal)
        user_finished = finished_by_user.labelled(name)
        user_removed = removed_by_user.get(name, 0)
        if user_finished + user_removed != user_terminal:
            out.append(Violation(
                "conservation",
                f"user {name}: {user_terminal} terminal job(s) but "
                f"user_jobs_finished={user_finished:g} and "
                f"removed={user_removed}",
                {"user": name, "terminal": user_terminal,
                 "finished": user_finished, "removed": user_removed}))

    net = tb.net
    if net.delivered + net.dropped > net.sent:
        out.append(Violation(
            "conservation",
            f"network delivered({net.delivered}) + dropped({net.dropped})"
            f" > sent({net.sent})",
            {"sent": net.sent, "delivered": net.delivered,
             "dropped": net.dropped}))
    return out


def check_replica_integrity(tb: "GridTestbed") -> list[Violation]:
    """Every replica the catalog advertises really exists and verifies.

    For each catalog entry, each registered (SE, url) mapping must point
    at a file that is present in that storage element and whose digest
    matches the catalog's expected checksum.  A corrupted write that
    slipped past the transfer scheduler's verify-and-retry loop, or a
    registration for a copy that was never durably placed, shows up
    here.  Skipped when the testbed has no data services.
    """
    catalog = tb.replica_catalog
    if catalog is None:
        return []
    from ..data.catalog import dataset_path

    out: list[Violation] = []
    for name in catalog.names():
        entry = catalog.entry(name)
        path = dataset_path(name)
        for se_host in sorted(entry["replicas"]):
            host = tb.sim.hosts.get(se_host)
            server = host and host.get_service("gridftp")
            if server is None:
                out.append(Violation(
                    "replica_integrity",
                    f"{name} registered at unknown SE {se_host}",
                    {"dataset": name, "se": se_host}))
                continue
            if not server.files.exists(path):
                out.append(Violation(
                    "replica_integrity",
                    f"{name} registered at {se_host} but the file is "
                    "missing",
                    {"dataset": name, "se": se_host}))
                continue
            actual = server.files.get(path).checksum
            if entry["checksum"] and actual != entry["checksum"]:
                out.append(Violation(
                    "replica_integrity",
                    f"{name} at {se_host} fails verification "
                    f"({actual} != {entry['checksum']})",
                    {"dataset": name, "se": se_host,
                     "actual": actual,
                     "expected": entry["checksum"]}))
    return out


def check_durable_outputs(tb: "GridTestbed") -> list[Violation]:
    """Every DONE job's declared outputs are durably archived somewhere.

    A grid-universe job that declared ``output_datasets`` may only be
    reported DONE once each output is registered in the replica catalog
    with at least one live replica -- the §4.2 "don't lie to the user"
    discipline extended to the data plane.  Skipped when the testbed has
    no data services.
    """
    catalog = tb.replica_catalog
    if catalog is None:
        return []
    out: list[Violation] = []
    for name, agent in sorted(tb.agents.items()):
        for job in agent.gridmanager.jobs_for_user():
            if job.state != JobState.DONE:
                continue
            for ds_name, _size in job.request.output_datasets:
                entry = catalog.entry(ds_name)
                if entry is None or not entry["replicas"]:
                    out.append(Violation(
                        "durable_outputs",
                        f"{job.job_id} is DONE but output {ds_name!r} "
                        "has no registered replica",
                        {"agent": name, "job": job.job_id,
                         "dataset": ds_name}))
    return out


def _credentialish(reason: str) -> bool:
    low = reason.lower()
    return any(marker in low for marker in _CREDENTIAL_MARKERS)


def _counter_value(metrics, name: str) -> float:
    counter = metrics.get(name)
    return counter.value if counter is not None else 0.0


INVARIANTS: dict[str, Callable[["GridTestbed"], list[Violation]]] = {
    "exactly_once": check_exactly_once,
    "terminal_or_held": check_terminal_or_held,
    "credential_hold_notify": check_credential_hold_notify,
    "no_orphan_glideins": check_no_orphan_glideins,
    "conservation": check_conservation,
    "replica_integrity": check_replica_integrity,
    "durable_outputs": check_durable_outputs,
}


def evaluate_invariants(tb: "GridTestbed") -> list[Violation]:
    """Run the whole suite; returns every violation found."""
    out: list[Violation] = []
    for check in INVARIANTS.values():
        out.extend(check(tb))
    return out
