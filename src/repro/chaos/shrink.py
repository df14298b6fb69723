"""Delta-debugging minimizer for violating fault plans.

When a campaign cell violates an invariant, the raw plan usually carries
faults that have nothing to do with the failure.  :func:`shrink_plan`
applies ddmin over the plan's event list: repeatedly re-runs the same
``(scenario, seed)`` with subsets of the events, keeping any smaller
plan that still reproduces a violation, until no single event can be
removed.  Because runs are deterministic, "still reproduces" is a pure
function of the plan -- no flake management needed.

Candidate replays come in two flavors, and :func:`shrink_plan` picks:

* **from snapshot** (wherever ``os.fork`` exists) -- the pre-fault
  prefix ``[0, t0)`` (``t0`` just before the plan's earliest fault) is
  simulated *once*; every ddmin candidate is then evaluated in an
  ``os.fork()`` child of that parked simulation (:class:`ForkPoint`),
  so only the post-fault suffix is ever re-simulated.  Fault arming is absolute-time
  (:class:`~repro.sim.failures.FailureInjector`), so a candidate armed
  at ``t0`` fires at the exact instants it would have armed at zero,
  and ddmin converges to the same minimal plan.
* **from zero** (:func:`violation_predicate`) -- every candidate
  rebuilds the scenario and replays the whole run, exactly like the
  campaign cell did: the fallback without ``os.fork`` (or for an empty
  plan), and the reference the fork path is checked against.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any, Callable, Optional

from ..grid.scenarios import get_scenario
from ..sim.snapshot import SnapshotError
from .invariants import evaluate_invariants
from .plan import FaultPlan
from .runner import build_and_run, drive_to_quiescence

#: replays one shrink may spend
MAX_RUNS = 200

Predicate = Callable[[FaultPlan], bool]

#: how far before the plan's earliest fault the shrink snapshot parks.
SNAPSHOT_MARGIN = 1e-3


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


def _violates(tb, invariants: Optional[set[str]]) -> bool:
    found = evaluate_invariants(tb)
    if invariants is None:
        return bool(found)
    return any(v.invariant in invariants for v in found)


def violation_predicate(
    scenario_name: str,
    seed: int,
    invariants: Optional[set[str]] = None,
    stats: Optional[dict] = None,
) -> Predicate:
    """True iff replaying `plan` on ``(scenario, seed)`` still violates.

    ``invariants`` restricts the check to the named invariant(s), so the
    minimizer cannot wander off to a *different* failure mode while
    shrinking.  ``stats`` (if given) records ``mode`` and accumulates
    ``replays`` and ``replayed_sim_seconds``.
    """
    if stats is not None:
        stats["mode"] = "from-zero"

    def reproduces(plan: FaultPlan) -> bool:
        tb, _ = build_and_run(scenario_name, seed, plan=plan)
        if stats is not None:
            stats["replays"] = stats.get("replays", 0) + 1
            stats["replayed_sim_seconds"] = \
                stats.get("replayed_sim_seconds", 0.0) + tb.sim.now
        return _violates(tb, invariants)

    return reproduces


def snapshot_predicate(
    scenario_name: str,
    seed: int,
    plan: FaultPlan,
    invariants: Optional[set[str]] = None,
    stats: Optional[dict] = None,
) -> Predicate:
    """A predicate that evaluates candidates from a pre-fault snapshot.

    Builds the scenario once and runs it to just before the plan's
    earliest fault; each candidate is then evaluated in a forked child
    of that parked simulation.  Requires ``ForkPoint.supported()`` and a
    non-empty plan (every candidate ddmin tries is a subset of
    ``plan.events``, so all candidate fault times lie beyond the park
    point by construction).
    """
    if not plan.events:
        raise ValueError("snapshot_predicate needs a non-empty plan")
    scenario = get_scenario(scenario_name)
    first_fault = min(ev.time for ev in plan.events)
    tb = scenario.build(seed)
    t0 = max(tb.sim.now, first_fault - SNAPSHOT_MARGIN)
    tb.run(until=t0)
    point = ForkPoint()
    if stats is not None:
        stats["mode"] = "fork"
        stats["prefix_time"] = t0
        stats["replayed_sim_seconds"] = \
            stats.get("replayed_sim_seconds", 0.0) + t0

    def reproduces(candidate: FaultPlan) -> bool:
        def evaluate() -> tuple[bool, float]:
            candidate.apply(tb)
            drive_to_quiescence(tb, scenario, candidate)
            return _violates(tb, invariants), tb.sim.now

        verdict, final_now = point.eval(evaluate)
        if stats is not None:
            stats["replays"] = stats.get("replays", 0) + 1
            stats["replayed_sim_seconds"] += final_now - t0
        return verdict

    return reproduces


def shrink_events(events: list,
                  reproduces: Predicate) -> tuple[list, int]:
    """ddmin over an event list; returns (minimal events, runs used)."""
    runs = 0
    granularity = 2
    while len(events) >= 2 and runs < MAX_RUNS:
        chunk = max(1, len(events) // granularity)
        reduced = False
        start = 0
        while start < len(events) and runs < MAX_RUNS:
            candidate = events[:start] + events[start + chunk:]
            runs += 1
            if candidate and reproduces(FaultPlan(events=list(candidate))):
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # restart scanning the (shorter) list
                start = 0
                continue
            start += chunk
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return events, runs


def shrink_plan(
    scenario_name: str,
    seed: int,
    plan: FaultPlan,
    invariants: Optional[set[str]] = None,
    reproduces: Optional[Predicate] = None,
    stats: Optional[dict] = None,
) -> tuple[FaultPlan, int]:
    """Shrink `plan` to a minimal schedule that still violates.

    Returns ``(minimal_plan, replay_count)``.  If the original plan does
    not reproduce any violation, it is returned unchanged with count 1.

    Unless `reproduces` is given, candidates are evaluated from a
    pre-fault snapshot via ``os.fork`` where the platform has it and the
    plan has events, else replayed from t=0 (same minimal plan; see the
    module docstring).  ``stats`` (a dict, filled in place) records
    ``mode``, ``replays``, ``replayed_sim_seconds``, ``wall_seconds``,
    and -- in snapshot mode -- ``prefix_time``.
    """
    if stats is None:
        stats = {}
    started = time.perf_counter()
    if reproduces is None:
        if plan.events and ForkPoint.supported():
            reproduces = snapshot_predicate(
                scenario_name, seed, plan, invariants, stats=stats)
        else:
            reproduces = violation_predicate(
                scenario_name, seed, invariants, stats=stats)
    stats.setdefault("mode", "custom")
    try:
        if not reproduces(plan):
            return plan, 1
        events, runs = shrink_events(list(plan.events), reproduces)
        return FaultPlan(events=events), runs + 1
    finally:
        stats["wall_seconds"] = time.perf_counter() - started
