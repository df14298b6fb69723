"""Campaign runner: many seeds, many scenarios, many processes.

A *campaign* runs ``(scenario, seed)`` cells: each cell rebuilds the
scenario from scratch, generates (or replays) a fault plan, drives the
simulation until the grid quiesces, evaluates the invariant suite, and
digests the run.  Cells are sharded over a ``ProcessPoolExecutor``;
workers receive only ``(scenario_name, seed, options)`` and rebuild
everything locally, so no simulator object -- none of which are
picklable, by design -- ever crosses the process boundary.

``audit=True`` additionally runs every cell twice and compares digests:
the determinism auditor that turns "deterministic simulation" from a
docstring claim into a checked property.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..grid.scenarios import Scenario, get_scenario
from ..states import JobState
from .digest import first_divergence, run_digest, trace_fingerprint
from .invariants import evaluate_invariants
from .plan import FaultPlan

DEFAULT_SCENARIOS = ("quickstart", "three-site", "credential")


@dataclass
class RunResult:
    """Outcome of one ``(scenario, seed)`` cell (picklable)."""

    scenario: str
    seed: int
    violations: list[dict] = field(default_factory=list)
    digest: str = ""
    divergence: dict = field(default_factory=dict)
    plan: dict = field(default_factory=dict)
    sim_time: float = 0.0
    trace_records: int = 0
    wall_seconds: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergence \
            and not self.error

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario, "seed": self.seed,
            "violations": list(self.violations), "digest": self.digest,
            "divergence": dict(self.divergence), "plan": dict(self.plan),
            "sim_time": self.sim_time,
            "trace_records": self.trace_records,
            "wall_seconds": self.wall_seconds, "error": self.error,
        }


@dataclass
class CampaignResult:
    """Aggregate over every cell of a campaign."""

    results: list[RunResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def violations(self) -> list[RunResult]:
        return [r for r in self.results if r.violations]

    @property
    def divergences(self) -> list[RunResult]:
        return [r for r in self.results if r.divergence]

    @property
    def errors(self) -> list[RunResult]:
        return [r for r in self.results if r.error]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def seeds_per_second(self) -> float:
        return self.runs / self.wall_seconds if self.wall_seconds else 0.0


# -- one cell -----------------------------------------------------------------

def drive_to_quiescence(tb, scenario: Scenario, plan: FaultPlan) -> None:
    """Advance the sim until every queue is settled (or the cap).

    "Settled" means every job of every universe is terminal or held --
    evaluated only after the plan's last disturbance (plus the
    scenario's settle window) has passed, so a hold that a scheduled
    refresh would release never counts as quiescence.
    """
    sim = tb.sim
    not_before = max(sim.now, plan.end_time) + scenario.settle

    def settled() -> bool:
        if sim.now < not_before:
            return False
        if tb.traffic is not None and not tb.traffic.finished:
            return False    # the arrival trace is still being replayed
        return all(job.is_terminal or job.state == JobState.HELD
                   for agent in tb.agents.values()
                   for job in agent.queue.jobs.values())

    while not settled() and sim.now < scenario.cap:
        # Chunk targets are aligned to the scenario.chunk grid (counted
        # from t=0): a drive resumed mid-stream -- e.g. from a snapshot
        # taken between faults -- stops at the same boundaries, and so
        # the same final clock, as one driven from zero.  From zero the
        # grid targets coincide with the old ``now + chunk`` stepping.
        target = (int(sim.now / scenario.chunk) + 1) * scenario.chunk
        sim.run(until=min(target, scenario.cap))


def build_and_run(scenario_name: str, seed: int,
                  plan: Optional[FaultPlan] = None):
    """Rebuild a cell and run it; returns ``(testbed, plan)``.

    With ``plan=None`` the plan is generated from the seed (the normal
    fuzzing path); passing a plan replays it verbatim (the repro/shrink
    path).
    """
    scenario = get_scenario(scenario_name)
    tb = scenario.build(seed)
    if plan is None:
        plan = FaultPlan.generate(
            tb, horizon=scenario.fault_horizon,
            kinds=scenario.fault_kinds, max_faults=scenario.max_faults)
    plan.apply(tb)
    drive_to_quiescence(tb, scenario, plan)
    return tb, plan


def run_one(scenario_name: str, seed: int,
            plan: Optional[FaultPlan] = None,
            audit: bool = False) -> RunResult:
    """Run one cell; optionally re-run it to audit determinism."""
    started = time.perf_counter()
    result = RunResult(scenario=scenario_name, seed=seed)
    try:
        tb, used_plan = build_and_run(scenario_name, seed, plan=plan)
    except Exception as exc:  # noqa: BLE001 - report, don't kill the pool
        result.error = f"{type(exc).__name__}: {exc}"
        result.wall_seconds = time.perf_counter() - started
        return result
    result.plan = used_plan.to_dict()
    result.sim_time = tb.sim.now
    result.trace_records = len(tb.sim.trace)
    result.violations = [v.to_dict() for v in evaluate_invariants(tb)]
    result.digest = run_digest(tb)
    if audit:
        tb2, _ = build_and_run(scenario_name, seed, plan=plan)
        second = run_digest(tb2)
        if second != result.digest:
            result.divergence = {
                "first_digest": result.digest, "second_digest": second,
                **first_divergence(trace_fingerprint(tb),
                                   trace_fingerprint(tb2)),
            }
    result.wall_seconds = time.perf_counter() - started
    return result


def _cell(args: tuple) -> RunResult:
    """Top-level worker entry (must be picklable by name)."""
    scenario_name, seed, audit = args
    return run_one(scenario_name, seed, audit=audit)


# -- the campaign --------------------------------------------------------------

def run_campaign(
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    seeds: Iterable[int] = range(20),
    workers: int = 0,
    audit: bool = False,
) -> CampaignResult:
    """Run every ``(scenario, seed)`` cell, sharded over `workers`.

    ``workers <= 1`` runs inline (no subprocesses), which is also the
    single-process baseline the scaling benchmark compares against.
    """
    for name in scenarios:
        get_scenario(name)     # fail fast on typos, before forking
    cells = [(name, seed, audit)
             for name in scenarios for seed in seeds]
    started = time.perf_counter()
    if workers <= 1:
        results = [_cell(cell) for cell in cells]
    else:
        # here, not at the top: a run that only simulates loads no pool
        from concurrent.futures import ProcessPoolExecutor
        chunksize = max(1, len(cells) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_cell, cells, chunksize=chunksize))
    return CampaignResult(results=results,
                          wall_seconds=time.perf_counter() - started,
                          workers=max(1, workers))


def default_workers() -> int:
    return min(4, os.cpu_count() or 1)


__all__ = [
    "CampaignResult", "DEFAULT_SCENARIOS", "RunResult", "build_and_run",
    "default_workers", "drive_to_quiescence", "run_campaign", "run_one",
]
