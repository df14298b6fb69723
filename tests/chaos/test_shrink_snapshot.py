"""Shrink-from-snapshot: same minimal plan, far less re-simulation.

The ``shrink-lab`` scenario is prefix-heavy by design: 24 jobs keep the
site busy to ~4650s and the seeded plan's faults all land after 4000s.
Crashing the cluster's head node strands nonterminal jobs: the batch
system *is* the jobs, it keeps no state on disk and nothing boots it
again (the one machine class that is unrecoverable by design), so the
JobManagers' sweeps go unanswered for ever and ``terminal_or_held``
fires -- and the three decoy faults after it are noise ddmin must strip.

The regression: evaluating ddmin candidates by forking a pre-fault
snapshot (what ``shrink_plan`` does wherever ``os.fork`` exists) must
converge to the *same* minimal plan as replaying every candidate from
t=0 (``violation_predicate``, the fallback), while replaying under half
the simulated seconds (the wall-clock win is larger still; the
benchmark suite measures it).
"""

from pathlib import Path

import pytest

from repro.chaos.plan import FaultPlan, PlannedFault
from repro.chaos.runner import build_and_run
from repro.chaos.shrink import (
    SNAPSHOT_MARGIN,
    ForkPoint,
    shrink_plan,
    snapshot_predicate,
    violation_predicate,
)

SEED = 11

#: the culprit plus three decoys that have nothing to do with the
#: violation -- ddmin must strip all three.  The CLI runs the same file
#: (``python -m repro.chaos repro shrink-lab 11 --plan ... --shrink``).
PLAN_FILE = Path(__file__).parent / "plans" / "shrink_lab.json"
SEEDED_PLAN = FaultPlan.from_json(PLAN_FILE.read_text())
CULPRIT = PlannedFault(4000.0, "crash", "lab-lrm", 300.0)

INVARIANTS = {"terminal_or_held"}

needs_fork = pytest.mark.skipif(not ForkPoint.supported(),
                                reason="needs os.fork")


def test_seeded_plan_violates():
    assert SEEDED_PLAN.events[0] == CULPRIT
    assert len(SEEDED_PLAN.events) == 4
    tb, _ = build_and_run("shrink-lab", SEED, plan=SEEDED_PLAN)
    from repro.chaos.invariants import evaluate_invariants

    names = {v.invariant for v in evaluate_invariants(tb)}
    assert "terminal_or_held" in names


@needs_fork
def test_fork_path_finds_the_same_minimal_plan():
    stats_zero: dict = {}
    stats_fork: dict = {}
    minimal_zero, replays_zero = shrink_plan(
        "shrink-lab", SEED, SEEDED_PLAN, invariants=INVARIANTS,
        reproduces=violation_predicate("shrink-lab", SEED, INVARIANTS,
                                       stats=stats_zero),
        stats=stats_zero)
    minimal_fork, replays_fork = shrink_plan(
        "shrink-lab", SEED, SEEDED_PLAN, invariants=INVARIANTS,
        stats=stats_fork)

    assert minimal_zero.to_dict() == minimal_fork.to_dict()
    assert [e.to_dict() for e in minimal_fork.events] == [CULPRIT.to_dict()]
    assert replays_zero == replays_fork      # identical ddmin trajectory

    assert stats_zero["mode"] == "from-zero"
    assert stats_fork["mode"] == "fork"
    assert stats_fork["prefix_time"] == \
        pytest.approx(CULPRIT.time - SNAPSHOT_MARGIN)
    # the headline win: the fork path replays the pre-fault prefix once
    # instead of once per candidate.
    assert stats_fork["replayed_sim_seconds"] * 2 <= \
        stats_zero["replayed_sim_seconds"]


@needs_fork
def test_snapshot_predicate_agrees_with_replay_verdicts():
    """The forked predicate gives the same verdict as a full replay for
    a violating candidate and for an innocent one."""
    reproduces = snapshot_predicate("shrink-lab", SEED, SEEDED_PLAN,
                                    invariants=INVARIANTS)
    assert reproduces(FaultPlan(events=[CULPRIT]))
    assert not reproduces(FaultPlan(events=list(SEEDED_PLAN.events[1:])))

    from repro.chaos.invariants import evaluate_invariants

    tb, _ = build_and_run("shrink-lab", SEED,
                          plan=FaultPlan(events=[CULPRIT]))
    assert any(v.invariant == "terminal_or_held"
               for v in evaluate_invariants(tb))
    tb, _ = build_and_run("shrink-lab", SEED,
                          plan=FaultPlan(events=list(
                              SEEDED_PLAN.events[1:])))
    assert not any(v.invariant == "terminal_or_held"
                   for v in evaluate_invariants(tb))


def test_snapshot_predicate_rejects_empty_plan():
    with pytest.raises(ValueError):
        snapshot_predicate("shrink-lab", SEED, FaultPlan(events=[]))
