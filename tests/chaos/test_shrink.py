"""Plan shrinking: ddmin must find small repros without real violations.

The campaign's scenarios are survivable by construction, so these tests
drive the minimizer with synthetic predicates (a "violation" defined as
the presence of specific events) and with a counting predicate to bound
replay cost.  The end-to-end replay path itself is covered by
``violation_predicate`` returning False on a healthy cell.
"""

from repro.chaos import FaultPlan, shrink_plan, violation_predicate
from repro.chaos.plan import PlannedFault
from repro.chaos.shrink import MAX_RUNS, shrink_events


def _plan(n):
    return FaultPlan(events=[
        PlannedFault(float(10 * i), "crash", f"host-{i}", 30.0)
        for i in range(n)])


class TestShrinkEvents:
    def test_single_culprit_is_isolated(self):
        culprit = PlannedFault(35.0, "jm_kill", "the-one", None)
        events = list(_plan(7).events) + [culprit]

        def reproduces(plan):
            return culprit in plan.events

        minimal, runs = shrink_events(events, reproduces)
        assert minimal == [culprit]
        assert runs > 0

    def test_two_interacting_culprits_survive(self):
        a = PlannedFault(10.0, "crash", "a", 30.0)
        b = PlannedFault(20.0, "partition", "a|b", 30.0)
        events = list(_plan(6).events) + [a, b]

        def reproduces(plan):
            return a in plan.events and b in plan.events

        minimal, _ = shrink_events(events, reproduces)
        assert sorted(minimal, key=lambda e: e.time) == [a, b]

    def test_replay_budget_respected(self):
        calls = []

        def reproduces(plan):
            calls.append(len(plan))
            return False

        # nothing reproduces, so ddmin refines down to single events:
        # about 2n candidates for n events, more than the budget
        shrink_events(list(_plan(256).events), reproduces)
        assert len(calls) == MAX_RUNS


class TestShrinkPlan:
    def test_non_reproducing_plan_returned_unchanged(self):
        # A healthy cell: the campaign scenarios never violate, so the
        # predicate is False and the plan must come back untouched.
        plan = FaultPlan(events=[
            PlannedFault(40.0, "jm_kill", "wisc-gk", None),
            PlannedFault(90.0, "partition", "submit-carol|wisc-gk", 60.0),
        ])
        minimal, replays = shrink_plan("credential", 2, plan)
        assert minimal.events == plan.events
        assert replays == 1

    def test_synthetic_predicate_shrinks_via_plan_api(self):
        culprit = PlannedFault(55.0, "isolate", "gk", 60.0)
        plan = FaultPlan(events=list(_plan(5).events) + [culprit])
        minimal, replays = shrink_plan(
            "credential", 0, plan,
            reproduces=lambda p: culprit in p.events)
        assert minimal.events == [culprit]
        assert replays >= 2

    def test_violation_predicate_is_false_on_healthy_cell(self):
        reproduces = violation_predicate("credential", 1)
        assert reproduces(FaultPlan(events=[])) is False
