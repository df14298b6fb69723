"""Tests for the LAP solver and the QAP branch and bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.lap import (
    QAPBranchAndBound,
    QAPInstance,
    gilmore_lawler_bound,
    lap_solve,
)


class TestHungarian:
    def test_identity_optimal(self):
        cost = np.array([[1, 9, 9], [9, 1, 9], [9, 9, 1]], dtype=float)
        assign, total = lap_solve(cost)
        assert list(assign) == [0, 1, 2]
        assert total == 3.0

    def test_anti_diagonal(self):
        cost = np.array([[9, 9, 1], [9, 1, 9], [1, 9, 9]], dtype=float)
        assign, total = lap_solve(cost)
        assert list(assign) == [2, 1, 0]
        assert total == 3.0

    def test_known_example(self):
        cost = np.array([[4, 1, 3], [2, 0, 5], [3, 2, 2]], dtype=float)
        _assign, total = lap_solve(cost)
        assert total == 5.0          # 1 + 2 + 2

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            lap_solve(np.zeros((2, 3)))

    def test_assignment_is_permutation(self):
        rng = np.random.default_rng(5)
        cost = rng.random((8, 8))
        assign, _ = lap_solve(cost)
        assert sorted(assign) == list(range(8))

    @given(st.integers(1, 7), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, n, seed):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 100, size=(n, n)).astype(float)
        _my_assign, my_total = lap_solve(cost)
        rows, cols = linear_sum_assignment(cost)
        scipy_total = float(cost[rows, cols].sum())
        assert my_total == pytest.approx(scipy_total)

    @given(st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_total_matches_assignment(self, n, seed):
        rng = np.random.default_rng(seed)
        cost = rng.random((n, n))
        assign, total = lap_solve(cost)
        assert total == pytest.approx(
            float(cost[np.arange(n), assign].sum()))


class TestQAP:
    def test_nugent5_optimum(self):
        inst = QAPInstance.nugent5()
        result = QAPBranchAndBound(inst).solve()
        assert result.best_value == 50.0
        assert result.best_perm is not None
        assert inst.objective(np.array(result.best_perm)) == 50.0

    def test_bound_is_lower_bound_at_root(self):
        inst = QAPInstance.nugent5()
        bound, laps = gilmore_lawler_bound(inst, {})
        assert bound <= 50.0
        assert laps == 1

    def test_bound_exact_on_full_assignment(self):
        inst = QAPInstance.nugent5()
        perm = [0, 1, 2, 3, 4]
        bound, _ = gilmore_lawler_bound(
            inst, {f: perm[f] for f in range(5)})
        assert bound == pytest.approx(inst.objective(np.array(perm)))

    @given(st.integers(3, 5), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_bb_matches_brute_force(self, n, seed):
        from itertools import permutations

        inst = QAPInstance.random(n, seed=seed)
        best = min(inst.objective(np.array(p))
                   for p in permutations(range(n)))
        result = QAPBranchAndBound(inst).solve()
        assert result.best_value == pytest.approx(best)

    @given(st.integers(3, 5), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_gl_bound_never_exceeds_optimum(self, n, seed):
        inst = QAPInstance.random(n, seed=seed)
        result = QAPBranchAndBound(inst).solve()
        bound, _ = gilmore_lawler_bound(inst, {})
        assert bound <= result.best_value + 1e-9

    def test_pruning_beats_brute_force(self):
        """B&B explores far fewer nodes than n! leaves."""
        import math

        inst = QAPInstance.random(7, seed=3)
        result = QAPBranchAndBound(inst).solve()
        assert result.nodes_explored < math.factorial(7)

    def test_expand_respects_incumbent(self):
        inst = QAPInstance.nugent5()
        bb = QAPBranchAndBound(inst)
        root = bb.root()
        children_loose, _, _ = bb.expand(root, float("inf"))
        children_tight, _, _ = bb.expand(root, root.bound + 0.5)
        assert len(children_tight) <= len(children_loose)
