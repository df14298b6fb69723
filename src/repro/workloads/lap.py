"""Linear Assignment Problems and a QAP branch-and-bound (paper §6).

Experience 1 used Condor-G to solve "more than 540 billion Linear
Assignment Problems controlled by a sophisticated branch and bound
algorithm" -- the NUG/QAP runs of Anstreicher, Brixius, Goux & Linderoth
[3].  This module provides the actual mathematics:

* :func:`lap_solve` -- the Hungarian (Kuhn-Munkres) algorithm, O(n^3),
  implemented from scratch (tested against ``scipy`` in the suite);
* :func:`gilmore_lawler_bound` -- the classic QAP lower bound, computed
  by solving one LAP whose costs come from inner LAPs;
* :class:`QAPBranchAndBound` -- depth-first branch and bound over
  facility->location assignments using the GL bound, exposing its node
  frontier so a master-worker harness can farm nodes out to workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sim.fastcopy import Immutable


def lap_solve(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Hungarian algorithm: minimal-cost perfect matching.

    Returns ``(col_of_row, total_cost)`` for a square cost matrix.
    Implementation: the O(n^3) shortest-augmenting-path formulation with
    dual potentials (Jonker-Volgenant style).
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n != m:
        raise ValueError("lap_solve needs a square matrix")
    INF = float("inf")
    # potentials and matching; 1-based sentinel row 0
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)       # p[j] = row matched to column j
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assignment = np.zeros(n, dtype=int)
    for j in range(1, n + 1):
        if p[j] > 0:
            assignment[p[j] - 1] = j - 1
    total = float(cost[np.arange(n), assignment].sum())
    return assignment, total


@dataclass(frozen=True)
class QAPInstance:
    """min_perm  sum_ij flow[i,j] * dist[perm[i], perm[j]]."""

    flow: np.ndarray
    dist: np.ndarray

    @property
    def n(self) -> int:
        return self.flow.shape[0]

    def objective(self, perm: np.ndarray) -> float:
        perm = np.asarray(perm)
        return float((self.flow *
                      self.dist[np.ix_(perm, perm)]).sum())

    @classmethod
    def random(cls, n: int, seed: int = 0) -> "QAPInstance":
        rng = np.random.default_rng(seed)
        flow = rng.integers(0, 10, size=(n, n)).astype(float)
        dist = rng.integers(0, 10, size=(n, n)).astype(float)
        np.fill_diagonal(flow, 0)
        np.fill_diagonal(dist, 0)
        # symmetrize: the classic Nugent instances are symmetric
        flow = (flow + flow.T) / 2.0
        dist = (dist + dist.T) / 2.0
        return cls(flow=flow, dist=dist)

    @classmethod
    def nugent5(cls) -> "QAPInstance":
        """The 5-facility Nugent instance (known optimum 50)."""
        flow = np.array([
            [0, 5, 2, 4, 1],
            [5, 0, 3, 0, 2],
            [2, 3, 0, 0, 0],
            [4, 0, 0, 0, 5],
            [1, 2, 0, 5, 0]], dtype=float)
        dist = np.array([
            [0, 1, 1, 2, 3],
            [1, 0, 2, 1, 2],
            [1, 2, 0, 1, 2],
            [2, 1, 1, 0, 1],
            [3, 2, 2, 1, 0]], dtype=float)
        return cls(flow=flow, dist=dist)


def gilmore_lawler_bound(inst: QAPInstance, partial: dict[int, int]
                         ) -> tuple[float, int]:
    """GL lower bound for a node with `partial` facility->location fixed.

    Returns ``(bound, laps_solved)``; the count feeds the paper's
    "billions of LAPs" accounting.
    """
    n = inst.n
    fixed_f = sorted(partial)
    fixed_l = [partial[f] for f in fixed_f]
    free_f = [f for f in range(n) if f not in partial]
    free_l = [loc for loc in range(n) if loc not in set(fixed_l)]
    laps = 0
    # cost already incurred among fixed pairs
    base = 0.0
    for fa in fixed_f:
        for fb in fixed_f:
            base += inst.flow[fa, fb] * inst.dist[partial[fa], partial[fb]]
    if not free_f:
        return base, laps
    k = len(free_f)
    # master LAP: assigning free facility i to free location j
    master = np.zeros((k, k))
    for a, fa in enumerate(free_f):
        for b, la in enumerate(free_l):
            # interaction with fixed facilities (exact)
            c = 0.0
            for fb in fixed_f:
                c += 2.0 * inst.flow[fa, fb] * inst.dist[la, partial[fb]]
            # interaction among free facilities: pair the smallest flows
            # with the largest distances (a valid row-wise lower bound)
            others_f = [f for f in free_f if f != fa]
            others_l = [loc for loc in free_l if loc != la]
            flows = np.sort(inst.flow[fa, others_f])
            dists = np.sort(inst.dist[la, others_l])[::-1]
            m = min(len(flows), len(dists))
            c += float((flows[:m] * dists[:m]).sum())
            master[a, b] = c
    _assign, value = lap_solve(master)
    laps += 1
    return base + value, laps


@dataclass(frozen=True)
class BBNode(Immutable):
    """A branch-and-bound node: a partial assignment plus its bound (a
    value: it crosses the wire as a master-worker task)."""

    partial: dict[int, int]
    bound: float = 0.0
    depth: int = 0


@dataclass
class BBResult:
    best_value: float
    best_perm: Optional[list[int]]
    nodes_explored: int
    laps_solved: int


class QAPBranchAndBound:
    """Sequential reference solver + a node frontier for master-worker.

    ``expand(node, incumbent)`` returns (children, laps, leaf_solutions)
    and is the unit of work the MW harness ships to workers.
    """

    def __init__(self, inst: QAPInstance):
        self.inst = inst

    def root(self) -> BBNode:
        bound, _ = gilmore_lawler_bound(self.inst, {})
        return BBNode(partial={}, bound=float(bound), depth=0)

    def expand(self, node: BBNode, incumbent: float
               ) -> tuple[list[BBNode], int, list[tuple[float, list[int]]]]:
        inst = self.inst
        n = inst.n
        facility = node.depth     # fix facilities in order
        used = set(node.partial.values())
        children: list[BBNode] = []
        solutions: list[tuple[float, list[int]]] = []
        laps = 0
        for loc in range(n):
            if loc in used:
                continue
            partial = dict(node.partial)
            partial[facility] = loc
            if len(partial) == n:
                perm = [partial[f] for f in range(n)]
                solutions.append((inst.objective(np.array(perm)), perm))
                continue
            bound, nl = gilmore_lawler_bound(inst, partial)
            laps += nl
            if bound < incumbent:
                children.append(BBNode(partial=partial, bound=float(bound),
                                       depth=node.depth + 1))
        return children, laps, solutions

    def solve(self) -> BBResult:
        """Sequential DFS solve (the single-machine baseline)."""
        best = float("inf")
        best_perm: Optional[list[int]] = None
        stack = [self.root()]
        explored = 0
        laps = 1
        while stack:
            node = stack.pop()
            if node.bound >= best:
                continue
            explored += 1
            children, nl, solutions = self.expand(node, best)
            laps += nl
            for value, perm in solutions:
                if value < best:
                    best, best_perm = value, perm
            # deeper/better-bound nodes on top
            children.sort(key=lambda c: -c.bound)
            stack.extend(children)
        return BBResult(best_value=best, best_perm=best_perm,
                        nodes_explored=explored, laps_solved=laps)
