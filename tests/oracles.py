"""Reference implementations that the shipped pipeline is checked against.

None of this runs in ``kanoa plan``.  Production clusters robots with
union-find (:func:`kanoa.clustering.cluster_robots`) and samples allocations
by unranking (:func:`kanoa.allocation.enumerate_allocations`); the oracles
here compute the same results the slow, obvious way:

* the paper's interdependence matrix, closed by Warshall's algorithm and,
  independently, by a boolean matrix-power fixpoint;
* the full feasible allocation space, by nested enumeration;
* a robot's finishing clock with no waiting at all.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from kanoa.allocation import Allocation, eligible_robots
from kanoa.clustering import RobotCluster, _make_cluster, robots_of_subtree
from kanoa.mdp import ClusterContext
from kanoa.problem import ValidatedProblem
from kanoa.taskgraph import Subtree, TaskInstance


class InterdependenceMatrix:
    """Reflexive symmetric boolean relation over an ordered robot list."""

    def __init__(self, robots: tuple[str, ...], m: np.ndarray):
        self.robots = tuple(robots)
        self.m = m.astype(bool)

    def __eq__(self, other):
        if not isinstance(other, InterdependenceMatrix):
            return NotImplemented
        return self.robots == other.robots and np.array_equal(self.m, other.m)

    def __repr__(self):
        return f"InterdependenceMatrix({self.robots}, {self.m.astype(int).tolist()})"


def relation_matrix(
    allocation: Allocation, subtrees: list[Subtree]
) -> InterdependenceMatrix:
    robots = tuple(sorted(allocation.used_robots))
    index = {r: i for i, r in enumerate(robots)}
    m = np.eye(len(robots), dtype=bool)
    for s in subtrees:
        group = [index[r] for r in robots_of_subtree(allocation, s)]
        for a in group:
            for b in group:
                m[a, b] = True
    return InterdependenceMatrix(robots, m)


def transitive_closure(matrix: InterdependenceMatrix) -> InterdependenceMatrix:
    """Warshall's algorithm; idempotent, never removes existing relations."""
    m = matrix.m.copy()
    n = len(matrix.robots)
    for k in range(n):
        m |= np.outer(m[:, k], m[k, :])
    return InterdependenceMatrix(matrix.robots, m)


def closure_by_multiplication(matrix: InterdependenceMatrix) -> InterdependenceMatrix:
    """Boolean matrix-power fixpoint; independent oracle for the closure."""
    m = matrix.m.copy()
    while True:
        nxt = m | (m @ m)
        if np.array_equal(nxt, m):
            return InterdependenceMatrix(matrix.robots, nxt)
        m = nxt


def clusters(
    matrix: InterdependenceMatrix, allocation: Allocation
) -> list[RobotCluster]:
    """Connected components of a closed matrix, ordered by smallest robot id."""
    robots = matrix.robots
    seen = set()
    groups = []
    for i, r in enumerate(robots):
        if r in seen:
            continue
        members = frozenset(robots[j] for j in np.flatnonzero(matrix.m[i]))
        seen |= members
        groups.append(members)
    return [_make_cluster(g, allocation) for g in sorted(groups, key=min)]


def format_clusters(matrix: InterdependenceMatrix, groups: list[RobotCluster]) -> str:
    """Plain-text dump of the relation matrix and resulting clusters."""
    lines = ["robots: " + " ".join(matrix.robots)]
    for r, row in zip(matrix.robots, matrix.m):
        lines.append(f"  {r}: " + " ".join("1" if v else "0" for v in row))
    for i, g in enumerate(groups):
        lines.append(f"cluster {i}: {{{', '.join(sorted(g.robots))}}}")
    return "\n".join(lines)


def brute_force_allocations(v: ValidatedProblem, instances: list[TaskInstance]):
    """Generator over the full feasible space in enumeration order.

    Kept independent of the unranking path.
    """
    pools = [eligible_robots(v, i) for i in instances]
    combos = [
        list(combinations(pool, inst.robots_needed))
        for pool, inst in zip(pools, instances)
    ]

    def rec(idx, acc):
        if idx == len(instances):
            yield dict(acc)
            return
        for team in combos[idx]:
            acc[instances[idx].instance_id] = frozenset(team)
            yield from rec(idx + 1, acc)
        acc.pop(instances[idx].instance_id, None)

    yield from rec(0, {})


def min_completion(ctx: ClusterContext, i: int) -> int:
    """Lower bound on robot i's finishing clock (no waiting at all)."""
    return ctx.cum[i][-1]
