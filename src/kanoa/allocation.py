"""Capability-feasible assignment of task instances to robot teams.

The feasible space is the product, over instances, of all size-k subsets
of the eligible robots.  Enumeration is lexicographic (instance order,
then robot-id order within each combination) and deterministic.  When the
space exceeds the requested count N, N distinct indices are drawn by a
fixed-seed generator and visited in increasing order, so the sample spans
the whole space while staying a subsequence of the full enumeration;
indices are unranked directly without walking the space.  (Equally spaced
indices would be cheaper but degenerate: mixed-radix digits of ``j *
total/N`` form long constant runs, piling most instances onto one robot.)
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import InfeasibleAllocation
from .problem import ValidatedProblem
from .taskgraph import TaskInstance


class Allocation(NamedTuple):
    index: int
    assignments: dict[str, frozenset[str]]

    @property
    def used_robots(self) -> frozenset[str]:
        out = set()
        for robots in self.assignments.values():
            out |= robots
        return frozenset(out)


class AllocatorConfig:
    __slots__ = ("max_allocations",)

    def __init__(self, max_allocations: int = 30):
        if max_allocations < 1:
            raise ValueError("max_allocations must be at least 1")
        self.max_allocations = max_allocations


def eligible_robots(v: ValidatedProblem, instance: TaskInstance) -> list[str]:
    """Robots capable of the instance's type, honoring boundary constraints."""
    return sorted(
        rid
        for rid in v.capable_robots(instance.type_id)
        if v.location_allowed(rid, instance.location)
    )


def count_feasible(v: ValidatedProblem, instances: list[TaskInstance]) -> int:
    """Exact size of the feasible allocation space (product of binomials)."""
    total = 1
    for inst in instances:
        pool = eligible_robots(v, inst)
        total *= math.comb(len(pool), inst.robots_needed)
    return total


def enumerate_allocations(
    v: ValidatedProblem,
    instances: list[TaskInstance],
    cfg: AllocatorConfig,
) -> list[Allocation]:
    """Up to ``cfg.max_allocations`` distinct feasible allocations.

    Raises :class:`InfeasibleAllocation` when an instance has fewer
    eligible robots than it needs.
    """
    pools = []
    for inst in instances:
        pool = eligible_robots(v, inst)
        if len(pool) < inst.robots_needed:
            raise InfeasibleAllocation(
                f"instance '{inst.instance_id}' needs {inst.robots_needed} robots "
                f"but only {len(pool)} are eligible"
            )
        pools.append(pool)

    radices = [math.comb(len(p), i.robots_needed) for p, i in zip(pools, instances)]
    total = math.prod(radices)
    ranks = _sample_ranks(total, cfg.max_allocations)
    return [
        _unrank(rank, instances, pools, radices, j) for j, rank in enumerate(ranks)
    ]


def _sample_ranks(total: int, n: int) -> list[int]:
    """N distinct indices into the enumeration, ascending; all when few."""
    if total <= n:
        return list(range(total))
    rng = random.Random("allocation-sample")
    picked: set[int] = set()
    while len(picked) < n:
        picked.add(rng.randrange(total))
    return sorted(picked)


def _unrank(rank, instances, pools, radices, index) -> Allocation:
    assignments = {}
    # most-significant digit first: divide by the product of later radices
    suffix = math.prod(radices)
    for inst, pool, radix in zip(instances, pools, radices):
        suffix //= radix
        digit, rank = divmod(rank, suffix)
        team = _combination_unrank(pool, inst.robots_needed, digit)
        assignments[inst.instance_id] = frozenset(team)
    return Allocation(index=index, assignments=assignments)


def _combination_unrank(pool: list[str], k: int, rank: int) -> list[str]:
    """The rank-th size-k combination of ``pool`` in lexicographic order."""
    m = len(pool)
    combo = []
    x = 0
    for i in range(k):
        while True:
            below = math.comb(m - x - 1, k - i - 1)
            if rank < below:
                combo.append(pool[x])
                x += 1
                break
            rank -= below
            x += 1
    return combo

