"""Capability-feasible assignment of task instances to robot teams.

An allocation is a dict from each instance id to its team, the frozenset
of the robot ids assigned to it.

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

from .errors import InfeasibleAllocation, ValidationError
from .problem import ValidatedProblem
from .taskgraph import TaskInstance

# Most teams the drawn allocations may hold in all: min(requested, feasible)
# allocations times the mission's task instances.  Each team costs about
# 340 B with its share of the clusters: prepare_search on the bundled
# hospital mission (14 instances) peaked at 4,760 B per allocation by
# tracemalloc, at both 10,000 and 100,000 allocations.  At the limit, hospital
# with 35,714 allocations, two permutations, population 4 and one generation
# peaked at 186 MB resident in 3.4 s.  See docs/grammar.md.
MAX_ALLOCATED_INSTANCES = 500_000


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


def used_robots(allocation: dict[str, frozenset[str]]) -> frozenset[str]:
    """Every robot that some instance's team includes."""
    return frozenset().union(*allocation.values())


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
) -> list[dict[str, frozenset[str]]]:
    """Up to ``cfg.max_allocations`` distinct feasible allocations.

    Raises :class:`InfeasibleAllocation` when an instance has fewer
    eligible robots than it needs, and :class:`ValidationError` before any
    is drawn when they would hold more than ``MAX_ALLOCATED_INSTANCES``
    teams.
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
    count = min(total, cfg.max_allocations)
    if count * len(instances) > MAX_ALLOCATED_INSTANCES:
        raise ValidationError([
            f"{count} allocations of {len(instances)} task instances exceed the "
            f"limit of {MAX_ALLOCATED_INSTANCES} allocated instances; request at "
            f"most {MAX_ALLOCATED_INSTANCES // len(instances)} allocations"
        ])
    ranks = _sample_ranks(total, cfg.max_allocations)
    return [_unrank(rank, instances, pools, radices) for rank in ranks]


def _sample_ranks(total: int, n: int) -> list[int]:
    """N distinct indices into the enumeration, ascending; all when few."""
    if total <= n:
        return list(range(total))
    rng = random.Random("allocation-sample")
    picked: set[int] = set()
    while len(picked) < n:
        picked.add(rng.randrange(total))
    return sorted(picked)


def _unrank(rank, instances, pools, radices) -> dict[str, frozenset[str]]:
    allocation = {}
    # most-significant digit first: divide by the product of later radices
    suffix = math.prod(radices)
    for inst, pool, radix in zip(instances, pools, radices):
        suffix //= radix
        digit, rank = divmod(rank, suffix)
        team = _combination_unrank(pool, inst.robots_needed, digit)
        allocation[inst.instance_id] = frozenset(team)
    return allocation


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

