"""Grouping robots that share constrained subtrees, per allocation.

Robots are related when they co-occur in a subtree's robot set; the
transitive closure of that relation partitions the used robots into
clusters that must be scheduled together.  Union-find over the relation's
edges yields exactly that partition without building the relation matrix.
"""

from __future__ import annotations

from typing import NamedTuple

from .allocation import used_robots


class RobotCluster(NamedTuple):
    robots: frozenset[str]
    instances: frozenset[str]


def robots_of_subtree(
    allocation: dict[str, frozenset[str]], subtree: frozenset[str]
) -> frozenset[str]:
    """Union of the robot teams assigned to the subtree's leaf instances."""
    out = set()
    for inst_id in subtree:
        out |= allocation[inst_id]
    return frozenset(out)


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def cluster_robots(
    allocation: dict[str, frozenset[str]], subtrees: list[frozenset[str]]
) -> list[RobotCluster]:
    """Production clustering: union-find over subtree robot sets."""
    robots = sorted(used_robots(allocation))
    uf = UnionFind(robots)
    for s in subtrees:
        group = sorted(robots_of_subtree(allocation, s))
        for other in group[1:]:
            uf.union(group[0], other)
    by_root: dict[str, set[str]] = {}
    for r in robots:
        by_root.setdefault(uf.find(r), set()).add(r)
    groups = sorted((frozenset(g) for g in by_root.values()), key=min)
    return [_make_cluster(g, allocation) for g in groups]


def _make_cluster(
    robots: frozenset[str], allocation: dict[str, frozenset[str]]
) -> RobotCluster:
    instances = frozenset(
        inst
        for inst, team in allocation.items()
        if team & robots
    )
    return RobotCluster(robots=robots, instances=instances)

