"""Grouping robots that share constrained subtrees, per allocation.

Robots are related when they co-occur in a subtree's robot set; the
transitive closure of that relation partitions the used robots into
clusters that must be scheduled together.  Union-find over the relation's
edges yields exactly that partition without building the relation matrix.
"""

from __future__ import annotations

from typing import NamedTuple


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
    """Production clustering: union-find over subtree robot sets.

    One pass over the allocation lists each robot's instances; a
    cluster's instances are the union of its robots' lists.  Clusters come
    in order of their smallest robot id."""
    own: dict[str, list[str]] = {}
    for inst, team in allocation.items():
        for r in team:
            own.setdefault(r, []).append(inst)
    robots = sorted(own)
    uf = UnionFind(robots)
    for s in subtrees:
        group = robots_of_subtree(allocation, s)
        if len(group) > 1:
            first, *rest = group
            for other in rest:
                uf.union(first, other)
    by_root: dict[str, list[str]] = {}
    for r in robots:  # ascending, so each root first appears with its smallest robot
        by_root.setdefault(uf.find(r), []).append(r)
    return [
        RobotCluster(frozenset(members), frozenset().union(*[own[r] for r in members]))
        for members in by_root.values()
    ]
