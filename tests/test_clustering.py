import random

import numpy as np
from helpers import expanded, load, random_joint_missions
from oracles import (
    InterdependenceMatrix,
    closure_by_multiplication,
    clusters,
    format_clusters,
    relation_matrix,
    transitive_closure,
    used_robots,
)

from kanoa.allocation import AllocatorConfig, enumerate_allocations
from kanoa.clustering import cluster_robots, robots_of_subtree


def make_matrix(robots, edges):
    n = len(robots)
    idx = {r: i for i, r in enumerate(robots)}
    m = np.eye(n, dtype=bool)
    for a, b in edges:
        m[idx[a], idx[b]] = m[idx[b], idx[a]] = True
    return InterdependenceMatrix(tuple(robots), m)


def alloc(teams):
    return {k: frozenset(v) for k, v in teams.items()}


def test_robots_of_subtree_union():
    a = alloc({"x": {"r3"}, "y": {"r3"}, "z": {"r5"}})
    s = frozenset({"x", "y", "z"})
    assert robots_of_subtree(a, s) == {"r3", "r5"}


def test_robots_of_subtree_joint():
    a = alloc({"at1_move_0": {"r4", "r5"}})
    s = frozenset({"at1_move_0"})
    assert robots_of_subtree(a, s) == {"r4", "r5"}


def test_robots_of_empty_subtree():
    assert robots_of_subtree(alloc({}), frozenset()) == frozenset()


def test_relation_matrix_reflexive_and_links():
    a = alloc({"x": {"r3"}, "y": {"r4"}, "z": {"r4"}, "w": {"r5"}, "v": {"r2"}})
    subtrees = [
        frozenset({"x", "y"}),   # links r3-r4
        frozenset({"z", "w"}),   # links r4-r5
        frozenset({"v"}),        # r2 alone
    ]
    m = relation_matrix(a, subtrees)
    assert m.robots == ("r2", "r3", "r4", "r5")
    i = {r: k for k, r in enumerate(m.robots)}
    assert m.m[i["r3"], i["r4"]] and m.m[i["r4"], i["r5"]]
    assert not m.m[i["r3"], i["r5"]]  # not yet closed
    assert not m.m[i["r2"], i["r3"]]
    assert all(m.m[k, k] for k in range(4))


def test_closure_chain_adds_transitive_edge():
    m = make_matrix(["r3", "r4", "r5"], [("r3", "r4"), ("r4", "r5")])
    closed = transitive_closure(m)
    i = {r: k for k, r in enumerate(closed.robots)}
    assert closed.m[i["r3"], i["r5"]]


def test_closure_identity_fixed():
    m = make_matrix(["a", "b"], [])
    assert transitive_closure(m) == m


def test_closure_idempotent_and_monotone():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 8)
        robots = [f"r{i}" for i in range(n)]
        edges = [
            (robots[rng.randrange(n)], robots[rng.randrange(n)]) for _ in range(n)
        ]
        m = make_matrix(robots, edges)
        closed = transitive_closure(m)
        assert transitive_closure(closed) == closed
        assert np.all(closed.m >= m.m)


def test_paper_instance_clusters():
    # two subtrees sharing r4, one sharing r4-r5, r2 isolated
    a = alloc({
        "x": {"r3"}, "y": {"r4"}, "z": {"r4"}, "w": {"r5"}, "v": {"r2"},
    })
    subtrees = [
        frozenset({"x", "y"}),
        frozenset({"z", "w"}),
        frozenset({"v"}),
    ]
    m = transitive_closure(relation_matrix(a, subtrees))
    groups = clusters(m, a)
    assert [sorted(g.robots) for g in groups] == [["r2"], ["r3", "r4", "r5"]]
    by_union = cluster_robots(a, subtrees)
    assert [g.robots for g in groups] == [g.robots for g in by_union]


def test_singleton_and_full():
    a1 = alloc({"x": {"r1"}})
    m1 = transitive_closure(relation_matrix(a1, [frozenset({"x"})]))
    assert [sorted(g.robots) for g in clusters(m1, a1)] == [["r1"]]

    a2 = alloc({"x": {"r1", "r2"}, "y": {"r3", "r4"}, "z": {"r2", "r3"}})
    subtrees = [frozenset({k}) for k in "xyz"]
    m2 = transitive_closure(relation_matrix(a2, subtrees))
    assert [sorted(g.robots) for g in clusters(m2, a2)] == [["r1", "r2", "r3", "r4"]]


def test_triple_oracle_equality():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(1, 8)
        robots = tuple(f"r{i}" for i in range(n))
        m = np.eye(n, dtype=bool)
        for _ in range(rng.randint(0, n * 2)):
            a, b = rng.randrange(n), rng.randrange(n)
            m[a, b] = m[b, a] = True
        matrix = InterdependenceMatrix(robots, m)
        warshall = transitive_closure(matrix)
        fixpoint = closure_by_multiplication(matrix)
        assert warshall == fixpoint
        # component structure also matches union-find over the raw edges
        fake = alloc({f"i{k}": {robots[k]} for k in range(n)})
        subtrees = [
            frozenset({f"i{a}", f"i{b}"})
            for a in range(n) for b in range(n) if m[a, b]
        ]
        # reuse instances per robot so subtree robot sets mirror the edges
        fake = alloc(
            {f"i{k}": {robots[k]} for k in range(n)}
        )
        uf_groups = [g.robots for g in cluster_robots(fake, subtrees)]
        closure_groups = [g.robots for g in clusters(warshall, fake)]
        assert uf_groups == closure_groups


def test_random_joint_missions_cluster_like_the_closed_matrix():
    """On every allocation of random missions with joint teams, the
    union-find clusters, robots and instances alike, equal the connected
    components of the closed interdependence matrix, whose instances come
    from a scan of the whole allocation per cluster."""
    rng = random.Random(1729)
    coupled = 0
    for v, requested in random_joint_missions(rng, 300):
        leaves, _, _, subtrees = expanded(v)
        for a in enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=requested)):
            expected = clusters(transitive_closure(relation_matrix(a, subtrees)), a)
            assert cluster_robots(a, subtrees) == expected
            coupled += any(len(c.robots) > 1 for c in expected)
    assert coupled > 300


def test_cluster_instances_attached(hospital):
    leaves, _, _, subtrees = expanded(hospital)
    allocs = enumerate_allocations(hospital, leaves, AllocatorConfig(max_allocations=8))
    for a in allocs:
        groups = cluster_robots(a, subtrees)
        robots_seen = set()
        instances_seen = set()
        for g in groups:
            assert not (robots_seen & g.robots)
            robots_seen |= g.robots
            instances_seen |= g.instances
            for inst in g.instances:
                assert a[inst] <= g.robots  # joint teams stay inside
        assert robots_seen == used_robots(a)
        assert instances_seen == set(a)


def test_no_pair_spans_clusters(hospital):
    leaves, _, pairs, subtrees = expanded(hospital)
    allocs = enumerate_allocations(hospital, leaves, AllocatorConfig(max_allocations=8))
    for a in allocs:
        home = {}
        for gi, g in enumerate(cluster_robots(a, subtrees)):
            for inst in g.instances:
                home[inst] = gi
        for p in pairs:
            assert home[p.before] == home[p.after]


def test_format_clusters_dump(hospital):
    leaves, _, pairs, subtrees = expanded(hospital)
    a = enumerate_allocations(hospital, leaves, AllocatorConfig(max_allocations=1))[0]
    m = transitive_closure(relation_matrix(a, subtrees))
    text = format_clusters(m, clusters(m, a))
    assert text.startswith("robots:")
    assert "cluster 0:" in text
