import random
import types
from itertools import permutations as iterperms

import oracles
import pytest
from helpers import (
    cluster_draw_state, expanded, first_allocation, load, perfbench_mission,
    random_joint_missions,
)
from oracles import (
    per_robot_precedence, precedence_draw_state, resorted_task_permutation, used_robots,
)

import kanoa
import kanoa.optimizer
import kanoa.permutations
from kanoa.allocation import AllocatorConfig, enumerate_allocations
from kanoa.clustering import RobotCluster, cluster_robots
from kanoa.optimizer import nsga2_run, prepare_search
from kanoa.permutations import draw_state, random_task_permutation

FORCED = """
world { loc a (0,0) }
tasks { atomic x robots 1 atomic y robots 1 compound c = ordered { x, y } }
robots { robot r at a velocity 1 { can x time 1 prob 1 can y time 1 prob 1 } }
mission { task c at a; time 10 }
"""

FREE3 = """
world { loc a (0,0) }
tasks { atomic x robots 1 atomic y robots 1 atomic z robots 1 }
robots { robot r at a velocity 1 {
  can x time 1 prob 1 can y time 1 prob 1 can z time 1 prob 1 } }
mission { task x at a; task y at a; task z at a; time 10 }
"""


def test_forced_order_all_seeds():
    v = load(FORCED)
    allocation, clusters, instances, pairs = first_allocation(v)
    precedence = cluster_draw_state(allocation, clusters[0], pairs)
    for seed in range(50):
        p = random_task_permutation(precedence, seed)
        assert p["r"] == ("x_0", "y_0")


def test_all_six_orders_observed():
    v = load(FREE3)
    allocation, clusters, instances, pairs = first_allocation(v)
    seen = set()
    precedence = cluster_draw_state(allocation, clusters[0], pairs)
    for seed in range(1000):
        p = random_task_permutation(precedence, seed)
        seen.add(p["r"])
    expected = {
        tuple(f"{t}_0" for t in perm) for perm in iterperms(["x", "y", "z"])
    }
    assert seen == expected


def test_seed_reproducible():
    v = load(FREE3)
    allocation, clusters, instances, pairs = first_allocation(v)
    precedence = cluster_draw_state(allocation, clusters[0], pairs)
    a = random_task_permutation(precedence, seed="s")
    b = random_task_permutation(precedence, seed="s")
    assert a == b


def test_notify_always_first(hospital):
    from kanoa.allocation import AllocatorConfig, enumerate_allocations
    from kanoa.clustering import cluster_robots

    leaves, instances, pairs, subtrees = expanded(hospital)
    allocation = enumerate_allocations(
        hospital, leaves, AllocatorConfig(max_allocations=1)
    )[0]
    for cluster in cluster_robots(allocation, subtrees):
        precedence = cluster_draw_state(allocation, cluster, pairs)
        for seed in range(30):
            p = random_task_permutation(precedence, seed)
            for robot, order in p.items():
                for room in range(4):
                    have = [
                        t for t in order
                        if t.endswith(f"_{room}") and not t.startswith("at1")
                    ]
                    notify = f"at4_notify_{room}"
                    if notify in have:
                        assert have[0] == notify


def test_chain_through_other_robot_respected():
    # x -> y -> z with y on another robot: the first robot still keeps x
    # before z in every draw
    v = load("""
world { loc a (0,0) }
tasks { atomic x robots 1 atomic y robots 1 atomic z robots 1
        compound c = ordered { x, y, z } }
robots {
  robot r1 at a velocity 1 { can x time 1 prob 1 can z time 1 prob 1 }
  robot r2 at a velocity 1 { can y time 1 prob 1 }
}
mission { task c at a; time 30;  }
""")
    leaves, instances, pairs, subtrees = expanded(v)
    from kanoa.clustering import cluster_robots

    allocation = {
        "x_0": frozenset({"r1"}),
        "y_0": frozenset({"r2"}),
        "z_0": frozenset({"r1"}),
    }
    cluster = cluster_robots(allocation, subtrees)[0]
    precedence = cluster_draw_state(allocation, cluster, pairs)
    for seed in range(40):
        p = random_task_permutation(precedence, seed)
        order = p["r1"]
        assert order.index("x_0") < order.index("z_0")


# -- the sorted ready list against re-sorting at every step ---------------------


def random_precedence(rng):
    """One to four robots, each with up to eight tasks under a random
    precedence: each task may wait on any task listed before it.  Task
    names are shuffled, so their sorted order is not the listing order."""
    precedence = []
    for r in range(rng.randint(1, 4)):
        names = [f"t{r}_{k}" for k in range(rng.randint(0, 8))]
        rng.shuffle(names)
        preds = {}
        for k, name in enumerate(names):
            preds[name] = frozenset(p for p in names[:k] if rng.random() < 0.3)
        precedence.append((f"r{r}", dict(sorted(preds.items()))))
    return precedence


def assert_precedence_matches_per_robot_scan(v, requested):
    """Each allocation's draw state, and that of every cluster of it, equals
    the one converted from the per-robot scan's restriction of the
    precedence order; returns how many restrictions hold a predecessor."""
    leaves, _, pairs, subtrees = expanded(v)
    ordered = 0
    for a in enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=requested)):
        whole = RobotCluster(used_robots(a), frozenset(a))
        expected = per_robot_precedence(a, whole, pairs)
        assert draw_state(a, pairs) == precedence_draw_state(expected)
        ordered += sum(any(preds.values()) for _, preds in expected)
        for cluster in cluster_robots(a, subtrees):
            expected = per_robot_precedence(a, cluster, pairs)
            assert cluster_draw_state(a, cluster, pairs) == precedence_draw_state(expected)
            ordered += sum(any(preds.values()) for _, preds in expected)
    return ordered


def test_precedence_matches_per_robot_scan_on_random_missions():
    rng = random.Random(2718)
    ordered = sum(
        assert_precedence_matches_per_robot_scan(v, requested)
        for v, requested in random_joint_missions(rng, 300)
    )
    assert ordered > 100


@pytest.mark.parametrize("workload", ["hospital", "relay"])
def test_precedence_matches_per_robot_scan_on_benchmark_missions(workload):
    # fleet missions have no ordered task, so they are left out
    text, cfg = perfbench_mission(workload)
    assert assert_precedence_matches_per_robot_scan(load(text), cfg.allocations) > 0


# ordered compounds of three and of a nested compound: precedence chains
# of up to four steps, which run through other robots' instances
CHAINS = """
world { loc a (0,0) loc b (2,0) }
tasks {
  atomic x robots 1 atomic y robots 1 atomic z robots 1
  compound c = ordered { x, y, z }
  compound d = ordered { c, x }
}
robots {
  robot r1 at a velocity 1 { can x time 1 prob 1 can z time 1 prob 1 }
  robot r2 at a velocity 1 { can x time 1 prob 1 can y time 1 prob 1 }
  robot r3 at b velocity 1 { can x time 1 prob 1 can y time 1 prob 1 can z time 1 prob 1 }
}
mission { task d at a; task c at b; time 50 }
"""


def test_precedence_matches_per_robot_scan_on_chains():
    v = load(CHAINS)
    assert assert_precedence_matches_per_robot_scan(v, 200) > 0


def test_draws_match_resorting_oracle_on_random_precedences():
    rng = random.Random(19)
    for _ in range(400):
        precedence = random_precedence(rng)
        # one state serves several draws: a draw must not change it
        state = precedence_draw_state(precedence)
        for _ in range(3):
            seed = rng.random()
            drawn = random_task_permutation(state, seed)
            assert list(drawn.items()) == list(
                resorted_task_permutation(precedence, seed).items()
            )


# ready lists of every length from 1 to 65 start or pass through these,
# powers of two and their neighbours among them
READY_LENGTHS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]


def test_draws_use_randrange_bit_for_bit(monkeypatch):
    """Each pick takes exactly the bits ``Random.randrange`` takes: a draw
    equals the re-sorting oracle, which calls ``randrange``, and leaves
    its generator in the same state.  A robot of n free tasks picks from
    ready lists of lengths n down to 1; a robot with waiting tasks and
    one with no task ride along."""
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    for module in (kanoa.permutations, oracles):
        monkeypatch.setattr(module, "random", types.SimpleNamespace(Random=Recording))
    rng = random.Random(23)
    for n in READY_LENGTHS:
        names = [f"w{k:02d}" for k in range(rng.randint(1, 12))]
        waiting = {t: frozenset(p for p in names[:k] if rng.random() < 0.4)
                   for k, t in enumerate(names)}
        precedence = [
            ("a", {f"t{k:02d}": frozenset() for k in range(n)}), ("b", waiting), ("c", {}),
        ]
        state = precedence_draw_state(precedence)
        for seed in [0, 1, n, f"{n}:3:7", rng.random()]:
            drawn = random_task_permutation(state, seed)
            assert drawn == resorted_task_permutation(precedence, seed)
            mine, reference = made[-2:]
            assert mine.getstate() == reference.getstate()


@pytest.mark.parametrize("workload", ["hospital", "relay", "fleet"])
def test_draws_match_resorting_oracle_on_benchmark_runs(workload, monkeypatch):
    """Every pool entry drawn by a search of sub-instance 0 of the
    benchmark's ``--seed 11`` basket, from its allocation's shared draw
    state, equals the re-sorting draw from the allocation's precedence."""
    draws = []
    original = kanoa.optimizer.random_task_permutation

    def recording(state, seed):
        drawn = original(state, seed)
        draws.append((seed, drawn))
        return drawn

    monkeypatch.setattr(kanoa.optimizer, "random_task_permutation", recording)
    text, cfg = perfbench_mission(workload, seed=11)
    space = prepare_search(
        load(text), AllocatorConfig(max_allocations=cfg.allocations), cfg.ga()
    )
    nsga2_run(space, cfg.ga())
    assert len(draws) > 30
    for seed, drawn in draws:
        allocation = space.allocations[int(seed.split(":")[1])]
        whole = RobotCluster(used_robots(allocation), frozenset(allocation))
        precedence = per_robot_precedence(allocation, whole, space.pairs)
        expected = resorted_task_permutation(precedence, seed)
        assert list(drawn.items()) == list(expected.items()), seed


@pytest.mark.parametrize("workload", ["hospital", "relay"])
def test_top_level_api_draws_like_resorting_oracle(workload):
    """Names exported by ``kanoa`` alone take a mission to pool draws, and
    every draw equals the re-sorting draw from the same precedence."""
    text, _ = perfbench_mission(workload)
    v = kanoa.validate_problem(kanoa.parse_problem(text))
    root, pairs = kanoa.expand_mission(v)
    subtrees = kanoa.prune_subtrees(root)
    allocations = kanoa.enumerate_allocations(
        v, root.leaves(), kanoa.AllocatorConfig(max_allocations=4)
    )
    drawn = 0
    for allocation in allocations:
        for cluster in kanoa.cluster_robots(allocation, subtrees):
            mine = {inst: allocation[inst] for inst in cluster.instances}
            state = kanoa.draw_state(mine, pairs)
            precedence = per_robot_precedence(allocation, cluster, pairs)
            for seed in range(3):
                got = kanoa.random_task_permutation(state, seed)
                expected = resorted_task_permutation(precedence, seed)
                assert list(got.items()) == list(expected.items())
                drawn += 1
    assert drawn >= 12

