import random
from itertools import permutations as iterperms

from helpers import expanded, first_allocation, load

from kanoa.permutations import random_task_permutation, robot_precedence, travel_cost

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
    precedence = robot_precedence(allocation, clusters[0], pairs)
    for seed in range(50):
        p = random_task_permutation(precedence, seed)
        assert p["r"] == ("x_0", "y_0")


def test_all_six_orders_observed():
    v = load(FREE3)
    allocation, clusters, instances, pairs = first_allocation(v)
    seen = set()
    precedence = robot_precedence(allocation, clusters[0], pairs)
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
    precedence = robot_precedence(allocation, clusters[0], pairs)
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
        precedence = robot_precedence(allocation, cluster, pairs)
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
    precedence = robot_precedence(allocation, cluster, pairs)
    for seed in range(40):
        p = random_task_permutation(precedence, seed)
        order = p["r1"]
        assert order.index("x_0") < order.index("z_0")


def test_travel_cost_no_tasks():
    v = load(FREE3)
    _, instances, _, _ = expanded(v)
    assert travel_cost({"r": ()}, v, instances) == 0


def test_travel_cost_order_dependent():
    v = load("""
world { loc base (0,0) loc near (2,0) loc far (10,0) }
tasks { atomic t robots 1 atomic u robots 1 }
robots { robot r at base velocity 1 { can t time 1 prob 1 can u time 1 prob 1 } }
mission { task t at near; task u at far; time 50 }
""")
    _, instances, _, _ = expanded(v)
    near_first = travel_cost({"r": ("t_0", "u_0")}, v, instances)
    far_first = travel_cost({"r": ("u_0", "t_0")}, v, instances)
    assert near_first == 2 + 8
    assert far_first == 10 + 8
    assert near_first != far_first


def test_travel_cost_matches_event_walk_oracle():
    rng = random.Random(11)
    from helpers import random_problem_text

    checked = 0
    while checked < 25:
        try:
            v = load(random_problem_text(rng))
        except Exception:
            continue
        leaves, instances, pairs, subtrees = expanded(v)
        from kanoa.allocation import AllocatorConfig, enumerate_allocations, used_robots
        try:
            allocation = enumerate_allocations(
                v, leaves, AllocatorConfig(max_allocations=1)
            )[0]
        except Exception:
            continue
        order = {}
        for rid in sorted(used_robots(allocation)):
            mine = sorted(
                i for i, team in allocation.items() if rid in team
            )
            rng.shuffle(mine)
            order[rid] = tuple(mine)
        # independent recomputation: walk each chain and sum pair distances
        expected = 0
        for rid, seq in order.items():
            here = v.robot(rid).initial_loc
            for inst in seq:
                there = instances[inst].location
                expected += v.distance(here, there)
                here = there
        assert travel_cost(order, v, instances) == expected
        checked += 1
