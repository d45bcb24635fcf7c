import math

import pytest
from helpers import expanded, load
from oracles import brute_force_allocations

import kanoa.allocation
from kanoa.allocation import (
    AllocatorConfig,
    count_feasible,
    enumerate_allocations,
    used_robots,
)
from kanoa.errors import InfeasibleAllocation, ValidationError

TWO_TASKS = """
world { loc a (0,0) loc b (1,0) }
tasks { atomic t robots 1 atomic u robots 1 }
robots {
  robot r1 at a velocity 1 { can t time 1 prob 1 can u time 1 prob 1 }
  robot r2 at a velocity 1 { can t time 1 prob 1 can u time 1 prob 1 }
  robot r3 at a velocity 1 { can t time 1 prob 1 can u time 1 prob 1 }
}
mission { task t at a; task u at b; time 10 }
"""

JOINT = """
world { loc a (0,0) }
tasks { atomic lift robots 2 }
robots {
  robot r1 at a velocity 1 { can lift time 1 prob 1 }
  robot r2 at a velocity 1 { can lift time 1 prob 1 }
  robot r3 at a velocity 1 { can lift time 1 prob 1 }
}
mission { task lift at a; time 10 }
"""


def test_count_product():
    v = load(TWO_TASKS)
    leaves, _, _, _ = expanded(v)
    assert count_feasible(v, leaves) == 9  # 3 x 3


def test_count_binomial():
    v = load(JOINT)
    leaves, _, _, _ = expanded(v)
    assert count_feasible(v, leaves) == 3  # C(3,2)


def test_unique_assignment():
    v = load(
        "world { loc a (0,0) } tasks { atomic t robots 1 }"
        " robots { robot r at a velocity 1 { can t time 1 prob 1 } }"
        " mission { task t at a; time 5 }"
    )
    leaves, _, _, _ = expanded(v)
    allocs = enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=5))
    assert len(allocs) == 1
    assert allocs[0]["t_0"] == frozenset({"r"})


def test_joint_pair_single_allocation():
    v = load(JOINT.replace("robot r3 at a velocity 1 { can lift time 1 prob 1 }", ""))
    leaves, _, _, _ = expanded(v)
    allocs = enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=10))
    assert len(allocs) == 1
    assert allocs[0]["lift_0"] == frozenset({"r1", "r2"})


def test_matches_brute_force_prefix():
    # when the space fits within N, the output is the whole enumeration in order
    v = load(TWO_TASKS)
    leaves, _, _, _ = expanded(v)
    allocs = enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=20))
    oracle = list(brute_force_allocations(v, leaves))
    assert allocs == oracle


def test_subset_and_order_consistent_when_sampled():
    v = load(TWO_TASKS)
    leaves, _, _, _ = expanded(v)
    allocs = enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=4))
    oracle = list(brute_force_allocations(v, leaves))
    positions = [oracle.index(a) for a in allocs]
    assert len(set(positions)) == 4  # distinct
    assert positions == sorted(positions)  # order-consistent subsequence


def test_allocation_facts(hospital):
    leaves, _, _, _ = expanded(hospital)
    allocs = enumerate_allocations(hospital, leaves, AllocatorConfig(max_allocations=12))
    for a in allocs:
        for inst in leaves:
            team = a[inst.instance_id]
            assert len(team) == inst.robots_needed  # exact team size
            for rid in team:
                # only capable robots are ever assigned
                assert hospital.robot(rid).capability_for(inst.type_id)
        # used robots are exactly those with at least one assignment
        assert used_robots(a) == {
            r for team in a.values() for r in team
        }


def test_distinctness(hospital):
    leaves, _, _, _ = expanded(hospital)
    allocs = enumerate_allocations(hospital, leaves, AllocatorConfig(max_allocations=30))
    # each allocation's canonical hashable form
    keys = {
        tuple((inst, tuple(sorted(team))) for inst, team in sorted(a.items()))
        for a in allocs
    }
    assert len(keys) == 30


def test_hospital_count_pinned(hospital):
    leaves, _, _, _ = expanded(hospital)
    # 2 joint moves over 4 capable robots, 12 cleaning tasks over 3 cleaners
    assert count_feasible(hospital, leaves) == math.comb(4, 2) ** 2 * 3**12


def test_hospital_includes_r4_r5_move_team(hospital):
    leaves, _, _, _ = expanded(hospital)
    allocs = enumerate_allocations(hospital, leaves, AllocatorConfig(max_allocations=30))
    teams = {a["at1_move_0"] for a in allocs}
    assert frozenset({"r4", "r5"}) in teams


def test_infeasible_when_too_few_robots():
    v = load(JOINT)
    leaves, _, _, _ = expanded(v)
    # boundary excludes everyone from the task location except r1
    text = JOINT.replace(
        "mission { task lift at a; time 10 }",
        "mission { task lift at a; time 10;"
        " boundary r2 (5, 5) (9, 9); boundary r3 (5, 5) (9, 9) }",
    )
    v2 = load(text)
    leaves2, _, _, _ = expanded(v2)
    with pytest.raises(InfeasibleAllocation):
        enumerate_allocations(v2, leaves2, AllocatorConfig(max_allocations=5))


def test_boundary_filter_restricts_assignment():
    text = TWO_TASKS.replace(
        "mission { task t at a; task u at b; time 10 }",
        "mission { task t at a; task u at b; time 10;"
        " boundary r1 (-1, -1) (0, 1) }",  # r1 cannot reach b=(1,0)
    )
    v = load(text)
    leaves, _, _, _ = expanded(v)
    allocs = enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=50))
    assert len(allocs) == 6  # 3 choices for t, only r2/r3 for u
    for a in allocs:
        assert "r1" not in a["u_0"]


@pytest.mark.parametrize("requested, allowed", [(4, True), (5, False), (100, False)])
def test_allocated_instance_limit(monkeypatch, requested, allowed):
    # nine feasible allocations of two instances each: a limit of 8 teams
    # admits four allocations, and a larger request fails before any is drawn
    monkeypatch.setattr(kanoa.allocation, "MAX_ALLOCATED_INSTANCES", 8)
    if not allowed:
        monkeypatch.setattr(
            kanoa.allocation, "_sample_ranks", lambda *a: pytest.fail("ranks drawn")
        )
    v = load(TWO_TASKS)
    leaves, _, _, _ = expanded(v)
    cfg = AllocatorConfig(max_allocations=requested)
    if allowed:
        assert len(enumerate_allocations(v, leaves, cfg)) == requested
    else:
        with pytest.raises(ValidationError) as exc:
            enumerate_allocations(v, leaves, cfg)
        assert exc.value.problems == [
            f"{min(requested, 9)} allocations of 2 task instances exceed the "
            "limit of 8 allocated instances; request at most 4 allocations"
        ]

