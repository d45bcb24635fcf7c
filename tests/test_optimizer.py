import pytest
from helpers import load

from kanoa.allocation import AllocatorConfig
from kanoa.errors import NoFeasibleSolution
from kanoa.optimizer import (
    Chromosome,
    GaConfig,
    Objectives,
    brute_force_front,
    dominates,
    evaluate,
    nsga2_run,
    prepare_search,
)

SMALL = """
world { loc a (0,0) loc b (4,0) loc c (0,3) }
tasks { atomic t robots 1 atomic u robots 1 }
robots {
  robot r1 at a velocity 1 { can t time 2 prob 0.9 can u time 2 prob 0.9 }
  robot r2 at c velocity 1 { can t time 3 prob 0.8 can u time 1 prob 0.95 }
}
mission { task t at b; task u at c; time 25 }
"""


def space_for(text, allocations=4, perms=3, seed=0):
    v = load(text)
    cfg = GaConfig(
        population_size=12,
        generations=3,
        permutations_per_allocation=perms,
        seed=seed,
    )
    return prepare_search(v, AllocatorConfig(max_allocations=allocations), cfg), cfg


def test_dominates_truth_table():
    assert dominates(Objectives(0.5, 10, 100), Objectives(0.6, 12, 100))
    assert not dominates(Objectives(0.5, 10, 100), Objectives(0.5, 10, 100))
    assert not dominates(Objectives(0.5, 12, 100), Objectives(0.6, 10, 100))
    assert not dominates(Objectives(0.6, 12, 100), Objectives(0.5, 10, 100))
    assert dominates(Objectives(0.5, 10, 100), Objectives(0.5, 10, 101))


def test_single_chromosome_passthrough():
    space, _ = space_for(SMALL, allocations=1, perms=1)
    cache = {}
    res = evaluate(space, Chromosome(0, 0), cache)
    assert res.feasible
    # single allocation, clusters solved directly: aggregate equals parts
    p = 1.0
    idle = travel = 0
    for sched in res.cluster_results:
        p *= sched.p_success
        idle += sched.idle
        travel += sched.travel
    assert res.objectives == Objectives(1.0 - p, idle, travel)


def test_infeasible_time_budget():
    text = SMALL.replace("time 25", "time 3")
    space, _ = space_for(text, allocations=2, perms=2)
    cache = {}
    res = evaluate(space, Chromosome(0, 0), cache)
    assert not res.feasible and res.objectives is None


def test_cache_hit_no_reevaluation(monkeypatch):
    space, _ = space_for(SMALL, allocations=2, perms=2)
    calls = {"n": 0}
    import kanoa.optimizer as opt

    original = opt.schedule_cluster

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(opt, "schedule_cluster", counting)
    cache = {}
    evaluate(space, Chromosome(0, 0), cache)
    first = calls["n"]
    evaluate(space, Chromosome(0, 0), cache)
    assert calls["n"] == first  # memoized


def test_front_nondominated_and_feasible():
    space, cfg = space_for(SMALL, allocations=4, perms=3)
    front = nsga2_run(space, cfg)
    assert front.entries
    for e in front.entries:
        assert e.plan is not None
        for other in front.entries:
            assert not dominates(other.objectives, e.objectives) or other is e


def test_single_feasible_space():
    space, _ = space_for(SMALL, allocations=1, perms=1)
    cfg = GaConfig(population_size=4, generations=2, permutations_per_allocation=1)
    front = nsga2_run(space, cfg)
    assert len(front.entries) == 1
    assert front.entries[0].chromosome == Chromosome(0, 0)


def test_exhaustive_matches_brute_force():
    space, _ = space_for(SMALL, allocations=4, perms=3)  # 12 chromosomes
    cfg = GaConfig(population_size=16, generations=4,
                   permutations_per_allocation=3, seed=1)
    front = nsga2_run(space, cfg)
    oracle = brute_force_front(space)
    assert [
        (e.chromosome, e.objectives) for e in front.entries
    ] == [(e.chromosome, e.objectives) for e in oracle]


def test_deterministic_per_seed():
    space, cfg = space_for(SMALL)
    a = nsga2_run(space, cfg)
    b = nsga2_run(space, cfg)
    assert [(e.chromosome, e.objectives) for e in a.entries] == [
        (e.chromosome, e.objectives) for e in b.entries
    ]


def test_front_sorted_by_objectives():
    space, cfg = space_for(SMALL, allocations=4, perms=3)
    front = nsga2_run(space, cfg)
    keys = [e.objectives.as_tuple() for e in front.entries]
    assert keys == sorted(keys)


def test_no_feasible_solution_error():
    text = SMALL.replace("time 25", "time 2")
    space, cfg = space_for(text, allocations=2, perms=2)
    with pytest.raises(NoFeasibleSolution) as info:
        nsga2_run(space, cfg)
    assert info.value.evaluated > 0
    assert info.value.infeasible == info.value.evaluated


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=5)
