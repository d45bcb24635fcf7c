import random
import tracemalloc

import pytest
from helpers import load, perfbench_mission, random_problem_text
from oracles import (
    pairwise_front,
    pairwise_nondominated_sort,
    reference_task_permutation,
)

import kanoa.optimizer
from kanoa.allocation import AllocatorConfig, used_robots
from kanoa.clustering import RobotCluster
from kanoa.errors import NoFeasibleSolution
from kanoa.optimizer import (
    Chromosome,
    EvalResult,
    GaConfig,
    Objectives,
    brute_force_front,
    crowding_distance,
    dominates,
    evaluate,
    fast_nondominated_sort,
    _initial_population,
    _nondominated,
    nsga2_run,
    prepare_search,
)
from kanoa.permutations import random_task_permutation, robot_precedence
from kanoa.plans import Plan, PlanEvent
from kanoa.reporting import PipelineConfig, run
from kanoa.scheduling import schedule_cluster

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
    for orders in _cluster_orders(space, 0, 0):
        sched = space._schedules[orders]
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


@pytest.mark.parametrize("name", ["minimal", "constraints"])
def test_front_lists_each_plan_once(fixtures_dir, name):
    """Many pool entries of these missions repeat every robot's order, so
    distinct chromosomes share a plan; the front, like the brute-force
    front, keeps one entry per plan.  The two may keep different
    chromosomes of one plan: the search need not evaluate the first."""
    cfg = GaConfig()
    space = prepare_search(
        load((fixtures_dir / f"{name}.kanoa").read_text()), AllocatorConfig(), cfg
    )
    entries = nsga2_run(space, cfg).entries
    plans = [e.plan for e in entries]
    assert all(a != b for i, a in enumerate(plans) for b in plans[i + 1:])
    oracle = brute_force_front(space)
    assert [(e.objectives, e.plan) for e in entries] == [
        (e.objectives, e.plan) for e in oracle
    ]


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


def random_feasible_members(rng):
    """0-60 feasible (chromosome, result) pairs over at most 6 objective
    vectors and 4 plans, so equal vectors and repeated plans are common."""
    vectors = [
        Objectives(rng.choice((0.0, 0.25, 0.5)), rng.randrange(3), rng.randrange(4))
        for _ in range(rng.randint(1, 6))
    ]
    plans = [
        Plan({"r1": (PlanEvent("idle", 0, k),)}) for k in range(rng.randint(1, 4))
    ]
    return [
        (Chromosome(rng.randrange(4), rng.randrange(4)),
         EvalResult(True, rng.choice(vectors), rng.choice(plans)))
        for _ in range(rng.randint(0, 60))
    ]


def test_front_matches_member_pair_front_on_random_populations():
    rng = random.Random("final-front")
    for _ in range(500):
        members = random_feasible_members(rng)
        assert [tuple(e) for e in _nondominated(members)] == pairwise_front(members)


def test_no_feasible_solution_error():
    text = SMALL.replace("time 25", "time 2")
    space, cfg = space_for(text, allocations=2, perms=2)
    with pytest.raises(NoFeasibleSolution) as info:
        nsga2_run(space, cfg)
    assert info.value.evaluated > 0
    assert info.value.infeasible == info.value.evaluated


# -- cluster schedules memoized per search space ---------------------------------


def _count_schedules(monkeypatch):
    calls = []
    original = kanoa.optimizer.schedule_cluster

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kanoa.optimizer, "schedule_cluster", counting)
    return calls


def _cluster_orders(space, a, p):
    permutation = space.permutation(a, p)
    return [
        tuple((r, permutation[r]) for r in sorted(cluster.robots))
        for cluster in space.clusters[a]
    ]


@pytest.mark.parametrize("pair, distinct", [
    # allocation 0 is one cluster; entries 0 and 2 order its robot alike
    (((0, 0), (0, 2)), 1),
    # allocation 1 is two one-task clusters, ordered alike by every entry
    (((1, 0), (1, 2)), 2),
])
def test_equal_cluster_orders_scheduled_once(monkeypatch, pair, distinct):
    space, _ = space_for(SMALL, allocations=4, perms=3)
    (a1, p1), (a2, p2) = pair
    assert _cluster_orders(space, a1, p1) == _cluster_orders(space, a2, p2)
    calls = _count_schedules(monkeypatch)
    cache = {}
    first = evaluate(space, Chromosome(a1, p1), cache)
    second = evaluate(space, Chromosome(a2, p2), cache)
    assert len(cache) == 2 and first.feasible and second.feasible
    assert len(calls) == len(space._schedules) == distinct
    # the second chromosome's plan is made of the first one's cluster results
    assert all(
        first.plan.timelines[r] is second.plan.timelines[r]
        for r in first.plan.timelines
    )


def test_state_explosion_not_memoized(monkeypatch):
    space, _ = space_for(SMALL, allocations=4, perms=3)
    space.state_cap = 1
    calls = _count_schedules(monkeypatch)
    cache = {}
    for p in (0, 2):  # equal orders, as in test_equal_cluster_orders_scheduled_once
        res = evaluate(space, Chromosome(0, p), cache)
        assert not res.feasible and res.capped
    assert len(calls) == 2 and space._schedules == {}


def test_fresh_space_starts_with_empty_memo(monkeypatch):
    space, _ = space_for(SMALL, allocations=4, perms=3)
    assert space._schedules == {}
    calls = _count_schedules(monkeypatch)
    evaluate(space, Chromosome(1, 0), {})
    assert len(space._schedules) == len(calls) == 2
    again, _ = space_for(SMALL, allocations=4, perms=3)
    assert again._schedules == {}
    evaluate(again, Chromosome(1, 0), {})
    assert len(calls) == 4


@pytest.mark.parametrize("name", ["fleet", "hospital"])
def test_memoized_runs_match_direct_schedules(name, fixtures_dir, monkeypatch):
    """Every cluster result of every chromosome a whole search evaluated
    equals a direct ``schedule_cluster`` call on that cluster, up to the
    first infeasible cluster, and that cluster decides the chromosome's
    verdict."""
    if name == "hospital":
        text = (fixtures_dir / "hospital.kanoa").read_text(encoding="utf-8")
        run_cfg = PipelineConfig(seed=0)
    else:
        text, run_cfg = perfbench_mission(name)
    cfg = run_cfg.ga()
    space = prepare_search(
        load(text), AllocatorConfig(max_allocations=run_cfg.allocations), cfg,
        state_cap=run_cfg.state_cap,
    )
    caches = []
    original = kanoa.optimizer.evaluate

    def capturing(space, ch, cache):
        if not caches or caches[-1] is not cache:
            caches.append(cache)
        return original(space, ch, cache)

    monkeypatch.setattr(kanoa.optimizer, "evaluate", capturing)
    nsga2_run(space, cfg)
    (cache,) = caches
    assert len(space._schedules) > 0
    results = 0
    for (a, p), res in cache.items():
        allocation = space.allocations[a]
        feasible = True
        for cluster, orders in zip(space.clusters[a], _cluster_orders(space, a, p)):
            direct = schedule_cluster(
                space.v, allocation, cluster, dict(orders),
                space.pairs, space.instances, state_cap=space.state_cap,
            )
            assert space._schedules[orders] == direct, (a, p, sorted(cluster.robots))
            results += 1
            if not direct.feasible:
                feasible = False
                break
        assert res.feasible == feasible, (a, p)
    assert results > len(cache)


# -- permutation pools drawn on first use ---------------------------------------


def _pool_missions(fixtures_dir):
    solo = random_problem_text(random.Random(0))
    assert "robots 2" not in solo  # single-robot tasks only
    return {
        "hospital": (fixtures_dir / "hospital.kanoa").read_text(encoding="utf-8"),
        "constraints": (fixtures_dir / "constraints.kanoa").read_text(encoding="utf-8"),
        "solo_random": solo,
    }


@pytest.mark.parametrize("name", ["hospital", "constraints", "solo_random"])
@pytest.mark.parametrize("order", ["index", "shuffled"])
def test_lazy_pool_entries_equal_eager_draws(fixtures_dir, name, order):
    v = load(_pool_missions(fixtures_dir)[name])
    seed = 3
    cfg = GaConfig(permutations_per_allocation=6, seed=seed)
    space = prepare_search(v, AllocatorConfig(max_allocations=8), cfg)
    keys = [(ch.alloc_idx, ch.perm_idx) for ch in space.chromosomes()]
    assert len(keys) == len(space.allocations) * 6 > 6
    if order == "shuffled":
        random.Random(name).shuffle(keys)
    for a, p in keys:
        allocation = space.allocations[a]
        whole = RobotCluster(used_robots(allocation), frozenset(allocation))
        precedence = robot_precedence(allocation, whole, space.pairs)
        eager = random_task_permutation(precedence, seed=f"{seed}:{a}:{p}")
        assert space.permutation(a, p) == eager, (a, p)


@pytest.mark.parametrize("workload", ["hospital", "relay", "fleet"])
def test_pool_entries_equal_per_robot_draws(workload):
    """Every pool entry of the benchmark's sub-instance 0, drawn from its
    allocation's shared precedence structure, equals the draw that finds
    each robot's instances and precedence afresh, key order included."""
    text, cfg = perfbench_mission(workload)
    space = prepare_search(
        load(text), AllocatorConfig(max_allocations=cfg.allocations), cfg.ga()
    )
    for a, allocation in enumerate(space.allocations):
        whole = RobotCluster(used_robots(allocation), frozenset(allocation))
        for p in range(space.pool_size):
            expected = reference_task_permutation(
                allocation, whole, space.pairs, seed=f"{cfg.seed}:{a}:{p}"
            )
            assert list(space.permutation(a, p).items()) == list(expected.items())


def test_lazy_pool_entry_drawn_once(monkeypatch):
    space, _ = space_for(SMALL, allocations=2, perms=3)
    draws = []
    original = kanoa.optimizer.random_task_permutation

    def counting(*args, **kwargs):
        draws.append(kwargs["seed"])
        return original(*args, **kwargs)

    monkeypatch.setattr(kanoa.optimizer, "random_task_permutation", counting)
    first = space.permutation(1, 2)
    assert space.permutation(1, 2) is first
    assert draws == ["0:1:2"]


@pytest.mark.parametrize("a, p", [(4, 0), (0, 3), (-1, 0), (0, -1)])
def test_lazy_pool_index_out_of_range_raises(a, p):
    space, _ = space_for(SMALL, allocations=4, perms=3)
    assert len(space.allocations) == 4
    with pytest.raises(IndexError):
        space.permutation(a, p)


def test_hospital_run_draws_each_evaluated_entry_once(hospital_path, tmp_path, monkeypatch):
    draws = []
    evaluated = set()
    draw, evaluate_ = kanoa.optimizer.random_task_permutation, kanoa.optimizer.evaluate

    def counting_draw(*args, **kwargs):
        draws.append(kwargs["seed"])
        return draw(*args, **kwargs)

    def recording_evaluate(space, ch, cache):
        evaluated.add((ch.alloc_idx, ch.perm_idx))
        return evaluate_(space, ch, cache)

    monkeypatch.setattr(kanoa.optimizer, "random_task_permutation", counting_draw)
    monkeypatch.setattr(kanoa.optimizer, "evaluate", recording_evaluate)
    run(hospital_path, PipelineConfig(seed=0), tmp_path)
    # the default pools hold 30 x 20 = 600 entries; the search uses 119
    assert len(draws) == len(set(draws)) == len(evaluated) == 119
    assert set(draws) == {f"0:{a}:{p}" for a, p in evaluated}


# -- first population ----------------------------------------------------------


def reference_initial_population(space, cfg, rng):
    """The first population as drawn by listing the whole space first."""
    everything = list(space.chromosomes())
    if len(everything) <= cfg.population_size:
        pop = list(everything)
        while len(pop) < cfg.population_size:
            pop.append(everything[rng.randrange(len(everything))])
        return pop
    return [
        Chromosome(rng.randrange(len(space.allocations)), rng.randrange(space.pool_size))
        for _ in range(cfg.population_size)
    ]


@pytest.mark.parametrize("allocations, perms", [(2, 1), (2, 3), (4, 3), (4, 4), (1, 12)])
def test_initial_population_matches_listing_reference(allocations, perms):
    # spaces of 2, 6, 12, 16 and 12 chromosomes around a population of 12
    space, cfg = space_for(SMALL, allocations=allocations, perms=perms)
    for seed in range(5):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = _initial_population(space, cfg, rng)
        assert got == reference_initial_population(space, cfg, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


def test_initial_population_does_not_list_a_large_space(hospital):
    # 30 allocations x 5,000 pool entries: 150,000 chromosomes, population 4
    cfg = GaConfig(population_size=4, permutations_per_allocation=5000)
    space = prepare_search(hospital, AllocatorConfig(max_allocations=30), cfg)
    tracemalloc.start()
    try:
        pop = _initial_population(space, cfg, random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pop) == 4
    assert peak < 64 * 1024, peak


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=5)


# -- nondominated sort and crowding ---------------------------------------------


def scored(p_fail, idle, travel):
    return EvalResult(feasible=True, objectives=Objectives(p_fail, idle, travel))


def infeasible():
    return EvalResult(feasible=False)


def random_population(rng):
    """0-40 members drawn from a pool of at most 6 objective vectors over
    small ranges, so equal vectors and ties in one objective are common;
    about 15% of members are infeasible."""
    pool = [
        (rng.choice((0.0, 0.25, 0.5)), rng.randrange(3), rng.randrange(4))
        for _ in range(rng.randint(1, 6))
    ]
    return [
        infeasible() if rng.random() < 0.15 else scored(*rng.choice(pool))
        for _ in range(rng.randint(0, 40))
    ]


def test_sort_matches_pairwise_oracle_on_random_populations():
    rng = random.Random("nondominated-sort")
    for _ in range(2000):
        rs = random_population(rng)
        assert fast_nondominated_sort(rs) == pairwise_nondominated_sort(rs)


@pytest.mark.parametrize("rs", [
    [],
    [infeasible() for _ in range(5)],
    [scored(0.25, 1, 2) for _ in range(5)],
], ids=["empty", "all_infeasible", "all_identical"])
def test_sort_degenerate_populations(rs):
    fronts = fast_nondominated_sort(rs)
    assert fronts == pairwise_nondominated_sort(rs)
    assert fronts == ([list(range(len(rs)))] if rs else [])


def test_sort_front_order_follows_releasing_member():
    # front 1 lists 4, whose only dominator is 0, before 3, whose only
    # dominator is 1: not ascending index order
    rs = [scored(0.0, 0, 2), scored(0.0, 2, 0), scored(1.0, 3, 3),
          scored(0.5, 2, 0), scored(0.5, 0, 2), infeasible()]
    expected = [[0, 1], [4, 3], [2], [5]]
    assert pairwise_nondominated_sort(rs) == expected
    assert fast_nondominated_sort(rs) == expected


def test_crowding_fewer_than_three_feasible_all_inf():
    rs = [scored(0.0, 0, 4), infeasible(), scored(0.5, 2, 0)]
    assert crowding_distance([0, 1, 2], rs) == {0: float("inf"), 1: 0.0,
                                                2: float("inf")}
    assert crowding_distance([0], rs) == {0: float("inf")}


def test_crowding_constant_objective_adds_nothing():
    # p_fail is the same everywhere: its boundaries are inf, and the
    # interior members get only the idle and travel terms
    rs = [scored(0.5, 2 * k, 8 - 2 * k) for k in range(5)]
    assert crowding_distance(list(range(5)), rs) == {
        0: float("inf"), 1: 1.0, 2: 1.0, 3: 1.0, 4: float("inf"),
    }


def test_crowding_ties_depend_on_input_order():
    # 1 and 2 are equal; the one listed first sits nearer 0 in p_fail and
    # idle and nearer 3 in travel (stable sort)
    rs = [scored(0.0, 0, 8), scored(0.25, 2, 6), scored(0.25, 2, 6),
          scored(1.0, 8, 0)]
    inf = float("inf")
    assert crowding_distance([0, 1, 2, 3], rs) == {0: inf, 1: 1.25, 2: 1.75, 3: inf}
    assert crowding_distance([0, 2, 1, 3], rs) == {0: inf, 2: 1.25, 1: 1.75, 3: inf}


def test_crowding_infeasible_members_keep_zero():
    rs = [scored(0.0, 0, 4), infeasible(), scored(0.5, 2, 2), infeasible(),
          scored(1.0, 4, 0)]
    assert crowding_distance(list(range(5)), rs) == {
        0: float("inf"), 1: 0.0, 2: 3.0, 3: 0.0, 4: float("inf"),
    }
