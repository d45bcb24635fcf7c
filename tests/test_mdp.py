import ast
import random
from pathlib import Path

import pytest
from helpers import (
    build_single_cluster_mdp,
    cold_context,
    enumerate_policy_values,
    expanded,
    first_allocation,
    load,
    random_scheduling_model,
    single_robot_problem,
    times,
    wide_joint_task_text,
)
from oracles import chain_travel

import kanoa.mdp
import kanoa.scheduling
from kanoa.clustering import cluster_robots
from kanoa.errors import InvariantViolation, StateExplosion, UndefinedReward
from kanoa.mdp import Choice, _enumerate_choices, build_mdp
from kanoa.plans import check_plan, extract_plan
from kanoa.scheduling import schedule_cluster, success_probability
from kanoa.solver import (
    max_reach_probability,
    min_expected_reward,
    min_expected_reward_policy,
)

JOINT_3_5 = """
world { loc a (0,0) loc b (0,5) loc site (3,0) dist b site = 5 }
tasks { atomic lift robots 2 }
robots {
  robot fast at a velocity 1 { can lift time 4 prob 1 }
  robot slow at b velocity 1 { can lift time 4 prob 1 }
}
mission { task lift at site; time 20 }
"""


def joint_case(tt=20):
    v = load(JOINT_3_5.replace("time 20", f"time {tt}"))
    allocation, clusters, instances, pairs = first_allocation(v)
    p = {"fast": ("lift_0",), "slow": ("lift_0",)}
    return v, allocation, clusters[0], p, pairs, instances


def test_single_path_hand_enumeration():
    # one robot, one task, certain success, travel 2, duration 3, budget 10:
    # exactly the initial state and the done state, completion at time 5
    v = single_robot_problem(tt=10, dist=2, duration=3, prob=1.0)
    mdp, *_ = build_single_cluster_mdp(v)
    assert mdp.n_states == 2
    assert len(mdp.choices[0]) == 1
    assert mdp.choices[0][0].branches == ((1.0, 1),)
    (done,) = mdp.label_states("done")
    assert times(mdp.context, mdp.states[done]) == (5,)
    assert max_reach_probability(mdp, "done") == 1.0


def test_budget_five_travel_six_unreachable():
    v = single_robot_problem(tt=5, dist=6, duration=1)
    mdp, *_ = build_single_cluster_mdp(v)
    assert mdp.label_states("done") == frozenset()
    assert max_reach_probability(mdp, "done") == 0.0


def test_budget_exactly_sufficient():
    v = single_robot_problem(tt=7, dist=6, duration=1)
    mdp, *_ = build_single_cluster_mdp(v)
    assert max_reach_probability(mdp, "done") == 1.0


def test_failure_branch_and_recovery():
    v = single_robot_problem(tt=10, dist=2, duration=3, prob=0.8)
    mdp, *_ = build_single_cluster_mdp(v)
    # initial --task--> {done(0.8), failed(0.2)}; failed --recover--> done'
    assert mdp.n_states == 4
    assert max_reach_probability(mdp, "done") == 1.0
    assert max_reach_probability(mdp, "success") == pytest.approx(0.8, abs=1e-12)
    done = mdp.label_states("done")
    assert len(done) == 2 and len(mdp.label_states("success")) == 1


def test_joint_requires_idle():
    v, allocation, cluster, p, pairs, instances = joint_case()
    mdp = build_mdp(cold_context(v, allocation, cluster, p, pairs, instances))
    assert max_reach_probability(mdp, "done") == 1.0
    assert min_expected_reward(mdp, "idle", "done") == 2
    value, policy = min_expected_reward_policy(mdp, "idle", "done")
    plan = extract_plan(mdp, policy)
    [sync_fast] = [e for e in plan.timelines["fast"] if e.kind == "jointSync"]
    [sync_slow] = [e for e in plan.timelines["slow"] if e.kind == "jointSync"]
    assert sync_fast.start == sync_slow.start == 5
    idle_total = sum(
        e.end - e.start
        for tl in plan.timelines.values()
        for e in tl
        if e.kind == "idle"
    )
    assert idle_total == 2


def test_joint_infeasible_without_enough_time():
    v, allocation, cluster, p, pairs, instances = joint_case(tt=8)
    mdp = build_mdp(cold_context(v, allocation, cluster, p, pairs, instances))
    # sync needs both at clock 5 plus 4 units of work: 9 > 8
    assert max_reach_probability(mdp, "done") == 0.0


def test_distributions_sum_to_one_and_done_absorbing(hospital):
    leaves, instances, pairs, subtrees = expanded(hospital)
    allocation, clusters, instances, pairs = first_allocation(hospital, n=1)
    from kanoa.permutations import draw_state, random_task_permutation, robot_precedence

    for cluster in clusters:
        precedence = draw_state(robot_precedence(allocation, cluster, pairs))
        p = random_task_permutation(precedence, seed=5)
        ctx = cold_context(hospital, allocation, cluster, p, pairs, instances)
        mdp = build_mdp(ctx)
        for s, choices in enumerate(mdp.choices):
            for c in choices:
                assert abs(sum(pr for pr, _ in c.branches) - 1.0) <= 1e-12
        for d in mdp.label_states("done"):
            assert mdp.choices[d] == []


@pytest.mark.parametrize(
    "branches",
    [((0.5, 1),), ((0.6, 1), (0.3, 2))],
    ids=["one_branch_half", "two_branches_0.9"],
)
def test_choice_rejects_distribution_not_summing_to_one(branches):
    with pytest.raises(InvariantViolation, match="distribution sums to"):
        Choice(branches)


def test_choice_accepts_complementary_and_certain_branches():
    for q in (0.9, 0.8, 0.7, 1 / 3, 0.123456789, 1e-9, 1.0 - 1e-9):
        assert Choice(((q, 1), (1.0 - q, 2))).branches == ((q, 1), (1.0 - q, 2))
    assert Choice(((1.0, 1),)).branches == ((1.0, 1),)


def test_time_monotone_acyclic(hospital):
    allocation, clusters, instances, pairs = first_allocation(hospital)
    from kanoa.permutations import draw_state, random_task_permutation, robot_precedence
    from kanoa.solver import topological_order

    for cluster in clusters:
        precedence = draw_state(robot_precedence(allocation, cluster, pairs))
        p = random_task_permutation(precedence, seed=1)
        ctx = cold_context(hospital, allocation, cluster, p, pairs, instances)
        mdp = build_mdp(ctx)
        assert topological_order(mdp) is not None


def test_state_cap_raises():
    v = load("""
world { loc a (0,0) loc b (9,0) }
tasks { atomic t robots 1 atomic u robots 1 atomic w robots 1 }
robots {
  robot r1 at a velocity 1 { can t time 1 prob 0.9 can u time 1 prob 0.9 can w time 1 prob 0.9 }
  robot r2 at a velocity 1 { can t time 1 prob 0.9 can u time 1 prob 0.9 can w time 1 prob 0.9 }
}
mission { task t at b; task u at a; task w at b; time 60 }
""")
    allocation, clusters, instances, pairs = first_allocation(v)
    from kanoa.permutations import draw_state, random_task_permutation, robot_precedence

    cluster = clusters[0]
    precedence = draw_state(robot_precedence(allocation, cluster, pairs))
    p = random_task_permutation(precedence, seed=0)
    with pytest.raises(StateExplosion) as info:
        ctx = cold_context(v, allocation, cluster, p, pairs, instances)
        build_mdp(ctx, state_cap=3)
    assert info.value.cluster_size >= 1


def wide_joint_context(robots):
    v = load(wide_joint_task_text(robots))
    allocation, clusters, instances, pairs = first_allocation(v)
    p = {r: ("t_0",) for r in clusters[0].robots}
    return cold_context(v, allocation, clusters[0], p, pairs, instances)


@pytest.mark.parametrize("failures", [False, True])
def test_state_cap_counts_states_up_to_the_fixtures_width(failures):
    # five robots and 16 slots: no wider than the fixtures' widest model,
    # so the cap trips at the state count it names (the full model has 65
    # states; the chain has 7, five travels and the sync apart)
    ctx = wide_joint_context(5)
    assert len(ctx.initial_state()) == 16
    states, cap = (65, 10) if failures else (7, 5)
    with pytest.raises(StateExplosion) as info:
        build_mdp(ctx, state_cap=cap, failures=failures)
    assert (info.value.cluster_size, info.value.state_count) == (5, cap + 1)
    assert build_mdp(ctx, state_cap=states, failures=failures).n_states == states


def test_chain_builds_one_action_per_state(monkeypatch):
    # the chain asks each state for its first action only: its initial
    # state offers five travels, one per robot, yet one Choice is built
    # for each chain state that holds an action
    ctx = wide_joint_context(5)
    built = []

    def counting(*args, **kwargs):
        built.append(Choice(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(kanoa.mdp, "Choice", counting)
    chain = build_mdp(ctx, failures=False)
    kept = [c for choices in chain.choices for c in choices]
    assert built == kept
    assert len(built) == sum(1 for choices in chain.choices if choices) == 6
    assert len(list(_enumerate_choices(ctx, chain.states[0], False))) == 5


def test_state_cap_scales_with_model_width():
    # 80 robots: 241 slots and up to 80 choices a state, a width of
    # 76 + 8 * 241 + 271 * 80 = 23,684 B against the fixtures' widest
    # 1,591 B, so a cap of 2,000 admits 2,000 * 1,591 // 23,684 = 134 states.
    # The full model holds every subset of arrived robots; the chain, 82
    # states, stays under that limit.
    ctx = wide_joint_context(80)
    assert build_mdp(ctx, state_cap=2000, failures=False).n_states == 82
    with pytest.raises(StateExplosion) as info:
        build_mdp(ctx, state_cap=2000)
    assert (info.value.cluster_size, info.value.state_count) == (80, 135)
    robots = ",".join(sorted(f"r{i}" for i in range(80)))
    assert str(info.value) == f"state cap 2000 exceeded for cluster {{{robots}}}"


def test_undefined_reward_when_unreachable():
    v = single_robot_problem(tt=5, dist=6, duration=1)
    mdp, *_ = build_single_cluster_mdp(v)
    with pytest.raises(UndefinedReward):
        min_expected_reward(mdp, "idle", "done")


def test_success_probability_products():
    v = load("""
world { loc a (0,0) }
tasks { atomic t robots 1 atomic u robots 1 }
robots { robot r at a velocity 1 { can t time 1 prob 0.9 can u time 1 prob 0.9 } }
mission { task t at a; task u at a; time 10 }
""")
    allocation, clusters, instances, pairs = first_allocation(v)
    assert success_probability(v, allocation, clusters[0], instances) == pytest.approx(
        0.81, abs=1e-12
    )


def test_success_probability_all_certain():
    v = single_robot_problem(prob=1.0)
    allocation, clusters, instances, pairs = first_allocation(v)
    assert success_probability(v, allocation, clusters[0], instances) == 1.0


def test_objectives_match_policy_enumeration_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        made = random_scheduling_model(rng)
        if made is None:
            continue
        v, allocation, cluster, permutation, mdp = made
        oracle_prob, oracle_idle = enumerate_policy_values(mdp, "idle", "done")
        assert max_reach_probability(mdp, "done") == pytest.approx(
            oracle_prob, abs=1e-9
        )
        if oracle_prob >= 1.0 - 1e-9:
            solver_idle = min_expected_reward(mdp, "idle", "done")
            assert solver_idle == pytest.approx(oracle_idle, abs=1e-9)
            assert float(solver_idle).is_integer()
        checked += 1


def test_success_equals_analytic_and_travel_equals_chain():
    rng = random.Random(77)
    checked = 0
    while checked < 30:
        made = random_scheduling_model(rng)
        if made is None:
            continue
        v, allocation, cluster, permutation, mdp = made
        if max_reach_probability(mdp, "done") < 1.0:
            continue
        _, instances, _, _ = expanded(v)
        analytic = success_probability(v, allocation, cluster, instances)
        assert max_reach_probability(mdp, "success") == pytest.approx(
            analytic, abs=1e-9
        )
        travel = min_expected_reward(mdp, "travel", "done")
        assert travel == chain_travel(permutation, v, instances)
        checked += 1


def test_plan_invariants_on_random_fixtures():
    rng = random.Random(31415)
    checked = 0
    while checked < 100:
        made = random_scheduling_model(rng)
        if made is None:
            continue
        v, allocation, cluster, permutation, mdp = made
        if max_reach_probability(mdp, "done") < 1.0:
            continue
        _, instances, pairs, _ = expanded(v)
        _, policy = min_expected_reward_policy(mdp, "idle", "done")
        plan = extract_plan(mdp, policy)
        caps = {r: v.max_idle(r) for r in cluster.robots if v.max_idle(r) is not None}
        assert check_plan(plan, pairs, v.time_available, caps) == []
        checked += 1


def test_ordered_cross_robot_wait():
    # notify on one robot gates cleaning on another: the cleaner must wait
    # for the recorded completion time
    v = load("""
world { loc room (0,0) loc dock (4,0) }
tasks { atomic notify robots 1 atomic clean robots 1
        compound c = ordered { notify, clean } }
robots {
  robot talker at dock velocity 1 { can notify time 6 prob 1 }
  robot wiper at room velocity 1 { can clean time 2 prob 1 }
}
mission { task c at room; time 30 }
""")
    leaves, instances, pairs, subtrees = expanded(v)
    allocation = {
        "notify_0": frozenset({"talker"}),
        "clean_0": frozenset({"wiper"}),
    }
    cluster = cluster_robots(allocation, subtrees)[0]
    p = {"talker": ("notify_0",), "wiper": ("clean_0",)}
    mdp = build_mdp(cold_context(v, allocation, cluster, p, pairs, instances))
    assert max_reach_probability(mdp, "done") == 1.0
    # talker finishes notify at 4+6=10; wiper idles 0->10 then cleans
    assert min_expected_reward(mdp, "idle", "done") == 10
    _, policy = min_expected_reward_policy(mdp, "idle", "done")
    plan = extract_plan(mdp, policy)
    [clean] = [e for e in plan.timelines["wiper"] if e.kind == "execute"]
    [notify] = [e for e in plan.timelines["talker"] if e.kind == "execute"]
    assert notify.end <= clean.start
    assert check_plan(plan, pairs, 30, {}) == []


def test_monolithic_equals_cluster_split():
    # two unrelated robots: one model over both equals the cluster-wise sums
    v = load("""
world { loc a (0,0) loc b (8,0) }
tasks { atomic t robots 1 atomic u robots 1 }
robots {
  robot r1 at a velocity 1 { can t time 2 prob 0.9 }
  robot r2 at b velocity 1 { can u time 3 prob 0.8 }
}
mission { task t at a; task u at b; time 20 }
""")
    leaves, instances, pairs, subtrees = expanded(v)
    allocation = {
        "t_0": frozenset({"r1"}), "u_0": frozenset({"r2"}),
    }
    split = cluster_robots(allocation, subtrees)
    assert len(split) == 2
    per_parts = []
    for cluster in split:
        perm = {
            r: tuple(i for i in sorted(cluster.instances)
                     if r in allocation[i])
            for r in sorted(cluster.robots)
        }
        per_parts.append(
            schedule_cluster(v, allocation, cluster, perm, pairs, instances)
        )
    from kanoa.clustering import RobotCluster

    whole = RobotCluster(frozenset({"r1", "r2"}), frozenset({"t_0", "u_0"}))
    perm = {"r1": ("t_0",), "r2": ("u_0",)}
    combined = schedule_cluster(v, allocation, whole, perm, pairs, instances)
    assert combined.feasible and all(p.feasible for p in per_parts)
    assert combined.idle == sum(p.idle for p in per_parts)
    assert combined.travel == sum(p.travel for p in per_parts)
    assert combined.p_success == pytest.approx(
        per_parts[0].p_success * per_parts[1].p_success, abs=1e-12
    )


def test_feasibility_dichotomy_random_models():
    # recovery has probability 1, so reachability of done is exactly 0 or 1
    rng = random.Random(6)
    checked = 0
    while checked < 40:
        made = random_scheduling_model(rng)
        if made is None:
            continue
        *_, mdp = made
        p = max_reach_probability(mdp, "done")
        assert p == 0.0 or p == 1.0
        checked += 1


def test_hospital_movers_joint_timeline(hospital):
    # the two-mover team handles both equipment moves: room1 first, then
    # room6, with both executions starting together
    leaves, instances, pairs, subtrees = expanded(hospital)
    allocation = {}
    cleaners = ["r3", "r4", "r5"]
    for i, leaf in enumerate(l for l in leaves if l.type_id != "at1_move"):
        allocation[leaf.instance_id] = frozenset({cleaners[i % 3]})
    allocation["at1_move_0"] = frozenset({"r1", "r2"})
    allocation["at1_move_1"] = frozenset({"r1", "r2"})
    movers = [
        c for c in cluster_robots(allocation, subtrees)
        if c.robots == frozenset({"r1", "r2"})
    ]
    assert movers
    p = {
        "r1": ("at1_move_0", "at1_move_1"),
        "r2": ("at1_move_0", "at1_move_1"),
    }
    result = schedule_cluster(hospital, allocation, movers[0], p, pairs, instances)
    assert result.feasible
    for robot in ("r1", "r2"):
        syncs = [e for e in result.plan.timelines[robot] if e.kind == "jointSync"]
        assert [s.instance for s in syncs] == ["at1_move_0", "at1_move_1"]
    a = [e for e in result.plan.timelines["r1"] if e.kind == "jointSync"]
    b = [e for e in result.plan.timelines["r2"] if e.kind == "jointSync"]
    assert [(e.start, e.end) for e in a] == [(e.start, e.end) for e in b]
    assert a[0].end <= a[1].start  # room1 before room6


def test_mdp_module_imports_only_errors_from_the_package():
    """``kanoa.mdp`` is the paper's model and its dump text alone: of the
    package it imports only ``kanoa.errors``, and the search's cluster
    records are defined beside the score that reads them."""
    tree = ast.parse(Path(kanoa.mdp.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith((".", "kanoa"))} == {".errors"}
    for name in ("ClusterFacts", "Hops", "success_probability"):
        assert getattr(kanoa.scheduling, name).__module__ == "kanoa.scheduling"
        assert not hasattr(kanoa.mdp, name)
