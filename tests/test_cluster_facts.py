"""A search's shared cluster records against cold ones.

``evaluate`` passes ``score_cluster``, and the front's plans pass
``schedule_cluster``, the :class:`ClusterFacts` of the allocation's
cluster and the search's :class:`Hops` memo.  A context built from them
must equal one built cold from the mission, field by field, and so must
the score and the scheduling result: on every scoring call of a default
hospital run, and on random clusters that share one memo per mission.
A search scores without a context: only the front's ``schedule_cluster``
calls build one.
"""

import random
import re

from helpers import (
    cluster_draw_state, cold_context, cold_records, expanded, load, perfbench_mission,
    random_clusters, random_joint_missions, random_problem_text,
)
from oracles import cold_hop, general_cluster_facts

import kanoa.optimizer
from kanoa.allocation import AllocatorConfig, enumerate_allocations
from kanoa.clustering import cluster_robots
from kanoa.mdp import ClusterContext
from kanoa.optimizer import nsga2_run, prepare_search
from kanoa.permutations import random_task_permutation
from kanoa.reporting import PipelineConfig, run
from kanoa.scheduling import (
    ClusterFacts, Hops, schedule_cluster, score_cluster, success_probability,
)


def context_fields(ctx):
    """Everything a model reads from a context."""
    return (
        ctx.tt, ctx.robots, ctx.robot_index, ctx.tracked, ctx.idle_caps,
        ctx.cum, ctx.joint_positions, ctx.steps,
    )


def assert_shared_equals_cold(args, facts, hops):
    """The context, score and result from ``facts`` and ``hops`` equal
    the cold ones; returns the number of steps the context holds."""
    shared = ClusterContext(facts, args[3], hops)
    assert context_fields(shared) == context_fields(cold_context(*args))
    assert score_cluster(*args, facts=facts, hops=hops) == score_cluster(
        *args, **cold_records(*args)
    )
    assert schedule_cluster(*args, facts=facts, hops=hops) == schedule_cluster(*args)
    return sum(len(row) for row in shared.steps)


def test_hospital_calls_share_records_equal_to_cold(hospital_calls):
    built = 0
    for args, kwargs, _ in hospital_calls:
        built += assert_shared_equals_cold(args, kwargs["facts"], kwargs["hops"])
    # one memo for the whole search, which computed most of its hops once
    memos = {id(kwargs["hops"]): kwargs["hops"] for _, kwargs, _ in hospital_calls}
    (memo,) = memos.values()
    assert 0 < len(memo) < built / 2


def test_facts_success_probability_equals_closed_form(hospital_calls):
    # every scoring call of the run, feasible or not, on its shared facts
    assert len(hospital_calls) == 123
    for (v, allocation, cluster, _, _, instances), kwargs, _ in hospital_calls:
        expected = success_probability(v, allocation, cluster, instances)
        assert kwargs["facts"].p_success == expected


def test_random_clusters_share_records_equal_to_cold():
    rng = random.Random(31)
    built = distinct = checked = 0
    while checked < 600:
        made = random_clusters(rng, idle_caps=checked % 2 == 1, draws=4)
        if not made:
            continue
        hops = Hops(made[0][0], made[0][5])  # one mission: one memo
        facts = {}
        for v, allocation, cluster, permutation, pairs, instances in made:
            key = (frozenset(allocation.items()), cluster)
            if key not in facts:
                facts[key] = ClusterFacts(v, allocation, cluster, pairs, instances)
            precedence = cluster_draw_state(allocation, cluster, pairs)
            for p in [permutation] + [
                random_task_permutation(precedence, seed=rng.random()) for _ in range(2)
            ]:
                args = (v, allocation, cluster, p, pairs, instances)
                built += assert_shared_equals_cold(args, facts[key], hops)
                checked += 1
        distinct += len(hops)
    # hops were shared across permutations and allocations
    assert distinct < built / 2


def hospital_space(text):
    """The search space and GA config of a default hospital run, GA seed 0."""
    cfg = PipelineConfig(seed=0)
    space = prepare_search(
        load(text), AllocatorConfig(max_allocations=cfg.allocations), cfg.ga()
    )
    return space, cfg.ga()


def test_search_scores_from_one_hop_memo(hospital_text, monkeypatch):
    """Every score of a default hospital search reads the search's one
    memo, which holds fewer hops than the scores looked up."""
    looked_up = []

    class CountingHops(Hops):
        def __getitem__(self, key):
            looked_up.append(key)
            return super().__getitem__(key)

    space, cfg = hospital_space(hospital_text)
    space.hops = CountingHops(space.v, space.instances)
    memos = set()
    original = kanoa.optimizer.score_cluster

    def recording(*args, **kwargs):
        memos.add(id(kwargs["hops"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(kanoa.optimizer, "score_cluster", recording)
    nsga2_run(space, cfg)
    assert memos == {id(space.hops)}
    assert 0 < len(space.hops) < len(looked_up) / 2
    assert set(space.hops) == set(looked_up)


def test_only_front_schedules_build_contexts(hospital_text, monkeypatch):
    """During a default hospital search, a context is built only inside
    ``schedule_cluster``, once per feasible cluster of the front's plans."""
    inside = []  # depth of schedule_cluster calls
    built = {"inside": 0, "outside": 0}
    feasible = []
    init, schedule = ClusterContext.__init__, kanoa.optimizer.schedule_cluster

    def counting_init(self, *args, **kwargs):
        built["inside" if inside else "outside"] += 1
        init(self, *args, **kwargs)

    def scheduling(*args, **kwargs):
        inside.append(1)
        try:
            result = schedule(*args, **kwargs)
        finally:
            inside.pop()
        feasible.append(result.feasible)
        return result

    monkeypatch.setattr(ClusterContext, "__init__", counting_init)
    monkeypatch.setattr(kanoa.optimizer, "schedule_cluster", scheduling)
    space, cfg = hospital_space(hospital_text)
    front = nsga2_run(space, cfg)
    assert front.entries
    assert built == {"inside": sum(feasible), "outside": 0}
    assert 0 < sum(feasible) == len(feasible)


def test_dump_contexts_read_the_search_records(hospital_path, tmp_path, monkeypatch):
    """A default hospital ``--dump-mdp`` run builds one hop memo and the
    facts of each (allocation, cluster) once: scores, plans and dumped
    models all read the search's records."""
    memos, built = [], []
    hops_init, facts_init = Hops.__init__, ClusterFacts.__init__

    def counting_hops(self, *args):
        memos.append(args)
        hops_init(self, *args)

    def counting_facts(self, v, allocation, cluster, *rest):
        built.append((frozenset(allocation.items()), cluster))
        facts_init(self, v, allocation, cluster, *rest)

    monkeypatch.setattr(Hops, "__init__", counting_hops)
    monkeypatch.setattr(ClusterFacts, "__init__", counting_facts)
    run(hospital_path, PipelineConfig(seed=0, dump_mdp=True), tmp_path)
    assert len(list(tmp_path.glob("mdp_*.txt"))) == 5
    assert len(memos) == 1
    assert len(built) == len(set(built)) > 0


def test_hop_memo_equals_cold_hops_at_fractional_speeds():
    """Every hop a memo serves equals the cold one from the problem's own
    distance and travel time, on random missions whose robots move at
    1, 2, 5/4, 3/2 and 7/4, from every location to every instance the
    robot can do; a hop from the instance's own location has length 0."""
    rng = random.Random(29)
    checked = zero = 0
    for _ in range(80):
        text = re.sub(r"velocity \d+", lambda _: "velocity " + rng.choice(
            ["1", "2", "5/4", "3/2", "7/4"]), random_problem_text(rng))
        v = load(text)
        _, instances, _, _ = expanded(v)
        hops = Hops(v, instances)
        for robot in v.problem.robots:
            for inst_id, inst in sorted(instances.items()):
                if robot.capability_for(inst.type_id) is None:
                    continue
                for loc in v.problem.locations:
                    key = (robot.id, loc.id, inst_id)
                    assert hops[key] == cold_hop(v, instances, *key)
                    checked += 1
                    zero += loc.id == inst.location
    assert checked > 500 and zero > 100


def assert_facts_equal_general(v, allocation, cluster, pairs, instances):
    facts = ClusterFacts(v, allocation, cluster, pairs, instances)
    general = general_cluster_facts(v, allocation, cluster, pairs, instances)
    for slot in ClusterFacts.__slots__:
        assert getattr(facts, slot) == getattr(general, slot), slot
    return facts, general


def test_facts_equal_general_constructor_on_random_clusters():
    """One-robot clusters skip the scan of the pairs; every slot still
    equals the general constructor's, for clusters of any size."""
    rng = random.Random(31)
    one = 0
    for _ in range(300):
        for v, allocation, cluster, _, pairs, instances in random_clusters(
            rng, idle_caps=rng.random() < 0.5, draws=2
        ):
            assert_facts_equal_general(v, allocation, cluster, pairs, instances)
            one += len(cluster.robots) == 1
    assert one > 100


def test_facts_equal_general_constructor_on_random_joint_missions():
    """Every cluster of every allocation of random missions with joint
    teams: each slot equals the general constructor's, and the success
    probability, read with each participant's duration, equals its
    separately multiplied one to the last bit."""
    rng = random.Random(1618)
    joint = 0
    for v, requested in random_joint_missions(rng, 300):
        leaves, instances, pairs, subtrees = expanded(v)
        for a in enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=requested)):
            for cluster in cluster_robots(a, subtrees):
                facts, general = assert_facts_equal_general(v, a, cluster, pairs, instances)
                assert float.hex(facts.p_success) == float.hex(general.p_success)
                joint += any(step[3] is not None for step in facts.instances.values())
    assert joint > 200


def test_facts_equal_general_constructor_on_fleet():
    """Every cluster of every allocation of the benchmark's fleet
    sub-instance 0, all of them one robot."""
    text, cfg = perfbench_mission("fleet")
    space = prepare_search(load(text), AllocatorConfig(max_allocations=cfg.allocations), cfg.ga())
    sizes = set()
    for allocation, clusters in zip(space.allocations, space.clusters):
        for cluster in clusters:
            assert_facts_equal_general(
                space.v, allocation, cluster, space.pairs, space.instances
            )
            sizes.add(len(cluster.robots))
    assert sizes == {1}
