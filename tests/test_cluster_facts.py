"""A search's shared cluster records against a cold context.

``evaluate`` passes ``score_cluster``, and the front's plans pass
``schedule_cluster``, the :class:`ClusterFacts` of the allocation's
cluster and the search's memo of steps.  A context built from them must
equal one built cold from the mission, field by field, and so must the
score and the scheduling result: on every scoring call of a default
hospital run, and on random clusters that share one memo per mission.
"""

import random

from helpers import random_clusters

from kanoa.mdp import ClusterContext, ClusterFacts, _Step
from kanoa.permutations import random_task_permutation, robot_precedence
from kanoa.scheduling import schedule_cluster, score_cluster, success_probability


def context_fields(ctx):
    """Everything a schedule or a model reads from a context."""
    return (
        ctx.tt, ctx.robots, ctx.robot_index, ctx.tracked, ctx.idle_caps, ctx.p_success,
        ctx.cum, ctx.joint_positions,
        [[tuple(getattr(s, f) for f in _Step.__slots__) for s in row] for row in ctx.steps],
    )


def assert_shared_equals_cold(args, facts, steps):
    """The context, score and result from ``facts`` and ``steps`` equal
    the cold ones; returns the number of steps the context holds."""
    shared = ClusterContext(*args, facts=facts, steps=steps)
    assert context_fields(shared) == context_fields(ClusterContext(*args))
    assert score_cluster(*args, facts=facts, steps=steps) == score_cluster(*args)
    assert schedule_cluster(*args, facts=facts, steps=steps) == schedule_cluster(*args)
    return sum(len(row) for row in shared.steps)


def test_hospital_calls_share_records_equal_to_cold(hospital_calls):
    built = 0
    for args, kwargs, _ in hospital_calls:
        built += assert_shared_equals_cold(args, kwargs["facts"], kwargs["steps"])
    # one memo for the whole search, which built most of its steps once
    memos = {id(kwargs["steps"]): kwargs["steps"] for _, kwargs, _ in hospital_calls}
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
        steps = {}
        facts = {}
        for v, allocation, cluster, permutation, pairs, instances in made:
            key = (frozenset(allocation.items()), cluster)
            if key not in facts:
                facts[key] = ClusterFacts(v, allocation, cluster, pairs, instances)
            precedence = robot_precedence(allocation, cluster, pairs)
            for p in [permutation] + [
                random_task_permutation(precedence, seed=rng.random()) for _ in range(2)
            ]:
                args = (v, allocation, cluster, p, pairs, instances)
                built += assert_shared_equals_cold(args, facts[key], steps)
                checked += 1
        distinct += len(steps)
    # steps were shared across permutations and allocations
    assert distinct < built / 2
