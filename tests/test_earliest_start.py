"""The closed-form earliest-start schedule against the explicit model.

``score_cluster`` decides a cluster's feasibility and minimum idle from
the earliest-start schedule of its fixed per-robot orders, without a
model, and ``schedule_cluster`` adds the plan of the cluster's chain.
These tests hold the schedule to the model's verdict and idle, and both
``SchedulingResult`` values to a reference that always builds and solves
the full model, on random clusters (one-robot clusters also at budgets on
either side of their finishing time), on hand-built edge cases and on
every cluster scored by a default hospital run.  The plan and idle of every
feasible cluster are also held to ``oracles.earliest_start_plan``, which
simulates the schedule without a model.  Last, the tests guard the two
preconditions that the schedule and the failure-lumped model rest on:
outcome-independent durations and zero-time recovery.
"""

import random

import pytest
from helpers import (
    cold_context,
    cold_records,
    expanded,
    load,
    random_clusters,
    reference_schedule,
    reference_score,
    times,
    with_time_available,
)
from oracles import earliest_start_plan, min_completion

import kanoa.scheduling
from kanoa.clustering import cluster_robots
from kanoa.errors import InvariantViolation
from kanoa.mdp import build_mdp
from kanoa.scheduling import (
    ClusterFacts, Hops, earliest_start, schedule_cluster, score_cluster,
)

RELAY = """
world { loc room (0,0) loc dock (4,0) }
tasks { atomic notify robots 1 atomic clean robots 1
        compound c = ordered { notify, clean } }
robots {
  robot talker at dock velocity 1 { can notify time 6 prob 0.9 can clean time 2 prob 1 }
  robot wiper at room velocity 1 { can notify time 6 prob 1 can clean time 2 prob 0.8 }
}
mission { task c at room; time TT IDLE }
"""

TWO_LIFTS = """
world { loc a (0,0) loc b (3,0) }
tasks { atomic lift robots 2 }
robots {
  robot r1 at a velocity 1 { can lift time 1 prob 0.9 }
  robot r2 at a velocity 1 { can lift time 1 prob 1 }
}
mission { task lift at a; task lift at b; time 30 }
"""


def relay_case(tt, idle=""):
    """talker notifies (done at 4 + 6 = 10), then wiper cleans in place for
    2: wiper's bare chain is 2 long, but waiting makes it end at 12."""
    v = load(RELAY.replace("TT", str(tt)).replace("IDLE", idle))
    _, instances, pairs, subtrees = expanded(v)
    allocation = {
        "notify_0": frozenset({"talker"}), "clean_0": frozenset({"wiper"}),
    }
    cluster = cluster_robots(allocation, subtrees)[0]
    p = {"talker": ("notify_0",), "wiper": ("clean_0",)}
    return v, allocation, cluster, p, pairs, instances


def crossed_lifts_case(crossed):
    v = load(TWO_LIFTS)
    _, instances, pairs, subtrees = expanded(v)
    both = frozenset({"r1", "r2"})
    allocation = {"lift_0": both, "lift_1": both}
    cluster = cluster_robots(allocation, subtrees)[0]
    second = ("lift_1", "lift_0") if crossed else ("lift_0", "lift_1")
    p = {"r1": ("lift_0", "lift_1"), "r2": second}
    return v, allocation, cluster, p, pairs, instances


def crossed_orders_case(crossed):
    """Two notify -> clean orders, each split across the robots; crossed
    per-robot orders make each robot wait on the other's later task."""
    v = load(RELAY.replace("task c at room", "task c at room; task c at dock")
             .replace("TT", "60").replace("IDLE", ""))
    _, instances, pairs, subtrees = expanded(v)
    allocation = {
        "notify_0": frozenset({"talker"}), "clean_0": frozenset({"wiper"}),
        "notify_1": frozenset({"wiper"}), "clean_1": frozenset({"talker"}),
    }
    cluster = cluster_robots(allocation, subtrees)[0]
    if crossed:
        p = {"talker": ("clean_1", "notify_0"), "wiper": ("clean_0", "notify_1")}
    else:
        p = {"talker": ("notify_0", "clean_1"), "wiper": ("notify_1", "clean_0")}
    return v, allocation, cluster, p, pairs, instances


def context(case):
    return cold_context(*case)


def check(case):
    v, allocation, cluster, p, pairs, instances = case
    facts = ClusterFacts(v, allocation, cluster, pairs, instances)
    return earliest_start(facts, p, Hops(v, instances))[0] is not None


def chains_fit(case):
    """Whether every robot's bare chain of travel and execution fits the
    budget, so that only waiting can make the cluster infeasible."""
    ctx = context(case)
    return all(min_completion(ctx, i) <= ctx.tt for i in range(ctx.nrobots))


def verdicts(case):
    """(check verdict, model verdict), after asserting that the whole
    result, and the score without its plan, equal the reference's."""
    ref = reference_schedule(*case)
    assert schedule_cluster(*case) == ref
    assert score_cluster(*case, **cold_records(*case)) == ref._replace(plan=None)
    return check(case), ref.feasible


# -- random clusters ----------------------------------------------------------


@pytest.mark.parametrize("idle_caps", [False, True])
def test_random_clusters_match_reference(idle_caps):
    rng = random.Random(2024 + idle_caps)
    checked = feasible = waits_reject = 0
    while checked < 1000:
        for case in random_clusters(rng, idle_caps, draws=3):
            case = with_time_available(case, rng.randint(4, 24))
            check, model = verdicts(case)
            assert check == model
            checked += 1
            feasible += model
            waits_reject += not model and chains_fit(case)
    # both verdicts occur, and the check rejects clusters the chains pass
    assert 0.2 * checked < feasible < 0.8 * checked
    assert waits_reject > 0.02 * checked


@pytest.mark.parametrize("idle_caps", [False, True])
def test_one_robot_clusters_match_reference(idle_caps):
    """A one-robot cluster's score, (0, its hop sum) when its bare chain
    fits, equals the full model's at a random budget and at budgets of
    exactly the robot's finishing time and one less."""
    rng = random.Random(f"one-robot-{idle_caps}")
    solo = 0
    for _ in range(150):
        for case in random_clusters(rng, idle_caps, draws=3):
            if len(case[2].robots) != 1:
                continue
            solo += 1
            finish = min_completion(context(case), 0)
            for tt in (finish, finish - 1, rng.randint(4, 24)):
                budgeted = with_time_available(case, tt)
                expected = reference_score(*budgeted)
                assert score_cluster(*budgeted, **cold_records(*budgeted)) == expected
                assert expected.feasible == (finish <= tt)
                assert expected.idle == (0 if finish <= tt else None)
    assert solo >= 100


# -- hand-built edge cases ------------------------------------------------------


def test_chain_fits_only_without_waiting():
    case = relay_case(tt=11)
    assert chains_fit(case)
    assert verdicts(case) == (False, False)
    assert verdicts(relay_case(tt=12)) == (True, True)


def test_idle_cap_overrun():
    # wiper must wait 10 units for notify
    case = relay_case(tt=30, idle="maxidle wiper 9")
    assert chains_fit(case)
    assert verdicts(case) == (False, False)
    assert verdicts(relay_case(tt=30, idle="maxidle wiper 10")) == (True, True)


@pytest.mark.parametrize("make", [crossed_lifts_case, crossed_orders_case])
def test_cross_robot_deadlock(make):
    case = make(crossed=True)
    assert chains_fit(case)
    assert verdicts(case) == (False, False)
    assert verdicts(make(crossed=False)) == (True, True)


def test_model_disagreeing_with_check_raises(monkeypatch):
    # at tt=11 the schedule does not fit, and at tt=12 wiper idles 10
    infeasible, feasible = relay_case(tt=11), relay_case(tt=12)
    assert not score_cluster(*infeasible, **cold_records(*infeasible)).feasible
    assert score_cluster(*feasible, **cold_records(*feasible)).idle == 10
    # a schedule claiming that tt=11 fits meets a chain that misses done
    monkeypatch.setattr(kanoa.scheduling, "earliest_start", lambda *_: (10, 4))
    with pytest.raises(InvariantViolation, match="reaches done with probability 0"):
        schedule_cluster(*relay_case(tt=11))
    # one claiming 9 at tt=12 meets the chain's minimum idle of 10
    monkeypatch.setattr(kanoa.scheduling, "earliest_start", lambda *_: (9, 4))
    with pytest.raises(InvariantViolation, match="idles 9 in its earliest-start"):
        schedule_cluster(*relay_case(tt=12))


# -- every cluster of a default hospital run ------------------------------------


def test_hospital_calls_match_reference(hospital_calls):
    # a score builds no model; a feasible schedule solves the
    # failure-lumped model where the reference solves the full one
    rejected = 0
    for args, kwargs, ref in hospital_calls:
        assert check(args) == ref.feasible
        assert score_cluster(*args, **kwargs) == ref
        assert schedule_cluster(*args, **kwargs)._replace(plan=None) == ref
        rejected += not ref.feasible and chains_fit(args)
    assert rejected > len(hospital_calls) / 2
    assert any(ref.feasible for *_, ref in hospital_calls)


# -- plans against the simulated earliest-start schedule ------------------------


def matches_plan_oracle(result, ctx):
    """Assert that a scheduling result has the oracle's verdict, plan and
    idle; returns whether it is feasible."""
    simulated = earliest_start_plan(ctx)
    assert result.feasible == (simulated is not None)
    if simulated is not None:
        assert (result.plan, result.idle) == simulated
    return result.feasible


@pytest.mark.parametrize("idle_caps", [False, True])
def test_random_clusters_match_plan_oracle(idle_caps):
    rng = random.Random(4048 + idle_caps)
    checked = feasible = waited = 0
    while checked < 1000:
        for case in random_clusters(rng, idle_caps, draws=3):
            case = with_time_available(case, rng.randint(4, 24))
            result = schedule_cluster(*case)
            feasible += matches_plan_oracle(result, context(case))
            waited += bool(result.idle)
            checked += 1
    # both verdicts occur, and many plans wait
    assert 0.2 * checked < feasible < 0.8 * checked
    assert waited > 0.1 * checked


def test_hospital_calls_match_plan_oracle(hospital_calls):
    feasible = sum(
        matches_plan_oracle(schedule_cluster(*args, **kwargs), context(args))
        for args, kwargs, _ in hospital_calls
    )
    assert feasible > 0


# -- preconditions of the check ---------------------------------------------------


def assert_outcome_independent(mdp):
    """Both branches of a choice reach equal robot clocks, and recovery
    moves no clock; returns how many such choices were seen."""
    seen = 0
    clocks = [times(mdp.context, state) for state in mdp.states]
    for s, choices in enumerate(mdp.choices):
        for c in choices:
            if len(c.branches) == 2:
                (_, ok), (_, bad) = c.branches
                assert clocks[ok] == clocks[bad]
                seen += 1
            elif c.kind == "recover":
                [(_, t)] = c.branches
                assert clocks[t] == clocks[s]
                seen += 1
    return seen


def test_preconditions_on_random_models():
    rng = random.Random(7)
    seen = built = 0
    while built < 150:
        for case in random_clusters(rng, idle_caps=built % 2 == 1):
            case = with_time_available(case, rng.randint(4, 24))
            seen += assert_outcome_independent(build_mdp(context(case)))
            built += 1
    assert seen > built


def test_preconditions_on_hospital_clusters(hospital_calls):
    seen = 0
    for args, _, _ in hospital_calls[::12]:
        seen += assert_outcome_independent(build_mdp(context(args)))
    assert seen > 0
