"""Per-cluster scheduling: feasibility, objectives, and a concrete plan."""

from __future__ import annotations

from typing import NamedTuple

from .clustering import RobotCluster
from .errors import InvariantViolation
from .mdp import (
    DEFAULT_STATE_CAP,
    ClusterContext,
    ClusterFacts,
    build_mdp,
    earliest_start_feasible,
)
from .plans import Plan, extract_plan
from .problem import ValidatedProblem
from .solver import max_reach_probability, min_expected_reward_policy
from .taskgraph import PrecedencePair, TaskInstance


class SchedulingResult(NamedTuple):
    feasible: bool
    p_success: float
    idle: int | None
    travel: int | None
    plan: Plan | None


def success_probability(
    v: ValidatedProblem,
    allocation: dict[str, frozenset[str]],
    cluster: RobotCluster,
    instances: dict[str, TaskInstance],
) -> float:
    """Product of the capability success probabilities over every execution.

    A joint instance contributes every participant's probability, matching
    the synchronized action's branching in the scheduling model.
    """
    prob = 1.0
    for inst_id in sorted(cluster.instances):
        type_id = instances[inst_id].type_id
        for rid in sorted(allocation[inst_id]):
            prob *= v.robot(rid).capability_for(type_id).success_prob
    return prob


def schedule_cluster(
    v: ValidatedProblem,
    allocation: dict[str, frozenset[str]],
    cluster: RobotCluster,
    permutation: dict[str, tuple[str, ...]],
    pairs: list[PrecedencePair],
    instances: dict[str, TaskInstance],
    state_cap: int = DEFAULT_STATE_CAP,
    *,
    facts: ClusterFacts | None = None,
    steps: dict | None = None,
) -> SchedulingResult:
    """Build and solve one cluster's failure-lumped chain under the
    mission's time budget.

    The model is :func:`build_mdp` with ``failures=False``: the exact
    quotient of the paper's model that keeps only success outcomes,
    reduced by confluence to a chain of one action per state (see
    :mod:`kanoa.mdp`).  It has at most 1 + 2 * (task steps) + (joint
    instances) states and the paper's model's reach and minimum-idle
    values and plan.  Feasible when the done label is reachable
    (probability exactly 1 on these models); the attached plan realizes the
    minimum-idle policy.  The success probability is the closed-form
    :func:`success_probability`, and travel, the sum of the steps' hops, is
    permutation-determined and equals the model's travel reward along any
    completing policy.  ``facts`` and ``steps`` are a search's shared
    records, passed on to :class:`ClusterContext`.
    Infeasible clusters are rejected in closed form by
    :func:`earliest_start_feasible` before any model is built;
    :class:`InvariantViolation` is raised when the model disagrees.
    """
    ctx = ClusterContext(
        v, allocation, cluster, permutation, pairs, instances, facts=facts, steps=steps
    )
    if not earliest_start_feasible(ctx):
        return SchedulingResult(False, 0.0, None, None, None)

    mdp = build_mdp(ctx, state_cap, failures=False)
    reach = max_reach_probability(mdp, "done")
    if reach < 1.0:
        raise InvariantViolation(
            f"cluster {sorted(cluster.robots)} passed the earliest-start check "
            f"but its model reaches done with probability {reach}"
        )
    idle_value, policy = min_expected_reward_policy(mdp, "idle", "done")
    idle = round(idle_value)
    if abs(idle_value - idle) >= 1e-6:
        raise InvariantViolation(f"minimum idle {idle_value} is not an integer")
    plan = extract_plan(mdp, policy)
    return SchedulingResult(
        feasible=True,
        p_success=success_probability(v, allocation, cluster, instances),
        idle=idle,
        travel=sum(step.hop_dist for row in ctx.steps for step in row),
        plan=plan,
    )
