"""Per-cluster scheduling: feasibility, objectives, and a concrete plan."""

from __future__ import annotations

from typing import NamedTuple

from .clustering import RobotCluster
from .errors import InvariantViolation
from .mdp import DEFAULT_STATE_CAP, ClusterContext, ClusterFacts, build_mdp
from .mdp import earliest_start_idle
from .mdp import success_probability  # noqa: F401  (kept importable from here)
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


def _score(ctx: ClusterContext) -> SchedulingResult:
    idle = earliest_start_idle(ctx)
    if idle is None:
        return SchedulingResult(False, 0.0, None, None, None)
    travel = sum(step.hop_dist for row in ctx.steps for step in row)
    return SchedulingResult(True, ctx.p_success, idle, travel, None)


def score_cluster(
    v: ValidatedProblem, allocation: dict[str, frozenset[str]], cluster: RobotCluster,
    permutation: dict[str, tuple[str, ...]], pairs: list[PrecedencePair],
    instances: dict[str, TaskInstance], *, facts: ClusterFacts | None = None,
    steps: dict | None = None,
) -> SchedulingResult:
    """One cluster's verdict and objectives in closed form, with no plan.

    Feasibility and the minimum idle are those of the earliest-start
    schedule (:func:`earliest_start_idle`), which equal the reach and
    minimum-idle values of the cluster's model (see :mod:`kanoa.mdp`).
    The success probability is :func:`success_probability`, kept on the
    cluster's facts, and travel, the sum of the steps' hops, is
    permutation-determined and equals the model's travel reward along any
    completing policy.  ``facts`` and ``steps`` are a search's shared
    records, passed on to :class:`ClusterContext`.
    """
    return _score(ClusterContext(
        v, allocation, cluster, permutation, pairs, instances, facts=facts, steps=steps
    ))


def schedule_cluster(
    v: ValidatedProblem, allocation: dict[str, frozenset[str]], cluster: RobotCluster,
    permutation: dict[str, tuple[str, ...]], pairs: list[PrecedencePair],
    instances: dict[str, TaskInstance], state_cap: int = DEFAULT_STATE_CAP, *,
    facts: ClusterFacts | None = None, steps: dict | None = None,
) -> SchedulingResult:
    """:func:`score_cluster` with the plan of a feasible cluster.

    The plan comes from the cluster's failure-lumped chain,
    :func:`build_mdp` with ``failures=False``: the exact quotient of the
    paper's model that keeps only success outcomes, reduced by confluence
    to one action per state (see :mod:`kanoa.mdp`), built under
    ``state_cap`` and solved for its minimum-idle policy.  It has at most
    1 + 2 * (task steps) + (joint instances) states.  An infeasible
    cluster builds no model.  :class:`InvariantViolation` is raised when
    the chain does not surely reach done or its minimum idle is not the
    score's.
    """
    ctx = ClusterContext(
        v, allocation, cluster, permutation, pairs, instances, facts=facts, steps=steps
    )
    score = _score(ctx)
    if not score.feasible:
        return score
    mdp = build_mdp(ctx, state_cap, failures=False)
    reach = max_reach_probability(mdp, "done")
    if reach < 1.0:
        raise InvariantViolation(
            f"cluster {sorted(cluster.robots)} passed the earliest-start check "
            f"but its model reaches done with probability {reach}"
        )
    idle_value, policy = min_expected_reward_policy(mdp, "idle", "done")
    if abs(idle_value - score.idle) >= 1e-6:
        raise InvariantViolation(
            f"cluster {sorted(cluster.robots)} idles {score.idle} in its "
            f"earliest-start schedule but {idle_value} in its model"
        )
    return score._replace(plan=extract_plan(mdp, policy))
