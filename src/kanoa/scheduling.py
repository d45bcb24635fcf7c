"""Per-cluster scheduling: feasibility, objectives, and a concrete plan.

A search keeps two records for it: the :class:`ClusterFacts` of each
(allocation, cluster) and one :class:`Hops` memo for the whole mission.
The closed-form score reads them, and so does the
:class:`kanoa.mdp.ClusterContext` of a plan's or a dump's model.
"""

from __future__ import annotations

from typing import NamedTuple

from .clustering import RobotCluster
from .errors import InvariantViolation
from .mdp import DEFAULT_STATE_CAP, ClusterContext, build_mdp
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


class Hops(dict):
    """A search's memo of hops, keyed ``(robot, origin location,
    instance)``: the instance's location, the hop distance, the robot's
    travel time over it, and the robot's own execution time and success
    probability of the instance.  Within one problem and one set of
    instances, equal keys give equal hops; a missing hop is computed on
    lookup and kept; ``parts`` keeps what a hop takes from its (robot,
    instance) alone, so a miss adds only the distance and the travel time."""

    __slots__ = ("v", "instances", "parts")

    def __init__(self, v: ValidatedProblem, instances: dict[str, TaskInstance]):
        super().__init__()
        self.v = v
        self.instances = instances
        self.parts: dict[tuple[str, str], tuple] = {}

    def __missing__(self, key):
        rid, here, inst_id = key
        part = self.parts.get((rid, inst_id))
        if part is None:
            robot, inst = self.v.robot(rid), self.instances[inst_id]
            cap, speed = robot.capability_for(inst.type_id), robot.velocity
            part = self.parts[rid, inst_id] = (inst.location, speed.numerator,
                                              speed.denominator, cap.required_time,
                                              cap.success_prob)
        location, num, den, own, prob = part
        dist = self.v.distance(here, location)
        hop = self[key] = (location, dist, -((-dist * den) // num), own, prob)
        return hop


def success_probability(
    v: ValidatedProblem, allocation: dict[str, frozenset[str]], cluster: RobotCluster,
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


class ClusterFacts:
    """What an (allocation, cluster) pair fixes for every permutation of
    the cluster: its sorted robots, the time budget ``tt`` (the mission's
    ``time`` constraint) and each robot's idle cap, the tracked instances,
    the :func:`success_probability` ``p_success``, and for each instance
    of the cluster ``(pred_tracked, tracked_idx, participants, duration)``.
    ``duration`` is the joint execution time, the slowest participant's,
    and None for a one-robot instance."""

    __slots__ = ("tt", "robots", "starts", "robot_index", "idle_caps", "tracked",
                 "p_success", "instances")

    def __init__(
        self, v: ValidatedProblem, allocation: dict[str, frozenset[str]],
        cluster: RobotCluster, pairs: list[PrecedencePair],
        instances: dict[str, TaskInstance],
    ):
        self.tt = tt = v.time_available
        self.robots = tuple(sorted(cluster.robots))
        self.starts = tuple(v.robot(r).initial_loc for r in self.robots)
        self.robot_index = {r: i for i, r in enumerate(self.robots)}
        self.idle_caps = [
            tt if (cap := v.max_idle(r)) is None else cap for r in self.robots
        ]
        self.p_success = success_probability(v, allocation, cluster, instances)

        in_cluster = cluster.instances
        if len(self.robots) == 1:  # every team is its robot: none joint or tracked
            self.tracked = ()
            self.instances = dict.fromkeys(in_cluster, ((), -1, self.robots, None))
            return
        team = {i: allocation[i] for i in in_cluster}

        # instances whose completion time later tasks on other robots await
        tracked: list[str] = []
        for p in pairs:
            if p.before in in_cluster and p.after in in_cluster:
                if not (team[p.after] <= team[p.before]):
                    if p.before not in tracked:
                        tracked.append(p.before)
        tracked.sort()
        self.tracked = tuple(tracked)
        tr_index = {inst: i for i, inst in enumerate(tracked)}

        preds: dict[str, set[str]] = {}
        for p in pairs:
            if p.before in tr_index and p.after in in_cluster:
                preds.setdefault(p.after, set()).add(p.before)

        self.instances = {}
        for inst_id in in_cluster:
            inst = instances[inst_id]
            participants = tuple(sorted(team[inst_id]))
            duration = None
            if inst.robots_needed >= 2:
                duration = max(
                    v.robot(r).capability_for(inst.type_id).required_time
                    for r in participants
                )
            self.instances[inst_id] = (
                tuple(sorted(tr_index[x] for x in preds.get(inst_id, ()))),
                tr_index.get(inst_id, -1),
                participants,
                duration,
            )


def earliest_start(
    facts: ClusterFacts, permutation: dict[str, tuple[str, ...]], hops: Hops
) -> tuple[int, int] | tuple[None, None]:
    """(idle, travel) totals of the earliest-start schedule of the
    cluster's per-robot orders in ``permutation``, or (None, None) when it
    fails; reads each step from ``facts`` and ``hops``, and builds no
    context and no model.

    Exact under two preconditions of the model in :mod:`kanoa.mdp`: a
    task takes the same time whether it succeeds or fails, and recovery
    takes no time.  Then no robot clock depends on an outcome, and the
    model reaches ``done`` (with probability 1, else 0) exactly when this
    schedule completes (critical-path scheduling over a simple temporal
    network, Kelley & Walker 1959); by confluence, its idle is the chain's
    minimum idle, and its travel, the sum of the hops, the travel reward
    of any completing policy.  Timing follows the model's actions: a solo
    step departs at the later of its robot's clock and its tracked
    predecessors' completions; a joint step's participants travel first
    and execute from the latest arrival or predecessor completion.  The
    schedule fails when it deadlocks, when a step ends after the budget,
    or when a robot's total wait exceeds its idle cap.

    A one-robot cluster has no joint and no tracked instance (every team
    is its robot), so the robot never waits: its score is (0, the sum of
    its hops), and since its clock never decreases it fails exactly when
    its final clock exceeds the budget.  Idle caps are at least 1.
    """
    tt, caps, robots, index = facts.tt, facts.idle_caps, facts.robots, facts.robot_index
    if len(robots) == 1:
        rid, here, clock, travel = robots[0], facts.starts[0], 0, 0
        for inst_id in permutation[rid]:
            here, dist, travel_time, own, _ = hops[rid, here, inst_id]
            clock += travel_time + own
            travel += dist
        return (0, travel) if clock <= tt else (None, None)
    orders = [permutation[r] for r in robots]
    n = len(robots)
    clock, idle, pos, here = [0] * n, [0] * n, [0] * n, list(facts.starts)
    travel = 0
    done: dict[int, int] = {}  # tracked index -> completion time
    progress = True
    while progress:
        progress = False
        for i, order in enumerate(orders):
            # advance robot i as far as it can; earliest starts do not
            # depend on the order in which they are computed
            while pos[i] < len(order):
                inst_id = order[pos[i]]
                pred_tracked, tracked_idx, team, duration = facts.instances[inst_id]
                ready = 0
                if pred_tracked:
                    if any(t not in done for t in pred_tracked):
                        break
                    ready = max(done[t] for t in pred_tracked)
                if duration is None:
                    location, dist, travel_time, own, _ = hops[robots[i], here[i], inst_id]
                    start = max(ready, clock[i])
                    end = start + travel_time + own
                    idle[i] += start - clock[i]
                    if end > tt or idle[i] > caps[i]:
                        return None, None
                    clock[i], here[i] = end, location
                    pos[i] += 1
                    travel += dist
                else:
                    members = [index[r] for r in team]
                    if any(pos[r] == len(orders[r]) or orders[r][pos[r]] != inst_id
                           for r in members):
                        break
                    moves = [hops[robots[r], here[r], inst_id] for r in members]
                    arrive = [clock[r] + hop[2] for r, hop in zip(members, moves)]
                    start = max(ready, *arrive)
                    end = start + duration
                    for r, a in zip(members, arrive):
                        idle[r] += start - a
                    if end > tt or any(idle[r] > caps[r] for r in members):
                        return None, None
                    for r, hop in zip(members, moves):
                        clock[r], here[r] = end, hop[0]
                        pos[r] += 1
                        travel += hop[1]
                if tracked_idx >= 0:
                    done[tracked_idx] = end
                progress = True
    if any(p < len(order) for p, order in zip(pos, orders)):
        return None, None
    return sum(idle), travel


def score_cluster(
    v: ValidatedProblem, allocation: dict[str, frozenset[str]], cluster: RobotCluster,
    permutation: dict[str, tuple[str, ...]], pairs: list[PrecedencePair],
    instances: dict[str, TaskInstance], *, facts: ClusterFacts | None = None,
    hops: Hops | None = None,
) -> SchedulingResult:
    """One cluster's verdict and objectives in closed form, with no plan.

    Feasibility, the minimum idle and travel are those of the
    earliest-start schedule (:func:`earliest_start`), which equal the
    reach, minimum-idle and travel values of the cluster's model (see
    :mod:`kanoa.mdp`); the success probability is
    :func:`success_probability`, kept on the cluster's facts.  Only the
    cluster's robots are read from ``permutation``.  ``facts`` and
    ``hops`` are a search's shared records; without them the call builds
    its own.
    """
    if facts is None:
        facts = ClusterFacts(v, allocation, cluster, pairs, instances)
    if hops is None:
        hops = Hops(v, instances)
    idle, travel = earliest_start(facts, permutation, hops)
    if idle is None:
        return SchedulingResult(False, 0.0, None, None, None)
    return SchedulingResult(True, facts.p_success, idle, travel, None)


def schedule_cluster(
    v: ValidatedProblem, allocation: dict[str, frozenset[str]], cluster: RobotCluster,
    permutation: dict[str, tuple[str, ...]], pairs: list[PrecedencePair],
    instances: dict[str, TaskInstance], state_cap: int = DEFAULT_STATE_CAP, *,
    facts: ClusterFacts | None = None, hops: Hops | None = None,
) -> SchedulingResult:
    """:func:`score_cluster` with the plan of a feasible cluster.

    The plan comes from the cluster's failure-lumped chain,
    :func:`build_mdp` with ``failures=False``: the exact quotient of the
    paper's model that keeps only success outcomes, reduced by confluence
    to one action per state (see :mod:`kanoa.mdp`), built under
    ``state_cap`` and solved for its minimum-idle policy.  It has at most
    1 + 2 * (task steps) + (joint instances) states.  An infeasible
    cluster builds no context and no model.  Without a search's ``facts``
    and ``hops``, the call builds both once, for the score and the
    context.  :class:`InvariantViolation` is raised when the chain does
    not surely reach done or its minimum idle is not the score's.
    """
    if facts is None:
        facts = ClusterFacts(v, allocation, cluster, pairs, instances)
    if hops is None:
        hops = Hops(v, instances)
    score = score_cluster(
        v, allocation, cluster, permutation, pairs, instances, facts=facts, hops=hops
    )
    if not score.feasible:
        return score
    ctx = ClusterContext(facts, permutation, hops)
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
