"""Reference implementations that the shipped pipeline is checked against.

None of this runs in ``kanoa plan``.  Production clusters robots with
union-find (:func:`kanoa.clustering.cluster_robots`) and samples allocations
by unranking (:func:`kanoa.allocation.enumerate_allocations`); the oracles
here compute the same results the slow, obvious way:

* the paper's interdependence matrix, closed by Warshall's algorithm and,
  independently, by a boolean matrix-power fixpoint;
* the full feasible allocation space, by nested enumeration, and a
  sampled request's allocations picked from it;
* a cluster's instances, by scanning the whole allocation once per
  cluster;
* each robot's restriction of the precedence order, by scanning the
  cluster's instances once per robot and walking the precedence graph
  afresh from each of them, and a draw's starting state converted from
  that restriction in a second step;
* a robot's finishing clock with no waiting at all;
* a cluster's minimum-idle plan, by simulating the earliest-start schedule
  of its fixed per-robot orders instead of building and solving a model;
* a permutation pool entry, by sorting every ready task afresh at each
  step of the draw;
* Pareto dominance, and NSGA-II's nondominated fronts, by comparing every
  pair of population members instead of sorting distinct objective
  vectors;
* the solver's reach and minimum-reward queries, by the two-pass method
  written out separately: Kahn's algorithm on an explicit queue, then
  backward sweeps in which every choice looks its reward up by name;
* the cyclic compound definitions, by a reachability search from each
  compound;
* the search's scorer, ranking and crowding as they were written before
  their constant-factor rewrite: the earliest-start schedule of every
  cluster by the general multi-robot loop, the ranking's release order
  by sorting the previous front afresh for each front, and crowding by
  looking every objective up through the results;
* a cluster's facts by the general constructor, which scans the
  precedence pairs even for one robot, and each hop from the problem's
  own ``distance`` and :func:`travel_time`, the ceiling of distance over
  velocity;
* a permutation's travel, by walking each robot's chain of task
  locations from its start and summing the distances;
* the front's artifacts as documents for ``json.dumps(doc, indent=2)``
  and rows for ``csv.writer``, which the template writers of
  :mod:`kanoa.reporting` must equal byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import deque
from itertools import combinations

import numpy as np

from kanoa.allocation import eligible_robots
from kanoa.clustering import RobotCluster, robots_of_subtree
from kanoa.errors import InvariantViolation, UndefinedReward
from kanoa.mdp import REWARD_ATTRS, ClusterContext, Mdp
from kanoa.optimizer import EvalResult, Objectives
from kanoa.plans import Plan, PlanEvent
from kanoa.problem import ValidatedProblem
from kanoa.scheduling import ClusterFacts, Hops, success_probability
from kanoa.taskgraph import TaskInstance


def used_robots(allocation: dict[str, frozenset[str]]) -> frozenset[str]:
    """Every robot that some instance's team includes."""
    return frozenset().union(*allocation.values())


class InterdependenceMatrix:
    """Reflexive symmetric boolean relation over an ordered robot list."""

    def __init__(self, robots: tuple[str, ...], m: np.ndarray):
        self.robots = tuple(robots)
        self.m = m.astype(bool)

    def __eq__(self, other):
        if not isinstance(other, InterdependenceMatrix):
            return NotImplemented
        return self.robots == other.robots and np.array_equal(self.m, other.m)

    def __repr__(self):
        return f"InterdependenceMatrix({self.robots}, {self.m.astype(int).tolist()})"


def relation_matrix(
    allocation: dict[str, frozenset[str]], subtrees: list[frozenset[str]]
) -> InterdependenceMatrix:
    robots = tuple(sorted(used_robots(allocation)))
    index = {r: i for i, r in enumerate(robots)}
    m = np.eye(len(robots), dtype=bool)
    for s in subtrees:
        group = [index[r] for r in robots_of_subtree(allocation, s)]
        for a in group:
            for b in group:
                m[a, b] = True
    return InterdependenceMatrix(robots, m)


def transitive_closure(matrix: InterdependenceMatrix) -> InterdependenceMatrix:
    """Warshall's algorithm; idempotent, never removes existing relations."""
    m = matrix.m.copy()
    n = len(matrix.robots)
    for k in range(n):
        m |= np.outer(m[:, k], m[k, :])
    return InterdependenceMatrix(matrix.robots, m)


def closure_by_multiplication(matrix: InterdependenceMatrix) -> InterdependenceMatrix:
    """Boolean matrix-power fixpoint; independent oracle for the closure."""
    m = matrix.m.copy()
    while True:
        nxt = m | (m @ m)
        if np.array_equal(nxt, m):
            return InterdependenceMatrix(matrix.robots, nxt)
        m = nxt


def clusters(
    matrix: InterdependenceMatrix, allocation: dict[str, frozenset[str]]
) -> list[RobotCluster]:
    """Connected components of a closed matrix, ordered by smallest robot id."""
    robots = matrix.robots
    seen = set()
    groups = []
    for i, r in enumerate(robots):
        if r in seen:
            continue
        members = frozenset(robots[j] for j in np.flatnonzero(matrix.m[i]))
        seen |= members
        groups.append(members)
    return [_make_cluster(g, allocation) for g in sorted(groups, key=min)]


def _make_cluster(
    robots: frozenset[str], allocation: dict[str, frozenset[str]]
) -> RobotCluster:
    """The cluster of ``robots`` with every instance whose team meets them,
    by one scan of the allocation per cluster."""
    instances = frozenset(
        inst
        for inst, team in allocation.items()
        if team & robots
    )
    return RobotCluster(robots=robots, instances=instances)


def format_clusters(matrix: InterdependenceMatrix, groups: list[RobotCluster]) -> str:
    """Plain-text dump of the relation matrix and resulting clusters."""
    lines = ["robots: " + " ".join(matrix.robots)]
    for r, row in zip(matrix.robots, matrix.m):
        lines.append(f"  {r}: " + " ".join("1" if v else "0" for v in row))
    for i, g in enumerate(groups):
        lines.append(f"cluster {i}: {{{', '.join(sorted(g.robots))}}}")
    return "\n".join(lines)


def brute_force_allocations(v: ValidatedProblem, instances: list[TaskInstance]):
    """Generator over the full feasible space in enumeration order.

    Kept independent of the unranking path.
    """
    pools = [eligible_robots(v, i) for i in instances]
    combos = [
        list(combinations(pool, inst.robots_needed))
        for pool, inst in zip(pools, instances)
    ]

    def rec(idx, acc):
        if idx == len(instances):
            yield dict(acc)
            return
        for team in combos[idx]:
            acc[instances[idx].instance_id] = frozenset(team)
            yield from rec(idx + 1, acc)
        acc.pop(instances[idx].instance_id, None)

    yield from rec(0, {})


def sampled_allocations(v: ValidatedProblem, instances: list[TaskInstance], n: int):
    """The allocations a request for ``n`` gets, picked from the full
    nested enumeration: all of it when it holds at most ``n``, else the
    ``n`` distinct positions that ``random.Random("allocation-sample")``
    draws by ``randrange``, in increasing order."""
    full = list(brute_force_allocations(v, instances))
    if len(full) <= n:
        return full
    rng = random.Random("allocation-sample")
    picked: set[int] = set()
    while len(picked) < n:
        picked.add(rng.randrange(len(full)))
    return [full[i] for i in sorted(picked)]


def min_completion(ctx: ClusterContext, i: int) -> int:
    """Lower bound on robot i's finishing clock (no waiting at all)."""
    return ctx.cum[i][-1]


def earliest_start_plan(ctx: ClusterContext) -> tuple[Plan, int] | None:
    """(plan, total idle) of the earliest-start schedule of the cluster's
    fixed per-robot orders, or None when it deadlocks, ends a step after
    the budget or passes a robot's idle cap.  Builds no model.

    A solo step waits for its awaited predecessors, then travels and
    executes (idle, travel, execute); a joint step's participants travel
    first and wait for the last arrival or predecessor (travel, idle,
    jointSync).
    """
    n = ctx.nrobots
    clock, pos, idle = [0] * n, [0] * n, [0] * n
    events: list[list[PlanEvent]] = [[] for _ in range(n)]
    finished: dict[str, int] = {}  # instance -> completion time

    def current(r):
        return ctx.steps[r][pos[r]] if pos[r] < len(ctx.steps[r]) else None

    def travel(r, t0, step):
        if step.travel_time:
            events[r].append(PlanEvent(
                "travel", t0, t0 + step.travel_time, None, step.hop_from, step.location
            ))

    def wait(r, t0, t1):
        if t1 > t0:
            events[r].append(PlanEvent("idle", t0, t1))
            idle[r] += t1 - t0

    progress = True
    while progress:
        progress = False
        for i in range(n):
            step = current(i)
            awaited = [ctx.tracked[t] for t in step.pred_tracked] if step else []
            if step is None or any(a not in finished for a in awaited):
                continue
            ready = max((finished[a] for a in awaited), default=0)
            if step.joint:
                members = [r for r in range(n)
                           if current(r) and current(r).instance == step.instance]
                if len(members) < len(step.participants):
                    continue
                arrive = {r: clock[r] + current(r).travel_time for r in members}
                start = max(ready, *arrive.values())
                end = start + step.duration
                for r in members:
                    travel(r, clock[r], current(r))
                    wait(r, arrive[r], start)
                    events[r].append(PlanEvent("jointSync", start, end, step.instance))
            else:
                members = [i]
                start = max(ready, clock[i])
                wait(i, clock[i], start)
                travel(i, start, step)
                begin = start + step.travel_time
                end = begin + step.duration
                events[i].append(PlanEvent("execute", begin, end, step.instance))
            if end > ctx.tt or any(idle[r] > ctx.idle_caps[r] for r in members):
                return None
            for r in members:
                clock[r] = end
                pos[r] += 1
            finished[step.instance] = end
            progress = True
    if any(current(r) for r in range(n)):
        return None
    plan = Plan({rid: tuple(events[r]) for r, rid in enumerate(ctx.robots)})
    return plan, sum(idle)


def dominates(a: Objectives, b: Objectives) -> bool:
    """Pareto dominance: no worse everywhere, strictly better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and a != b


def _constrained_dominates(a: EvalResult, b: EvalResult) -> bool:
    if a.feasible and not b.feasible:
        return True
    if not a.feasible:
        return False
    return dominates(a.objectives, b.objectives)


def pairwise_nondominated_sort(results: list[EvalResult]) -> list[list[int]]:
    """Deb's fast nondominated sort, comparing every ordered pair of
    members under constrained domination."""
    n = len(results)
    dominated: list[list[int]] = [[] for _ in range(n)]
    count = [0] * n
    fronts: list[list[int]] = [[]]
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if _constrained_dominates(results[p], results[q]):
                dominated[p].append(q)
            elif _constrained_dominates(results[q], results[p]):
                count[p] += 1
        if count[p] == 0:
            fronts[0].append(p)
    i = 0
    while fronts[i]:
        nxt = []
        for p in fronts[i]:
            for q in dominated[p]:
                count[q] -= 1
                if count[q] == 0:
                    nxt.append(q)
        i += 1
        fronts.append(nxt)
    fronts.pop()
    return fronts


def pairwise_front(feasible, plan_of) -> list[tuple]:
    """The nondominated (chromosome, result) pairs of a feasible list,
    comparing every member with every other, sorted by objectives, then
    chromosome, with the first of each plan kept; ``plan_of(chromosome)``
    gives a member's plan."""
    front = [
        (ch, res)
        for ch, res in feasible
        if not any(dominates(o.objectives, res.objectives) for _, o in feasible)
    ]
    front.sort(key=lambda e: (e[1].objectives, e[0]))
    seen = set()
    kept = []
    for ch, res in front:
        plan = plan_of(ch)
        key = tuple(sorted(plan.timelines.items()))
        if key not in seen:
            seen.add(key)
            kept.append((ch, res.objectives, plan))
    return kept


# -- permutation pools -----------------------------------------------------------


def reference_task_permutation(allocation, cluster, pairs, seed):
    """Seeded random topological order of each robot's instances, finding
    each robot's instances and their induced precedence afresh."""
    rng = random.Random(seed)
    per_robot = {}
    for robot in sorted(cluster.robots):
        own = [i for i in sorted(cluster.instances) if robot in allocation[i]]
        remaining = {t: set() for t in own}
        for start in own:
            stack = [p.after for p in pairs if p.before == start]
            seen = set()
            while stack:
                cur = stack.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                if cur in remaining:
                    remaining[cur].add(start)
                stack.extend(p.after for p in pairs if p.before == cur)
        order = []
        while remaining:
            ready = sorted(t for t, ps in remaining.items() if ps <= set(order))
            pick = ready[rng.randrange(len(ready))]
            order.append(pick)
            del remaining[pick]
        per_robot[robot] = tuple(order)
    return per_robot


def per_robot_precedence(allocation, cluster, pairs):
    """Each robot of the cluster, in sorted order, with the restriction of
    the whole precedence order to its instances: each instance, in sorted
    order, maps to the robot's instances that must come before it.  Each
    robot scans the cluster's sorted instances for its own, and each of
    them walks the precedence graph afresh."""
    succs: dict[str, set[str]] = {}
    for p in pairs:
        succs.setdefault(p.before, set()).add(p.after)
    ordered = sorted(cluster.instances)
    per_robot = []
    for robot in sorted(cluster.robots):
        own = [inst for inst in ordered if robot in allocation[inst]]
        preds = dict.fromkeys(own, frozenset())
        for start in own:
            stack = list(succs.get(start, ()))
            seen = set()
            while stack:
                cur = stack.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                if cur in preds:
                    preds[cur] = preds[cur] | {start}
                stack.extend(succs.get(cur, ()))
        per_robot.append((robot, preds))
    return per_robot


def precedence_draw_state(precedence):
    """:func:`kanoa.permutations.draw_state` as it was written before it
    was built straight from the allocation: converted from a
    :func:`per_robot_precedence`, which maps each robot's instances, in
    sorted order, to the robot's instances that must come before them."""
    state = []
    for robot, preds in precedence:
        waiting = {t: len(ps) for t, ps in preds.items() if ps}
        released: dict[str, list[str]] = {}
        for t, ps in preds.items():
            for p in ps:
                released.setdefault(p, []).append(t)
        ready = sorted(t for t in preds if t not in waiting)
        state.append((robot, len(preds), waiting, released, ready))
    return state


def resorted_task_permutation(precedence, seed):
    """:func:`kanoa.permutations.random_task_permutation` as it drew before
    keeping its ready list sorted: every step sorts every ready task
    afresh."""
    rng = random.Random(seed)
    per_robot = {}
    for robot, preds in precedence:
        remaining = dict(preds)
        order = []
        placed: set[str] = set()
        while remaining:
            ready = sorted(t for t, ps in remaining.items() if ps <= placed)
            pick = ready[rng.randrange(len(ready))]
            order.append(pick)
            placed.add(pick)
            del remaining[pick]
        per_robot[robot] = tuple(order)
    return per_robot


# -- two-pass solver ------------------------------------------------------------

_PROB_ONE = 1.0 - 1e-9


def reference_topological_order(mdp: Mdp) -> list[int] | None:
    """Kahn's algorithm over the transition graph; None when cyclic."""
    n = mdp.n_states
    indeg = [0] * n
    for choices in mdp.choices:
        for c in choices:
            for _, t in c.branches:
                indeg[t] += 1
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order = []
    while queue:
        s = queue.popleft()
        order.append(s)
        for c in mdp.choices[s]:
            for _, t in c.branches:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
    return order if len(order) == n else None


def reference_max_reach_probability(mdp: Mdp, label: str = "done") -> float:
    """Maximal probability, over all policies, of reaching a labeled state."""
    return _reference_max_reach_values(mdp, label, _reference_acyclic_order(mdp))[
        mdp.initial
    ]


def _reference_acyclic_order(mdp: Mdp) -> list[int]:
    order = reference_topological_order(mdp)
    if order is None:
        raise InvariantViolation(
            f"model with {mdp.n_states} states has a cycle; "
            "scheduling models must be acyclic"
        )
    return order


def _reference_max_reach_values(mdp, label, order):
    target = mdp.label_states(label)
    v = [0.0] * mdp.n_states
    for s in reversed(order):
        if s in target:
            v[s] = 1.0
        elif mdp.choices[s]:
            v[s] = max(sum(p * v[t] for p, t in c.branches) for c in mdp.choices[s])
    return v


def reference_min_expected_reward_policy(
    mdp: Mdp, reward: str, label: str = "done"
) -> tuple[float, list[int | None]]:
    """Minimum expected reward before reaching the label and its policy,
    over the policies that reach the label with probability 1."""
    order = _reference_acyclic_order(mdp)
    vmax = _reference_max_reach_values(mdp, label, order)
    if vmax[mdp.initial] < _PROB_ONE:
        raise UndefinedReward(
            f"label '{label}' is not almost-surely reachable "
            f"(max probability {vmax[mdp.initial]})"
        )
    target = mdp.label_states(label)
    sure = [v >= _PROB_ONE for v in vmax]

    policy: list[int | None] = [None] * mdp.n_states
    cost = [0.0] * mdp.n_states
    for s in reversed(order):
        if s in target or not sure[s]:
            continue
        best, best_i = None, None
        for i, c in enumerate(mdp.choices[s]):
            if not all(sure[t] for _, t in c.branches):
                continue
            val = getattr(c, REWARD_ATTRS[reward]) + sum(
                p * cost[t] for p, t in c.branches
            )
            if best is None or val < best - 1e-12:
                best, best_i = val, i
        if best_i is None:
            # surely reaching only through successors that are not: no
            # cost is defined here, so predecessors must avoid this state
            sure[s] = False
            continue
        cost[s] = best
        policy[s] = best_i
    if not sure[mdp.initial]:
        raise UndefinedReward(
            f"no policy reaches label '{label}' surely "
            f"(max probability {vmax[mdp.initial]})"
        )
    return cost[mdp.initial], policy


# -- cyclic compound definitions -------------------------------------------------


def reference_find_cycles(compound_by_id) -> list[str]:
    """Ids of the compound tasks that reach themselves, sorted: a plain
    reachability search from each compound's subtasks."""
    cyclic = []
    for cid in compound_by_id:
        seen = set()
        frontier = list(compound_by_id[cid].subtasks)
        while frontier:
            sub = frontier.pop()
            if sub in seen or sub not in compound_by_id:
                continue
            seen.add(sub)
            frontier.extend(compound_by_id[sub].subtasks)
        if cid in seen:
            cyclic.append(cid)
    return sorted(cyclic)


# -- the search's hot path, as first written --------------------------------------


def general_earliest_start(
    facts: ClusterFacts, permutation: dict[str, tuple[str, ...]], hops: Hops
) -> tuple[int, int] | tuple[None, None]:
    """:func:`kanoa.scheduling.earliest_start` with no one-robot branch:
    every cluster, one robot or many, runs the general loop."""
    tt, caps, robots, index = facts.tt, facts.idle_caps, facts.robots, facts.robot_index
    orders = [permutation[r] for r in robots]
    n = len(robots)
    clock, idle, pos, here = [0] * n, [0] * n, [0] * n, list(facts.starts)
    travel = 0
    done: dict[int, int] = {}  # tracked index -> completion time
    progress = True
    while progress:
        progress = False
        for i, order in enumerate(orders):
            while pos[i] < len(order):
                inst_id = order[pos[i]]
                pred_tracked, tracked_idx, team, duration = facts.instances[inst_id]
                ready = 0
                if pred_tracked:
                    if any(t not in done for t in pred_tracked):
                        break
                    ready = max(done[t] for t in pred_tracked)
                if duration is None:
                    location, dist, travel_time, own = hops[robots[i], here[i], inst_id][:4]
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


def reference_key_fronts(vectors) -> list[list[Objectives]]:
    """:func:`kanoa.optimizer._key_fronts`, each front scanned by ``any``
    over a generator."""
    fronts: list[list[Objectives]] = []
    for b in sorted(vectors):
        _, b1, b2 = b
        for front in fronts:
            if not any(a1 <= b1 and a2 <= b2 for _, a1, a2 in reversed(front)):
                front.append(b)
                break
        else:
            fronts.append([b])
    return fronts


def reference_nondominated_sort(results: list[EvalResult]) -> list[list[int]]:
    """:func:`kanoa.optimizer.fast_nondominated_sort` over
    :func:`reference_key_fronts`, with each front's release order found by
    sorting the previous front's last positions afresh and searching them
    with ``next`` over a generator."""
    members: dict[Objectives | None, list[int]] = {}
    for i, r in enumerate(results):
        members.setdefault(r.objectives if r.feasible else None, []).append(i)
    infeasible = members.pop(None, [])
    fronts: list[list[int]] = []
    last: dict[Objectives, int] = {}  # vector -> last position in the previous front
    for keys in reference_key_fronts(members):
        latest = sorted(last.items(), key=lambda e: -e[1])
        released = []
        for b in keys:
            at = next((pos for a, pos in latest
                       if a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]), 0)
            released += [(at, i) for i in members[b]]
        front = [i for _, i in sorted(released)]
        last = {results[i].objectives: pos for pos, i in enumerate(front)}
        fronts.append(front)
    if infeasible:
        fronts.append(infeasible)
    return fronts


def reference_crowding_distance(front: list[int], results: list[EvalResult]) -> dict[int, float]:
    """:func:`kanoa.optimizer.crowding_distance`, sorting the front's
    members by each objective read through ``results``."""
    dist = {i: 0.0 for i in front}
    scored = [i for i in front if results[i].feasible]
    if len(scored) < 3:
        for i in scored:
            dist[i] = float("inf")
        return dist
    for m in range(3):
        ordered = sorted(scored, key=lambda i: results[i].objectives[m])
        lo = results[ordered[0]].objectives[m]
        hi = results[ordered[-1]].objectives[m]
        dist[ordered[0]] = dist[ordered[-1]] = float("inf")
        if hi == lo:
            continue
        for k in range(1, len(ordered) - 1):
            prev = results[ordered[k - 1]].objectives[m]
            nxt = results[ordered[k + 1]].objectives[m]
            dist[ordered[k]] += (nxt - prev) / (hi - lo)
    return dist


def general_cluster_facts(
    v: ValidatedProblem, allocation: dict[str, frozenset[str]], cluster: RobotCluster,
    pairs, instances: dict[str, TaskInstance],
) -> ClusterFacts:
    """:class:`kanoa.scheduling.ClusterFacts` as its constructor builds them for
    a cluster of any size: tracked instances from a scan of the pairs, and
    each instance's participants and joint duration looked up."""
    facts = ClusterFacts.__new__(ClusterFacts)
    facts.tt = tt = v.time_available
    facts.robots = tuple(sorted(cluster.robots))
    facts.starts = tuple(v.robot(r).initial_loc for r in facts.robots)
    facts.robot_index = {r: i for i, r in enumerate(facts.robots)}
    facts.idle_caps = [tt if (cap := v.max_idle(r)) is None else cap for r in facts.robots]
    facts.p_success = success_probability(v, allocation, cluster, instances)
    in_cluster = cluster.instances
    team = {i: allocation[i] for i in in_cluster}
    tracked: list[str] = []
    for p in pairs:
        if p.before in in_cluster and p.after in in_cluster:
            if not (team[p.after] <= team[p.before]):
                if p.before not in tracked:
                    tracked.append(p.before)
    tracked.sort()
    facts.tracked = tuple(tracked)
    tr_index = {inst: i for i, inst in enumerate(tracked)}
    preds: dict[str, set[str]] = {}
    for p in pairs:
        if p.before in tr_index and p.after in in_cluster:
            preds.setdefault(p.after, set()).add(p.before)
    facts.instances = {}
    for inst_id in in_cluster:
        inst = instances[inst_id]
        participants = tuple(sorted(team[inst_id]))
        duration = None
        if inst.robots_needed >= 2:
            duration = max(
                v.robot(r).capability_for(inst.type_id).required_time for r in participants
            )
        facts.instances[inst_id] = (
            tuple(sorted(tr_index[x] for x in preds.get(inst_id, ()))),
            tr_index.get(inst_id, -1),
            participants,
            duration,
        )
    return facts


def travel_time(v: ValidatedProblem, robot, a: str, b: str) -> int:
    """Ceiling of the distance from ``a`` to ``b`` over the robot's
    velocity, in whole time units."""
    d = v.distance(a, b)
    if d == 0:
        return 0
    speed = robot.velocity
    return -((-d * speed.denominator) // speed.numerator)


def cold_hop(v: ValidatedProblem, instances, rid: str, here: str, inst_id: str) -> tuple:
    """One :class:`kanoa.scheduling.Hops` entry from the problem's own distance
    and travel time and the robot's capability."""
    robot, inst = v.robot(rid), instances[inst_id]
    cap = robot.capability_for(inst.type_id)
    return (
        inst.location, v.distance(here, inst.location),
        travel_time(v, robot, here, inst.location), cap.required_time, cap.success_prob,
    )


def chain_travel(
    order: dict[str, tuple[str, ...]], v: ValidatedProblem, instances: dict[str, TaskInstance],
) -> int:
    """The summed distance of every robot's walk from its initial location
    through its ordered task locations."""
    total = 0
    for rid, seq in order.items():
        here = v.robot(rid).initial_loc
        for inst_id in seq:
            there = instances[inst_id].location
            total += v.distance(here, there)
            here = there
    return total


# -- artifacts through the json and csv modules ---------------------------------


def event_document(ev: PlanEvent) -> dict:
    d = {"kind": ev.kind, "start": ev.start, "end": ev.end}
    if ev.instance is not None:
        d["instance"] = ev.instance
    if ev.frm is not None:
        d["from"] = ev.frm
    if ev.to is not None:
        d["to"] = ev.to
    return d


def plan_document(entry) -> dict:
    """What plan_<k>.json holds for a front entry."""
    o = entry.objectives
    return {
        "allocation": entry.chromosome.alloc_idx,
        "permutation": entry.chromosome.perm_idx,
        "objectives": {"probability_of_failure": o.p_fail, "idling": o.idle, "travel": o.travel},
        "timelines": {
            robot: [event_document(ev) for ev in tl]
            for robot, tl in sorted(entry.plan.timelines.items())
        },
    }


def pareto_document(front) -> dict:
    """What pareto.json holds for a front."""
    return {"entries": [
        {
            "allocation": e.chromosome.alloc_idx,
            "permutation": e.chromosome.perm_idx,
            "probability_of_failure": e.objectives.p_fail,
            "idling": e.objectives.idle,
            "travel": e.objectives.travel,
        }
        for e in front.entries
    ]}


def encode(doc) -> str:
    """The bytes kanoa's JSON artifacts must have."""
    return json.dumps(doc, indent=2) + "\n"


def pareto_table(front) -> str:
    """pareto.csv through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Allocation", "Permutation", "Probability of failure", "Idling", "Travel"])
    for e in front.entries:
        writer.writerow([e.chromosome.alloc_idx, e.chromosome.perm_idx,
                         repr(e.objectives.p_fail), e.objectives.idle, e.objectives.travel])
    return buf.getvalue()
