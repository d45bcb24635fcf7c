"""Explicit-state MDP for scheduling one robot cluster.

A state holds three slots per robot, ``(pos, phase, clock)``: the position
in its task order, the phase of the step at that position (before, arrived,
failed) and its clock; then one global has-ever-failed bit and the recorded
completion times of instances that later tasks on other robots must wait
for.  ``arrived`` marks a joint step's participant that has travelled to
the task; ``failed`` marks a step whose execution failed and awaits
recovery.  A robot's idle time so far is derived from its clock where the
idle cap is checked: the clock minus the travel and execution its finished
steps (and an arrived robot's hop) take.

Transitions follow the scheduling semantics:

* a task action travels to the task location and executes it in one step,
  succeeding with the robot's capability probability and otherwise failing
  while consuming the same duration;
* a recovery action (probability 1) clears the failure and moves on to the
  next task at no time cost;
* joint tasks split into a solo travel action and a synchronized action
  that fires only when every participant has arrived with equal clocks;
* an idle action advances the robot's clock to the time it is waiting
  for: a joint partner's clock or an awaited predecessor's completion.

Idling is offered only in states where it can matter, and a forced wait is
taken in one multi-unit step (the waiting target never moves, so nothing
is lost by not stopping part-way).  Any schedule of the one-unit-at-a-time
unrestricted model maps to one here with identical feasibility, travel,
idle and success values, so reachability, minimum idle and the success
probability are preserved while the state space stays tractable.

Rewards: ``travel`` carries the hop distance of task/travel actions,
``idle`` carries the waited duration of idle actions.  ``done`` labels
states where every robot finished; ``success`` additionally requires that
no failure ever occurred.

The failure-lumped quotient of this model keeps only the success outcome
of every task and synchronized action, with probability 1, so no robot
enters the failed phase, the failure bit is never set and no recovery
action exists.  A failed task takes as long as a successful one and
recovery takes no time, so a failure outcome and the success outcome lead
to states with the same robot clocks, the same ``done`` states ahead and
the same idle rewards: the two are probabilistically bisimilar for the
``done`` reachability query and the minimum-idle query (Larsen & Skou
1991; Baier & Katoen, *Principles of Model Checking*, ch. 10).  The
lumped states are exactly the full model's states with no failed phase
and no failure bit, with the same choices in the same order, so both
models give the same reach and idle values and the same minimum-idle
policy.  The lumped model carries only the ``done`` label: its success
probability would be 1, so it has no ``success`` query.

The lumped model is also confluent, so it reduces to a chain.  In a
lumped state each robot offers at most one action (a task, a travel or an
idle), plus one sync per ready joint instance.  No action disables
another: a wait target, once defined, never moves, and each tracked
completion time is written once.  Actions of different robots, and syncs
of different instances, write disjoint slots, so any two enabled actions
commute with the same rewards.  Every maximal path therefore ends in the
same terminal state, and on every path each robot takes the same actions
at the same clocks, with the same idle total.  Following only the first
action of each state thus gives the reach value, the minimum idle and the
plan of the whole lumped model: an exact confluence reduction (Groote &
Sellink 1996, *Confluence for process verification*; Timmer, Stoelinga &
van de Pol 2011, *Confluence reduction for probabilistic systems*).  With
``failures=False``, :func:`build_mdp` builds that chain, the search's
model: it asks each state for its first action only, so the other
actions are never built.  Each task step of a robot takes one task or travel action and at
most one idle, and each joint instance one sync, so the chain has at most
1 + 2 * (task steps) + (joint instances) states.

:func:`earliest_start_feasible` answers the ``done`` reachability query in
closed form, without building the model.
"""

from __future__ import annotations

from .clustering import RobotCluster
from .errors import InvariantViolation, StateExplosion
from .problem import ValidatedProblem
from .taskgraph import PrecedencePair, TaskInstance

# The cap bounds every model build_mdp makes, but only the full model that
# --dump-mdp writes comes near it: the search's chain grows linearly with
# the task steps.  Built and solved, the largest full model over the
# bundled hospital mission at the default config, GA seeds 0-3, costs
# (tracemalloc peak) about 1.5 KB per state (8,570 states, five robots).
# At this cap a full model needs about 1.2 GB, so the cap trips with a
# StateExplosion before an ordinary machine runs out of memory.  The cap
# counts states of a model no wider than the bundled fixtures' widest
# (_CAP_WIDTH); a wider model may hold proportionally fewer states (see
# build_mdp).
DEFAULT_STATE_CAP = 800_000

# What a model holds per state, per state slot and per choice, in bytes:
# fitted within 3% to the tracemalloc peak of models of 10 to 80 robots
# (one joint task for all of them) stopped at 5,000 and 20,000 states.
_STATE_BYTES, _SLOT_BYTES, _CHOICE_BYTES = 76, 8, 271
# A state of R robots and T tracked instances has 3R+1+T slots and up to
# about R choices.  The widest model of the bundled fixtures, GA seeds 0-3,
# has five robots and 20 slots.
_CAP_WIDTH = _STATE_BYTES + _SLOT_BYTES * 20 + _CHOICE_BYTES * 5

_SLOTS = 3  # pos, phase, clock
BEFORE, ARRIVED, FAILED = 0, 1, 2  # phases of the step at pos

# reward name -> the Choice attribute that carries it
REWARD_ATTRS = {"travel": "travel_reward", "idle": "idle_reward"}


class Choice:
    """One action available in a state: a distribution plus rewards.

    ``kind``, ``robot`` and ``step`` say what the action means in schedule
    terms and drive plan extraction.  ``kind`` is one of "task", "travel",
    "sync", "idle" and "recover"; ``step`` is the schedule step the action
    works on (an idle action's is the step it waits to start); ``robot`` is
    None for a synchronized joint action, whose actors are the step's
    participants.  A stochastic action's success outcome is always its
    first branch.  An action carries no name: the ``--dump-mdp`` text
    (:mod:`kanoa.mdp_export`) names it from its kind, robot and step.
    """

    __slots__ = ("branches", "travel_reward", "idle_reward", "kind", "robot", "step")

    def __init__(
        self, branches, travel_reward=0, idle_reward=0, kind=None, robot=None, step=None
    ):
        total = sum(p for p, _ in branches)
        if abs(total - 1.0) > 1e-12:
            raise InvariantViolation(f"distribution sums to {total}, not 1")
        self.branches = tuple(branches)
        self.travel_reward = travel_reward
        self.idle_reward = idle_reward
        self.kind = kind
        self.robot = robot
        self.step = step


class Mdp:
    """Explicit model: indexed states, per-state action choices, labels."""

    def __init__(self, states, choices, labels, initial=0, context=None):
        self.states = states
        self.choices = choices
        self.labels = {name: frozenset(ids) for name, ids in labels.items()}
        self.initial = initial
        self.context = context

    @property
    def n_states(self) -> int:
        return len(self.states)

    def label_states(self, name: str) -> frozenset:
        return self.labels.get(name, frozenset())


class _Step:
    """One task of a robot's fixed order: where, how long, and what it awaits."""

    __slots__ = (
        "instance", "location", "hop_from", "hop_dist", "travel_time", "duration",
        "success_prob", "joint", "participants", "pred_tracked", "tracked_idx",
    )

    def __init__(
        self, instance, location, hop_from, hop_dist, travel_time, duration,
        success_prob, joint, participants, pred_tracked, tracked_idx,
    ):
        self.instance = instance
        self.location = location
        self.hop_from = hop_from
        self.hop_dist = hop_dist
        self.travel_time = travel_time
        self.duration = duration
        self.success_prob = success_prob
        self.joint = joint
        self.participants = participants
        self.pred_tracked = pred_tracked
        self.tracked_idx = tracked_idx


class ClusterContext:
    """Static data shared by every state of one cluster model: the cluster's
    robots, their fixed task orders under ``permutation``, and the time
    budget ``tt``, which is the mission's ``time`` constraint."""

    def __init__(
        self, v: ValidatedProblem, allocation: dict[str, frozenset[str]],
        cluster: RobotCluster, permutation: dict[str, tuple[str, ...]],
        pairs: list[PrecedencePair], instances: dict[str, TaskInstance],
    ):
        self.tt = tt = v.time_available
        self.robots = tuple(sorted(cluster.robots))
        self.robot_index = {r: i for i, r in enumerate(self.robots)}
        self.idle_caps = [
            v.max_idle(r) if v.max_idle(r) is not None else tt for r in self.robots
        ]

        in_cluster = cluster.instances
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

        self.steps: list[list[_Step]] = []
        self.cum: list[list[int]] = []
        for rid in self.robots:
            robot = v.robot(rid)
            here = robot.initial_loc
            row: list[_Step] = []
            cum = [0]
            for inst_id in permutation[rid]:
                inst: TaskInstance = instances[inst_id]
                participants = tuple(sorted(team[inst_id]))
                joint = inst.robots_needed >= 2
                if joint:
                    duration = max(
                        v.robot(r).capability_for(inst.type_id).required_time
                        for r in participants
                    )
                else:
                    duration = robot.capability_for(inst.type_id).required_time
                dist = v.distance(here, inst.location)
                row.append(
                    _Step(
                        instance=inst_id,
                        location=inst.location,
                        hop_from=here,
                        hop_dist=dist,
                        travel_time=v.travel_time(robot, here, inst.location),
                        duration=duration,
                        success_prob=robot.capability_for(inst.type_id).success_prob,
                        joint=joint,
                        participants=participants,
                        pred_tracked=tuple(
                            sorted(tr_index[x] for x in preds.get(inst_id, ()))
                        ),
                        tracked_idx=tr_index.get(inst_id, -1),
                    )
                )
                cum.append(cum[-1] + row[-1].travel_time + duration)
                here = inst.location
            self.steps.append(row)
            self.cum.append(cum)

        # joint instances: participant -> (robot index, step position)
        self.joint_positions: dict[str, list[tuple[int, int]]] = {}
        for ri, row in enumerate(self.steps):
            for k, step in enumerate(row):
                if step.joint:
                    self.joint_positions.setdefault(step.instance, []).append((ri, k))

        self.nrobots = len(self.robots)
        self.fail_slot = _SLOTS * self.nrobots  # global any-failure bit
        self.dt_base = self.fail_slot + 1

    # -- state helpers ----------------------------------------------------

    def initial_state(self) -> tuple:
        return (0,) * (_SLOTS * self.nrobots + 1 + len(self.tracked))

    def robot_time(self, state: tuple, i: int) -> int:
        return state[_SLOTS * i + 2]

    def is_done(self, state: tuple) -> bool:
        return all(
            state[_SLOTS * i] == len(self.steps[i]) for i in range(self.nrobots)
        )

    def ever_failed(self, state: tuple) -> bool:
        return bool(state[self.fail_slot])

    def done_time(self, state: tuple, tracked_idx: int) -> int | None:
        raw = state[self.dt_base + tracked_idx]
        return raw - 1 if raw else None


def _with_robot(state, i, pos, phase, clock):
    base = _SLOTS * i
    return state[:base] + (pos, phase, clock) + state[base + _SLOTS :]


def _with_flag(state, slot, value):
    if state[slot] == value:
        return state
    return state[:slot] + (value,) + state[slot + 1 :]


def _with_done_time(ctx, state, tracked_idx, time):
    slot = ctx.dt_base + tracked_idx
    return state[:slot] + (time + 1,) + state[slot + 1 :]


def _pred_target(ctx, state, step, target=0):
    """Largest of ``target`` and the step's recorded predecessor
    completion times, or None while a predecessor is unfinished."""
    for t in step.pred_tracked:
        dt = ctx.done_time(state, t)
        if dt is None:
            return None
        target = max(target, dt)
    return target


def _sync_status(ctx, state, instance):
    """(ready, common_time, target) for one joint instance.

    ready means every participant has arrived, none failed, and clocks are
    equal at or past every awaited predecessor completion; target is the
    clock everyone must reach before the shared action can fire, or None
    while some participant has not arrived or a predecessor is unfinished.
    """
    times = []
    for ri, k in ctx.joint_positions[instance]:
        pos, phase, clock = state[_SLOTS * ri : _SLOTS * ri + _SLOTS]
        if pos != k or phase != ARRIVED:
            return False, None, None
        times.append(clock)
    target = _pred_target(ctx, state, ctx.steps[ri][k], max(times))
    if target is None:
        return False, None, None
    common = times[0]
    ready = all(t == common for t in times) and common >= target
    return ready, common, target


def _enumerate_choices(ctx: ClusterContext, state: tuple, failures: bool):
    """Yield every action of ``state``, each robot's in robot order, then
    the syncs; without ``failures``, each stochastic action keeps only its
    success outcome, with probability 1."""
    tt = ctx.tt
    # joint instance -> _sync_status, computed for its first arrived participant
    statuses: dict[str, tuple] = {}

    for i in range(ctx.nrobots):
        pos, phase, clock = state[_SLOTS * i : _SLOTS * i + _SLOTS]
        row = ctx.steps[i]
        if pos >= len(row):
            continue
        rid = ctx.robots[i]
        step = row[pos]

        if phase == FAILED:  # the clock already stands at the step's end
            succ = _with_robot(state, i, pos + 1, BEFORE, clock)
            if step.tracked_idx >= 0:
                succ = _with_done_time(ctx, succ, step.tracked_idx, clock)
            yield Choice(((1.0, succ),), kind="recover", robot=rid, step=step)
            continue

        # the clock this robot must wait for before it can act, if any
        target = None
        if step.joint:
            if phase == ARRIVED:
                status = statuses.get(step.instance)
                if status is None:
                    status = _sync_status(ctx, state, step.instance)
                    statuses[step.instance] = status
                target = status[2]
            elif clock + step.travel_time <= tt:
                succ = _with_robot(state, i, pos, ARRIVED, clock + step.travel_time)
                yield Choice(
                    ((1.0, succ),), travel_reward=step.hop_dist,
                    kind="travel", robot=rid, step=step,
                )
        else:
            target = _pred_target(ctx, state, step)
            done_t = clock + step.travel_time + step.duration
            if target is not None and target <= clock and done_t <= tt:
                ok = _with_robot(state, i, pos + 1, BEFORE, done_t)
                if step.tracked_idx >= 0:
                    ok = _with_done_time(ctx, ok, step.tracked_idx, done_t)
                q = step.success_prob
                if q >= 1.0 or not failures:
                    branches = ((1.0, ok),)
                else:
                    bad = _with_flag(
                        _with_robot(state, i, pos, FAILED, done_t), ctx.fail_slot, 1
                    )
                    branches = ((q, ok), (1.0 - q, bad))
                yield Choice(
                    branches, travel_reward=step.hop_dist,
                    kind="task", robot=rid, step=step,
                )

        # wait: only while catching up to a joint partner or a predecessor,
        # and then in one jump (the waiting target cannot move).  The
        # robot's total wait once there is its target minus the travel and
        # execution of its finished steps, and of the hop once arrived.
        if target is not None and clock < target <= tt:
            waited = target - ctx.cum[i][pos]
            if phase == ARRIVED:
                waited -= step.travel_time
            if waited <= ctx.idle_caps[i]:
                succ = _with_robot(state, i, pos, phase, target)
                yield Choice(
                    ((1.0, succ),), idle_reward=target - clock,
                    kind="idle", robot=rid, step=step,
                )

    # synchronized joint actions, one per ready instance; every participant
    # of a ready instance has arrived and not failed, so it has a status
    for instance in sorted(statuses):
        ready, common, _ = statuses[instance]
        if not ready:
            continue
        members = ctx.joint_positions[instance]
        step0 = ctx.steps[members[0][0]][members[0][1]]
        if common + step0.duration > tt:
            continue
        done_t = common + step0.duration
        ok = state
        prob = 1.0
        for ri, k in members:
            ok = _with_robot(ok, ri, k + 1, BEFORE, done_t)
            prob *= ctx.steps[ri][k].success_prob
        if step0.tracked_idx >= 0:
            ok = _with_done_time(ctx, ok, step0.tracked_idx, done_t)
        if prob >= 1.0 or not failures:
            branches = ((1.0, ok),)
        else:
            bad = state
            for ri, k in members:
                bad = _with_robot(bad, ri, k, FAILED, done_t)
            bad = _with_flag(bad, ctx.fail_slot, 1)
            branches = ((prob, ok), (1.0 - prob, bad))
        yield Choice(branches, kind="sync", step=step0)


def earliest_start_feasible(ctx: ClusterContext) -> bool:
    """Whether the cluster's model reaches ``done``, without building it.

    Exact under two preconditions of the model above: a task takes the
    same time whether it succeeds or fails (outcome-independent
    durations), and recovery takes no time (zero-time recovery).  Then no
    robot clock depends on an outcome, the maximal reach probability is 0
    or 1, and the model reaches ``done`` exactly when the earliest-start
    schedule of the fixed per-robot orders completes (critical-path
    scheduling over a simple temporal network).  Timing follows
    :func:`_enumerate_choices`: a solo step departs at the later of its
    robot's clock and its tracked predecessors' completions; a joint step's
    participants travel first and the shared execution starts at the
    latest arrival or tracked-predecessor completion.  The schedule fails
    when it deadlocks, when a step ends after the budget, or when a
    robot's total wait exceeds its idle cap.  Retries, or durations that
    depend on the outcome, would make this check inexact.
    """
    tt = ctx.tt
    clock = [0] * ctx.nrobots
    idle = [0] * ctx.nrobots
    pos = [0] * ctx.nrobots
    done: dict[int, int] = {}  # tracked index -> completion time
    progress = True
    while progress:
        progress = False
        for i, row in enumerate(ctx.steps):
            if pos[i] == len(row):
                continue
            step = row[pos[i]]
            if any(t not in done for t in step.pred_tracked):
                continue
            ready = max((done[t] for t in step.pred_tracked), default=0)
            if step.joint:
                members = ctx.joint_positions[step.instance]
                if any(pos[r] != k for r, k in members):
                    continue
                arrive = [clock[r] + ctx.steps[r][k].travel_time for r, k in members]
                start = max(ready, *arrive)
                end = start + step.duration
                waits = [(r, start - a) for (r, _), a in zip(members, arrive)]
            else:
                members = [(i, pos[i])]
                start = max(ready, clock[i])
                end = start + step.travel_time + step.duration
                waits = [(i, start - clock[i])]
            if end > tt:
                return False
            for r, wait in waits:
                idle[r] += wait
                if idle[r] > ctx.idle_caps[r]:
                    return False
            for r, _ in members:
                clock[r] = end
                pos[r] += 1
            if step.tracked_idx >= 0:
                done[step.tracked_idx] = end
            progress = True
    return all(p == len(row) for p, row in zip(pos, ctx.steps))


def build_mdp(
    ctx: ClusterContext, state_cap: int = DEFAULT_STATE_CAP, *, failures: bool = True
) -> Mdp:
    """Forward-reachable model of one cluster context, that is one
    (allocation, cluster, permutation) under a time budget.

    With ``failures`` (the default) this is the full model, with failure
    outcomes, recovery and the ``success`` label; without, it is the chain
    of the failure-lumped model described in the module docstring: one
    action per state, the first the lumped state offers, labeled ``done``
    only.  The chain asks each state for its first action only and never
    builds the others.  Raises :class:`StateExplosion` when more than
    ``state_cap`` states are discovered, or, in a model wider than
    ``_CAP_WIDTH``, more than ``state_cap`` states of that width would
    hold in memory.
    """
    init = ctx.initial_state()
    width = _STATE_BYTES + _SLOT_BYTES * len(init) + _CHOICE_BYTES * ctx.nrobots
    limit = min(state_cap, max(1, state_cap * _CAP_WIDTH // width))
    index: dict[tuple, int] = {init: 0}
    states: list[tuple] = [init]
    raw_choices: list[list[Choice]] = []

    for state in states:  # breadth-first: the loop reads what it appends
        choices = []
        for choice in _enumerate_choices(ctx, state, failures):
            branches = []
            for prob, succ in choice.branches:
                tid = index.get(succ)
                if tid is None:
                    tid = len(states)
                    if tid >= limit:
                        raise StateExplosion(
                            f"state cap {state_cap} exceeded for cluster of "
                            f"{ctx.nrobots} robots",
                            cluster_size=ctx.nrobots,
                            state_count=tid + 1,
                        )
                    index[succ] = tid
                    states.append(succ)
                branches.append((prob, tid))
            choice.branches = tuple(branches)
            choices.append(choice)
            if not failures:
                break  # confluent: the first action stands for all
        raw_choices.append(choices)

    done_ids = [i for i, s in enumerate(states) if ctx.is_done(s)]
    labels = {"done": done_ids}
    if failures:
        labels["success"] = [i for i in done_ids if not ctx.ever_failed(states[i])]
    return Mdp(
        states=states,
        choices=raw_choices,
        labels=labels,
        initial=0,
        context=ctx,
    )
