"""Timed per-robot schedules extracted from a solved model."""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation
from .mdp import Mdp
from .taskgraph import PrecedencePair


class PlanEvent(NamedTuple):
    kind: str  # "travel" | "execute" | "idle" | "jointSync"
    start: int
    end: int
    instance: str | None = None
    frm: str | None = None
    to: str | None = None


class Plan(NamedTuple):
    timelines: dict[str, tuple[PlanEvent, ...]]

    @property
    def makespan(self) -> int:
        ends = [ev.end for tl in self.timelines.values() for ev in tl]
        return max(ends) if ends else 0


def extract_plan(mdp: Mdp, policy: list[int | None]) -> Plan:
    """Walk the policy's success branch from the initial state.

    Requires a model built by :func:`kanoa.mdp.build_mdp` (it carries the
    scheduling context).  Every stochastic action is followed through its
    success outcome, which is where the synthesized schedule lives.  The
    model takes each wait in one step, and every task ends in an execution
    or a synchronized action, so a robot's idle events never abut.
    """
    ctx = mdp.context
    if ctx is None:
        raise InvariantViolation("plan extraction needs a scheduling model")
    events: dict[str, list[PlanEvent]] = {r: [] for r in ctx.robots}
    done = mdp.label_states("done")

    s = mdp.initial
    while s not in done:
        action_idx = policy[s]
        if action_idx is None:
            raise InvariantViolation("policy undefined before reaching the target")
        choice = mdp.choices[s][action_idx]
        kind, robot, step = choice.kind, choice.robot, choice.step
        if kind == "sync":
            t0 = ctx.robot_time(mdp.states[s], ctx.robot_index[step.participants[0]])
            for r in step.participants:
                events[r].append(
                    PlanEvent("jointSync", t0, t0 + step.duration, step.instance)
                )
        elif kind != "recover":
            t0 = ctx.robot_time(mdp.states[s], ctx.robot_index[robot])
            if kind == "idle":
                events[robot].append(PlanEvent("idle", t0, t0 + choice.idle_reward))
            elif step.travel_time > 0:  # task and travel both make the hop
                events[robot].append(PlanEvent(
                    "travel", t0, t0 + step.travel_time, None, step.hop_from,
                    step.location,
                ))
            if kind == "task":
                start = t0 + step.travel_time
                events[robot].append(
                    PlanEvent("execute", start, start + step.duration, step.instance)
                )
        s = choice.branches[0][1]

    return Plan({r: tuple(evs) for r, evs in events.items()})


def check_plan(
    plan: Plan,
    pairs: list[PrecedencePair],
    time_available: int,
    idle_caps: dict[str, int],
) -> list[str]:
    """All invariant violations of a plan (empty list when it is sound).

    Checks per-robot contiguity, joint start alignment, precedence between
    instance completions and starts, the mission time budget, and the idle
    budgets of the robots named in ``idle_caps``.
    """
    problems = []
    exec_window: dict[str, tuple[int, int]] = {}
    joint_starts: dict[str, set[tuple[int, int]]] = {}

    for robot, timeline in sorted(plan.timelines.items()):
        clock = 0
        for ev in timeline:
            if ev.start != clock:
                problems.append(
                    f"{robot}: event {ev.kind} starts at {ev.start}, expected {clock}"
                )
            if ev.end < ev.start:
                problems.append(f"{robot}: event {ev.kind} ends before it starts")
            clock = ev.end
            if ev.kind in ("execute", "jointSync"):
                window = (ev.start, ev.end)
                if ev.kind == "jointSync":
                    joint_starts.setdefault(ev.instance, set()).add(window)
                prev = exec_window.get(ev.instance)
                if prev is not None and prev != window:
                    problems.append(
                        f"instance {ev.instance} executed over differing windows"
                    )
                exec_window[ev.instance] = window
        if clock > time_available:
            problems.append(f"{robot}: timeline ends at {clock} > budget {time_available}")
        if robot in idle_caps:
            idle_total = sum(
                ev.end - ev.start for ev in timeline if ev.kind == "idle"
            )
            if idle_total > idle_caps[robot]:
                problems.append(
                    f"{robot}: idle {idle_total} exceeds budget {idle_caps[robot]}"
                )

    for instance, windows in joint_starts.items():
        if len(windows) > 1:
            problems.append(f"joint instance {instance} is not synchronized")

    for p in pairs:
        if p.before in exec_window and p.after in exec_window:
            if exec_window[p.before][1] > exec_window[p.after][0]:
                problems.append(
                    f"precedence violated: {p.before} ends at "
                    f"{exec_window[p.before][1]}, {p.after} starts at "
                    f"{exec_window[p.after][0]}"
                )
    return problems
