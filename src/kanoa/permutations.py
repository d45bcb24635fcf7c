"""Per-robot task orders, drawn at random within the precedence constraints.

A permutation maps each robot to its ordered tuple of instance ids; a
joint instance appears in every participant's order.  Each robot's order
respects the restriction of the whole precedence order to its own
instances: :func:`draw_state` builds that restriction from an allocation
in one pass, once per allocation, and :func:`random_task_permutation`
draws from it.
"""

from __future__ import annotations

import random
from bisect import insort

from .taskgraph import PrecedencePair


def draw_state(
    allocation: dict[str, frozenset[str]], pairs: list[PrecedencePair]
) -> list[tuple]:
    """What every draw for ``allocation`` starts from, per robot in sorted
    order: its task count, the number of its own tasks that precede each
    task that has any, the tasks that wait on each task, and the sorted
    first ready list.  Built once, it serves any number of draws; the
    state of one cluster is that of the allocation restricted to the
    cluster's instances.

    Precedence follows reachability through instances on other robots, so
    that e.g. x -> y -> z with only x and z on this robot still forces x
    before z: each instance with a successor walks the precedence graph
    once, and on each robot of its team releases that robot's own reached
    tasks, in sorted order.
    """
    succs: dict[str, list[str]] = {}
    for p in pairs:
        succs.setdefault(p.before, []).append(p.after)
    own: dict[str, list[str]] = {}  # each robot's instances, sorted
    for inst in sorted(allocation):
        for robot in allocation[inst]:
            own.setdefault(robot, []).append(inst)
    waiting: dict[str, dict[str, int]] = {robot: {} for robot in own}
    released: dict[str, dict[str, list[str]]] = {robot: {} for robot in own}
    for start in succs:
        if start in allocation:
            reached = _reachable(start, succs)
            for robot in allocation[start]:
                mine = [t for t in own[robot] if t in reached]
                if mine:
                    released[robot][start] = mine
                    counts = waiting[robot]
                    for t in mine:
                        counts[t] = counts.get(t, 0) + 1
    state = []
    for robot in sorted(own):
        mine, counts = own[robot], waiting[robot]
        ready = [t for t in mine if t not in counts]
        state.append((robot, len(mine), counts, released[robot], ready))
    return state


def _reachable(start: str, succs: dict[str, list[str]]) -> set[str]:
    """Every instance reached from ``start`` through the precedence graph."""
    stack = list(succs.get(start, ()))
    seen: set[str] = set()
    while stack:
        cur = stack.pop()
        if cur not in seen:
            seen.add(cur)
            stack.extend(succs.get(cur, ()))
    return seen


def random_task_permutation(state, seed) -> dict[str, tuple[str, ...]]:
    """Seeded random topological order of each robot's assigned instances,
    from their :func:`draw_state`.

    At every step one of the currently unconstrained tasks is drawn
    uniformly, so any order compatible with the robot's own precedence can
    occur; that precedence follows the global precedence graph, so chains
    running through other robots' tasks are respected too.  The ready
    tasks are kept sorted as they are released, so each draw picks from
    the list that sorting every ready task afresh would give.  A draw
    copies the ready lists, and the waiting counts where there are any.
    Each pick is CPython's ``randrange(m)`` for ``m`` ready tasks, bit for
    bit: draws of ``m.bit_length()`` bits until one is below ``m``.
    """
    getrandbits = random.Random(seed).getrandbits
    per_robot = {}
    for robot, n, waiting, released, ready in state:
        ready = ready.copy()
        if waiting:
            waiting = waiting.copy()
        order = []
        for _ in range(n):
            r = m = len(ready)
            while r >= m > 0:  # with no ready task (a cycle), pop raises
                r = getrandbits(m.bit_length())
            pick = ready.pop(r)
            order.append(pick)
            if waiting:
                for t in released.get(pick, ()):
                    waiting[t] -= 1
                    if not waiting[t]:
                        insort(ready, t)
        per_robot[robot] = tuple(order)
    return per_robot
