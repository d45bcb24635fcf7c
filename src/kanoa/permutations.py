"""Per-robot task orders, drawn at random within the precedence constraints.

A permutation maps each robot to its ordered tuple of instance ids; a
joint instance appears in every participant's order.
"""

from __future__ import annotations

import random
from bisect import insort

from .clustering import RobotCluster
from .taskgraph import PrecedencePair


# shared by every instance without predecessors, which is most of them
_NO_PREDS: frozenset[str] = frozenset()


def robot_precedence(
    allocation: dict[str, frozenset[str]],
    cluster: RobotCluster,
    pairs: list[PrecedencePair],
) -> list[tuple[str, dict[str, frozenset[str]]]]:
    """Each robot of the cluster, in sorted order, with the restriction of
    the full precedence order to its instances: each instance, in sorted
    order, maps to the robot's instances that must come before it.

    Uses reachability through instances on other robots, so that e.g.
    x -> y -> z with only x and z on this robot still forces x before z.
    """
    succs: dict[str, list[str]] = {}
    for p in pairs:
        succs.setdefault(p.before, []).append(p.after)
    # one pass over the cluster's sorted instances lists each robot's own
    own: dict[str, list[str]] = {robot: [] for robot in sorted(cluster.robots)}
    for inst in sorted(cluster.instances):
        for robot in allocation[inst]:
            if robot in own:
                own[robot].append(inst)
    per_robot = [(robot, dict.fromkeys(mine, _NO_PREDS)) for robot, mine in own.items()]

    # each instance with a successor precedes, on each robot of its team,
    # that robot's instances it reaches
    preds_of = dict(per_robot)
    before: dict[tuple[str, str], list[str]] = {}
    for start in succs:
        if start in cluster.instances:
            reached = _reachable(start, succs)
            for robot in allocation[start]:
                preds = preds_of.get(robot)
                if preds is not None:
                    for cur in reached:
                        if cur in preds:
                            before.setdefault((robot, cur), []).append(start)
    for (robot, cur), starts in before.items():
        preds_of[robot][cur] = frozenset(starts)
    return per_robot


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


def draw_state(precedence: list[tuple[str, dict[str, frozenset[str]]]]) -> list[tuple]:
    """What every draw from a :func:`robot_precedence` starts from, per
    robot: its task count, the number of predecessors of each task that
    has any, the tasks that wait on each task, and the sorted first ready
    list.  Built once, it serves any number of draws."""
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
