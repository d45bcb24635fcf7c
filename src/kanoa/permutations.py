"""Per-robot task orders and the travel cost they induce.

A permutation maps each robot to its ordered tuple of instance ids; a
joint instance appears in every participant's order.
"""

from __future__ import annotations

import random

from .clustering import RobotCluster
from .problem import ValidatedProblem
from .taskgraph import PrecedencePair, TaskInstance


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
    succs: dict[str, set[str]] = {}
    for p in pairs:
        succs.setdefault(p.before, set()).add(p.after)
    ordered = sorted(cluster.instances)

    per_robot = []
    for robot in sorted(cluster.robots):
        own = [inst for inst in ordered if robot in allocation[inst]]
        preds = dict.fromkeys(own, _NO_PREDS)
        for start in own:
            # forward reachability from start through the global precedence graph
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


def random_task_permutation(
    allocation: dict[str, frozenset[str]],
    cluster: RobotCluster,
    pairs: list[PrecedencePair],
    seed,
    precedence: list[tuple[str, dict[str, frozenset[str]]]] | None = None,
) -> dict[str, tuple[str, ...]]:
    """Seeded random topological order of each robot's assigned instances.

    At every step one of the currently unconstrained tasks is drawn
    uniformly, so any order compatible with the robot's own precedence can
    occur; the global precedence graph is consulted so chains running
    through other robots' tasks are respected too.  ``precedence`` is
    :func:`robot_precedence` of the other arguments, for callers that draw
    many orders of one allocation; it is computed when not given.
    """
    if precedence is None:
        precedence = robot_precedence(allocation, cluster, pairs)
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


def travel_cost(
    p: dict[str, tuple[str, ...]],
    v: ValidatedProblem,
    instances: dict[str, TaskInstance],
) -> int:
    """Sum over robots of the distances along their task-location chains.

    Each robot's chain starts at its initial location; co-located
    consecutive stops contribute zero.
    """
    total = 0
    for robot_id, order in p.items():
        here = v.robot(robot_id).initial_loc
        for inst_id in order:
            there = instances[inst_id].location
            total += v.distance(here, there)
            here = there
    return total
