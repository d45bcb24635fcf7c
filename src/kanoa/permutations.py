"""Per-robot task orders and the travel cost they induce.

A permutation maps each robot to its ordered tuple of instance ids; a
joint instance appears in every participant's order.
"""

from __future__ import annotations

import random

from .clustering import RobotCluster
from .problem import ValidatedProblem
from .taskgraph import PrecedencePair, TaskInstance


def _instances_of(
    allocation: dict[str, frozenset[str]], cluster: RobotCluster, robot: str
) -> list[str]:
    return [
        inst
        for inst in sorted(cluster.instances)
        if robot in allocation[inst]
    ]


def _induced_precedence(
    own: list[str], pairs: list[PrecedencePair]
) -> dict[str, set[str]]:
    """Restriction of the full precedence order to one robot's instances.

    Uses reachability through instances on other robots, so that e.g.
    x -> y -> z with only x and z on this robot still forces x before z.
    """
    succs: dict[str, set[str]] = {}
    for p in pairs:
        succs.setdefault(p.before, set()).add(p.after)

    own_set = set(own)
    preds: dict[str, set[str]] = {t: set() for t in own}
    for start in own:
        # forward reachability from start through the global precedence graph
        stack = list(succs.get(start, ()))
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in own_set:
                preds[cur].add(start)
            stack.extend(succs.get(cur, ()))
    return preds


def random_task_permutation(
    allocation: dict[str, frozenset[str]],
    cluster: RobotCluster,
    pairs: list[PrecedencePair],
    seed,
) -> dict[str, tuple[str, ...]]:
    """Seeded random topological order of each robot's assigned instances.

    At every step one of the currently unconstrained tasks is drawn
    uniformly, so any order compatible with the robot's own precedence can
    occur; the global precedence graph is consulted so chains running
    through other robots' tasks are respected too.
    """
    rng = random.Random(seed)
    per_robot = {}
    for robot in sorted(cluster.robots):
        own = _instances_of(allocation, cluster, robot)
        preds = _induced_precedence(own, pairs)
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
