"""Mission expansion into atomic task instances, precedence, and subtrees.

Each mission task is instantiated independently: its (possibly compound)
task type is unfolded depth-first, numbering atomic instances per type in
declaration order (``at1_move_0``, ``at1_move_1``, ...).  Ordered compounds
induce precedence pairs; a breadth-first walk that stops at ordered
compounds and at leaves yields the constraint-sharing subtrees used for
robot clustering.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import NamedTuple

from .problem import ValidatedProblem


class TaskInstance(NamedTuple):
    instance_id: str
    type_id: str
    location: str
    robots_needed: int


class TreeNode(NamedTuple):
    """Node of the expanded mission tree.

    ``kind`` is "root" for the mission node, "compound" for compound-task
    nodes (with ``ordered`` meaningful), or "leaf" (with ``instance`` set).
    """

    kind: str
    task_id: str | None
    ordered: bool
    children: tuple["TreeNode", ...]
    instance: TaskInstance | None = None

    def leaves(self) -> list[TaskInstance]:
        if self.kind == "leaf":
            return [self.instance]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out


class PrecedencePair(NamedTuple):
    before: str
    after: str


def expand_mission(v: ValidatedProblem) -> tuple[TreeNode, list[PrecedencePair]]:
    """Unfold the mission into uniquely named atomic instances plus precedence.
    The returned root node's children are the mission tasks."""
    counters: defaultdict[str, int] = defaultdict(int)
    pairs: list[PrecedencePair] = []

    def build(task_id: str, location: str) -> TreeNode:
        compound = v.compound(task_id)
        if compound is None:
            atomic = v.atomic(task_id)
            ordinal = counters[task_id]
            counters[task_id] += 1
            inst = TaskInstance(
                instance_id=f"{task_id}_{ordinal}",
                type_id=task_id,
                location=location,
                robots_needed=atomic.robots_needed,
            )
            return TreeNode("leaf", task_id, False, (), inst)
        children = tuple(build(sub, location) for sub in compound.subtasks)
        if compound.ordered:
            for a, b in zip(children, children[1:]):
                for before in _last_set(a):
                    for after in _first_set(b):
                        pairs.append(PrecedencePair(before, after))
        return TreeNode("compound", task_id, compound.ordered, children)

    roots = tuple(build(m.task_id, m.location_id) for m in v.problem.mission_tasks)
    return TreeNode("root", None, False, roots), pairs


def _first_set(node: TreeNode) -> list[str]:
    """Instances that may run first within ``node``.

    For an unordered compound any leaf may start, so all leaves take part
    in cross-child precedence pairs; an ordered compound delegates to its
    first child.
    """
    if node.kind == "leaf":
        return [node.instance.instance_id]
    if node.ordered:
        return _first_set(node.children[0])
    return [inst.instance_id for inst in node.leaves()]


def _last_set(node: TreeNode) -> list[str]:
    if node.kind == "leaf":
        return [node.instance.instance_id]
    if node.ordered:
        return _last_set(node.children[-1])
    return [inst.instance_id for inst in node.leaves()]


def prune_subtrees(root: TreeNode) -> list[frozenset[str]]:
    """Breadth-first clustering of the instance tree.

    Descend from the root; whenever a node is an ordered compound or a leaf
    (joint or not), the whole subtree rooted there becomes one cluster, the
    set of its leaf instance ids, and is not descended further.  The
    clusters partition the leaves.
    """
    subtrees: list[frozenset[str]] = []
    queue = deque(root.children)
    while queue:
        node = queue.popleft()
        if node.kind == "leaf" or (node.kind == "compound" and node.ordered):
            subtrees.append(frozenset(inst.instance_id for inst in node.leaves()))
        else:
            queue.extend(node.children)
    return subtrees


def debug_report(root: TreeNode, pairs: list[PrecedencePair]) -> dict:
    """JSON-friendly dump of the expansion, for inspection and tooling."""

    def node_dict(node: TreeNode):
        if node.kind == "leaf":
            i = node.instance
            return {
                "instance": i.instance_id,
                "type": i.type_id,
                "location": i.location,
                "robots_needed": i.robots_needed,
            }
        return {
            "task": node.task_id,
            "ordered": node.ordered,
            "children": [node_dict(c) for c in node.children],
        }

    return {
        "mission": [node_dict(c) for c in root.children],
        "precedence": [{"before": p.before, "after": p.after} for p in pairs],
    }
