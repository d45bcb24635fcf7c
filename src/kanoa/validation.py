"""Whole-problem validation."""

from __future__ import annotations

from .errors import ValidationError
from .problem import ProblemSpec, ValidatedProblem

# Deepest allowed chain of compound tasks under one mission task (a compound
# of atomic tasks is 1 deep).  Expansion recurses once per level, so this
# keeps it far from the interpreter's recursion limit; see docs/grammar.md.
MAX_NESTING = 100

# Most task instances a mission may expand to.  Drawing a robot's task order
# records, for each of its instances, every instance that must precede it,
# so memory grows with the square of the count.  A fully ordered chain of one
# robot's task, planned with one allocation, one permutation, population 4
# and one generation, peaked at 43 MB resident with 1,024 instances and at
# 156 MB with 2,048; one of 16,384 ran out of a 2 GB address-space limit.
# See docs/grammar.md.
MAX_INSTANCES = 2000


def validate_problem(spec: ProblemSpec) -> ValidatedProblem:
    """Check every problem invariant.

    All violations are collected and reported together, in a deterministic
    order (world, tasks, robots, mission, constraints).  The validated
    problem reads an undeclared distance as the integer ceiling of the
    straight-line distance; declared values are never overwritten.
    """
    errors: list[str] = []

    # world: unique location ids
    loc_ids = [l.id for l in spec.locations]
    loc_set = set(loc_ids)
    for dup in _duplicates(loc_ids):
        errors.append(f"duplicate location id '{dup}'")

    # world: distance entries
    seen_pairs = set()
    for d in spec.distances:
        if d.frm == d.to:
            errors.append(f"distance from '{d.frm}' to itself")
            continue
        if d.frm not in loc_set:
            errors.append(f"distance references unknown location '{d.frm}'")
        if d.to not in loc_set:
            errors.append(f"distance references unknown location '{d.to}'")
        if d.distance < 0:
            errors.append(f"negative distance between '{d.frm}' and '{d.to}'")
        pair = (min(d.frm, d.to), max(d.frm, d.to))
        if pair in seen_pairs:
            errors.append(f"duplicate distance entry for '{pair[0]}'/'{pair[1]}'")
        seen_pairs.add(pair)

    # tasks: unique ids across atomic + compound, arity, references, acyclicity
    task_ids = [t.id for t in spec.atomic_tasks] + [t.id for t in spec.compound_tasks]
    for dup in _duplicates(task_ids):
        errors.append(f"duplicate task id '{dup}'")
    atomic_ids = {t.id for t in spec.atomic_tasks}
    compound_by_id = {t.id: t for t in spec.compound_tasks}
    for t in spec.atomic_tasks:
        if t.robots_needed < 1:
            errors.append(f"atomic task '{t.id}' needs fewer than one robot")
    for t in spec.compound_tasks:
        if not t.subtasks:
            errors.append(f"compound task '{t.id}' has no subtasks")
        for sub in t.subtasks:
            if sub not in atomic_ids and sub not in compound_by_id:
                errors.append(
                    f"compound task '{t.id}' references unknown subtask '{sub}'"
                )
    shape: dict[str, tuple[int, int]] = {}
    cycles = _find_cycles(compound_by_id, shape)
    for cyc in cycles:
        errors.append(f"cyclic task definition involving '{cyc}'")

    # robots
    robot_ids = [r.id for r in spec.robots]
    for dup in _duplicates(robot_ids):
        errors.append(f"duplicate robot id '{dup}'")
    for r in spec.robots:
        if r.initial_loc not in loc_set:
            errors.append(f"robot '{r.id}' starts at unknown location '{r.initial_loc}'")
        if r.velocity <= 0:
            errors.append(f"robot '{r.id}' has non-positive velocity")
        cap_types = [c.task_type_id for c in r.capabilities]
        for dup in _duplicates(cap_types):
            errors.append(f"robot '{r.id}' lists capability '{dup}' twice")
        for c in r.capabilities:
            if c.task_type_id not in atomic_ids:
                errors.append(
                    f"robot '{r.id}' capability references unknown atomic task "
                    f"'{c.task_type_id}'"
                )
            if c.required_time < 1:
                errors.append(
                    f"robot '{r.id}' capability '{c.task_type_id}' has required "
                    "time below 1"
                )
            if not 0 < c.success_prob <= 1:
                errors.append(
                    f"robot '{r.id}' capability '{c.task_type_id}' has success "
                    f"probability {c.success_prob} outside (0, 1]"
                )

    # mission tasks
    for m in spec.mission_tasks:
        if m.task_id not in atomic_ids and m.task_id not in compound_by_id:
            errors.append(f"mission references unknown task '{m.task_id}'")
        if m.location_id not in loc_set:
            errors.append(f"mission references unknown location '{m.location_id}'")
    if not spec.mission_tasks:
        errors.append("mission has no tasks")
    if not cycles:
        too_deep = {
            m.task_id: shape[m.task_id][0]
            for m in spec.mission_tasks
            if shape.get(m.task_id, (0, 1))[0] > MAX_NESTING
        }
        for task_id, d in too_deep.items():
            errors.append(
                f"mission task '{task_id}' nests compound tasks {d} deep; "
                f"the limit is {MAX_NESTING}"
            )
        total = sum(shape.get(m.task_id, (0, 1))[1] for m in spec.mission_tasks)
        if not too_deep and total > MAX_INSTANCES:
            errors.append(
                f"mission expands to {total} task instances; "
                f"the limit is {MAX_INSTANCES}"
            )

    # constraints
    time_constraints = [c for c in spec.constraints if c.kind == "timeAvailable"]
    if len(time_constraints) != 1:
        errors.append(
            f"mission must declare exactly one time budget, found {len(time_constraints)}"
        )
    robot_id_set = set(robot_ids)
    for c in spec.constraints:
        if c.kind in ("boundary", "maxIdle"):
            if c.subject != "all" and c.subject not in robot_id_set:
                errors.append(f"constraint references unknown robot '{c.subject}'")
        if c.budget is not None and c.budget < 1:
            errors.append(f"{c.kind} budget below 1")
        if c.rect is not None and (
            c.rect.x_min > c.rect.x_max or c.rect.y_min > c.rect.y_max
        ):
            errors.append("boundary rectangle is not well-formed (min > max)")

    # capability coverage for every atomic type reachable from the mission
    if not errors:
        reachable = _reachable_atomics(spec, atomic_ids, compound_by_id)
        for task_id in sorted(reachable):
            needed = next(t for t in spec.atomic_tasks if t.id == task_id).robots_needed
            capable = sum(
                1 for r in spec.robots if r.capability_for(task_id) is not None
            )
            if capable < needed:
                errors.append(
                    f"atomic task '{task_id}' needs {needed} robots but only "
                    f"{capable} are capable"
                )

    if errors:
        raise ValidationError(errors)

    return ValidatedProblem(spec)


def _duplicates(items):
    seen, dups = set(), []
    for x in items:
        if x in seen and x not in dups:
            dups.append(x)
        seen.add(x)
    return dups


def _find_cycles(compound_by_id, shape=None):
    """Ids of the compound tasks that reach themselves through their
    subtasks, sorted.

    These are the members of every strongly connected component with more
    than one compound, or with a compound listing itself (Tarjan's
    algorithm).  The search keeps its own stack of subtask iterators, so no
    chain of compounds, however deep, can exhaust the recursion limit.

    ``shape``, when given, receives the (nesting depth, leaf instance count)
    of every compound that reaches no cycle, computed when the compound
    closes as a component of its own, after every compound it lists.  The
    depth counts compound levels down to the deepest atomic leaf; the count
    is the number of atomic instances expansion makes, every listed subtask
    expanding once.  Unknown subtask ids count as one leaf.
    """
    if shape is None:
        shape = {}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    component: list[str] = []  # visited compounds not yet in a component
    open_ids: set[str] = set()
    cyclic: list[str] = []

    for root in compound_by_id:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        component.append(root)
        open_ids.add(root)
        path = [(root, iter(compound_by_id[root].subtasks))]
        while path:
            cid, pending = path[-1]
            for sub in pending:
                if sub not in compound_by_id:
                    continue
                if sub not in index:
                    index[sub] = low[sub] = len(index)
                    component.append(sub)
                    open_ids.add(sub)
                    path.append((sub, iter(compound_by_id[sub].subtasks)))
                    break
                if sub in open_ids:
                    low[cid] = min(low[cid], index[sub])
            else:  # every subtask done: leave this compound
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[cid])
                if low[cid] == index[cid]:  # cid roots a component
                    members = [component.pop()]
                    while members[-1] != cid:
                        members.append(component.pop())
                    open_ids.difference_update(members)
                    subs = compound_by_id[cid].subtasks
                    if len(members) > 1 or cid in subs:
                        cyclic.extend(members)
                    elif all(s in shape for s in subs if s in compound_by_id):
                        below = [shape.get(s, (0, 1)) for s in subs]
                        shape[cid] = (
                            1 + max((d for d, _ in below), default=0),
                            sum(n for _, n in below),
                        )
    return sorted(cyclic)


def _reachable_atomics(spec, atomic_ids, compound_by_id):
    reachable = set()
    frontier = [m.task_id for m in spec.mission_tasks]
    seen = set()
    while frontier:
        tid = frontier.pop()
        if tid in seen:
            continue
        seen.add(tid)
        if tid in atomic_ids:
            reachable.add(tid)
        elif tid in compound_by_id:
            frontier.extend(compound_by_id[tid].subtasks)
    return reachable

