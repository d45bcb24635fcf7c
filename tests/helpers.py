"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
policy evaluation is plain memoized recursion over one induced chain, and
problem text is assembled by string formatting rather than the printer.
"""

from __future__ import annotations

import random
import sys
from itertools import product
from pathlib import Path

from oracles import (
    chain_travel,
    pairwise_front,
    pairwise_nondominated_sort,
    reference_crowding_distance,
    reference_key_fronts,
)

import kanoa.optimizer
from kanoa.allocation import AllocatorConfig, enumerate_allocations
from kanoa.clustering import cluster_robots
from kanoa.mdp import DEFAULT_STATE_CAP, REWARD_ATTRS, ClusterContext, Mdp, build_mdp
from kanoa.optimizer import ParetoEntry
from kanoa.parser import parse_problem
from kanoa.permutations import draw_state, random_task_permutation
from kanoa.plans import extract_plan
from kanoa.problem import ValidatedProblem
from kanoa.reporting import PipelineConfig
from kanoa.scheduling import ClusterFacts, Hops, SchedulingResult, success_probability
from kanoa.solver import max_reach_probability, min_expected_reward_policy
from kanoa.taskgraph import expand_mission, prune_subtrees
from kanoa.validation import validate_problem


ROOT = Path(__file__).resolve().parent.parent


def load(text):
    return validate_problem(parse_problem(text))


def single_robot_problem(tt=10, dist=2, duration=3, prob=1.0):
    return load(f"""
world {{ loc base (0,0) loc site ({dist},0) }}
tasks {{ atomic job robots 1 }}
robots {{ robot r1 at base velocity 1 {{ can job time {duration} prob {prob} }} }}
mission {{ task job at site; time {tt} }}
""")


def expanded(v):
    """(leaves, instances-by-id, pairs, subtrees) for a validated problem."""
    tree, pairs = expand_mission(v)
    leaves = tree.leaves()
    return leaves, {l.instance_id: l for l in leaves}, pairs, prune_subtrees(tree)


def first_allocation(v, n=1):
    leaves, instances, pairs, subtrees = expanded(v)
    allocation = enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=n))[0]
    clusters = cluster_robots(allocation, subtrees)
    return allocation, clusters, instances, pairs


def cluster_draw_state(allocation, cluster, pairs):
    """The :func:`draw_state` of one cluster: that of the allocation
    restricted to the cluster's instances."""
    return draw_state({inst: allocation[inst] for inst in cluster.instances}, pairs)


def cold_records(v, allocation, cluster, permutation, pairs, instances):
    """The ``facts`` and ``hops`` keyword arguments of a cold
    ``score_cluster`` call: the cluster's own, freshly built
    :class:`ClusterFacts` and a :class:`Hops` memo shared with nothing."""
    return {
        "facts": ClusterFacts(v, allocation, cluster, pairs, instances),
        "hops": Hops(v, instances),
    }


def cold_context(v, allocation, cluster, permutation, pairs, instances):
    """A cluster's :class:`ClusterContext` from its own, freshly built
    :class:`ClusterFacts` and :class:`Hops` memo, shared with nothing."""
    facts = ClusterFacts(v, allocation, cluster, pairs, instances)
    return ClusterContext(facts, permutation, Hops(v, instances))


def build_single_cluster_mdp(v, seed=0, permutation=None):
    allocation, clusters, instances, pairs = first_allocation(v)
    assert len(clusters) == 1
    cluster = clusters[0]
    if permutation is None:
        state = cluster_draw_state(allocation, cluster, pairs)
        permutation = random_task_permutation(state, seed=seed)
    ctx = cold_context(v, allocation, cluster, permutation, pairs, instances)
    mdp = build_mdp(ctx)
    return mdp, allocation, cluster, permutation


def times(ctx: ClusterContext, state: tuple) -> tuple[int, ...]:
    """Every robot's clock in ``state``."""
    return tuple(ctx.robot_time(state, i) for i in range(ctx.nrobots))


# -- policy enumeration oracle ------------------------------------------------


def decision_states(mdp: Mdp, label="done"):
    target = mdp.label_states(label)
    return [
        s
        for s in range(mdp.n_states)
        if s not in target and len(mdp.choices[s]) > 1
    ]


def enumerate_policy_values(mdp: Mdp, reward="idle", label="done", limit=1 << 14):
    """(max reach probability, min expected reward over surely-reaching
    policies or None) by brute force over deterministic memoryless policies.

    Returns None for the reward when no enumerated policy reaches the label
    with probability 1.  Raises if the policy space exceeds ``limit``.
    """
    target = mdp.label_states(label)
    dec = decision_states(mdp, label)
    count = 1
    for s in dec:
        count *= len(mdp.choices[s])
        if count > limit:
            raise ValueError(f"policy space too large: >{limit}")

    best_prob = 0.0
    best_reward = None
    for combo in product(*(range(len(mdp.choices[s])) for s in dec)):
        pick = dict(zip(dec, combo))

        prob_memo: dict[int, float] = {}
        rew_memo: dict[int, float] = {}
        visiting: set[int] = set()

        def chosen(s):
            if s in pick:
                return mdp.choices[s][pick[s]]
            return mdp.choices[s][0] if mdp.choices[s] else None

        def reach(s):
            if s in target:
                return 1.0
            if s in prob_memo:
                return prob_memo[s]
            if s in visiting:  # cycle under this policy: pessimistic zero
                return 0.0
            c = chosen(s)
            if c is None:
                prob_memo[s] = 0.0
                return 0.0
            visiting.add(s)
            val = sum(p * reach(t) for p, t in c.branches)
            visiting.discard(s)
            prob_memo[s] = val
            return val

        def expected(s):
            if s in target:
                return 0.0
            if s in rew_memo:
                return rew_memo[s]
            c = chosen(s)
            val = getattr(c, REWARD_ATTRS[reward]) + sum(
                p * expected(t) for p, t in c.branches
            )
            rew_memo[s] = val
            return val

        p = reach(mdp.initial)
        best_prob = max(best_prob, p)
        if p >= 1.0 - 1e-9:
            r = expected(mdp.initial)
            if best_reward is None or r < best_reward:
                best_reward = r
    return best_prob, best_reward


# -- random scheduling problems ----------------------------------------------


def random_problem_text(rng: random.Random, idle_caps: bool = False):
    """Small random mission: 1-3 robots, 2-4 atomic instances, TT <= 20.

    With ``idle_caps`` some robots also get a ``maxidle`` bound of 1-4;
    without it no extra number is drawn, so existing seeds keep their
    missions.
    """
    nrobots = rng.randint(1, 3)
    nlocs = rng.randint(2, 4)
    locs = [f"p{i}" for i in range(nlocs)]
    coords = {}
    taken = set()
    for l in locs:
        while True:
            xy = (rng.randint(0, 6), rng.randint(0, 6))
            if xy not in taken:
                taken.add(xy)
                coords[l] = xy
                break

    ntasks = rng.randint(2, 4)
    types = []
    for i in range(ntasks):
        joint = nrobots >= 2 and rng.random() < 0.3
        types.append((f"t{i}", 2 if joint else 1, rng.randint(1, 3)))

    ordered = ntasks >= 2 and rng.random() < 0.6
    lines = ["world {"]
    lines += [f"  loc {l} ({coords[l][0]}, {coords[l][1]})" for l in locs]
    lines.append("}")
    lines.append("tasks {")
    for name, k, _ in types:
        lines.append(f"  atomic {name} robots {k}")
    if ordered:
        members = ", ".join(t[0] for t in types[:2])
        lines.append(f"  compound seq = ordered {{ {members} }}")
    lines.append("}")
    lines.append("robots {")
    for r in range(nrobots):
        lines.append(
            f"  robot r{r} at {locs[rng.randrange(nlocs)]} velocity "
            f"{rng.choice([1, 1, 2])} {{"
        )
        for name, _, dur in types:
            prob = rng.choice([1, 1, 0.9, 0.8])
            lines.append(f"    can {name} time {dur} prob {prob}")
        lines.append("  }")
    lines.append("}")
    lines.append("mission {")
    if ordered:
        lines.append(f"  task seq at {locs[rng.randrange(nlocs)]}")
        rest = types[2:]
    else:
        rest = types
    for name, _, _ in rest:
        lines.append(f"  task {name} at {locs[rng.randrange(nlocs)]}")
    lines.append(f"  time {rng.randint(8, 20)}")
    if idle_caps:
        for r in range(nrobots):
            if rng.random() < 0.6:
                lines.append(f"  maxidle r{r} {rng.randint(1, 4)}")
    lines.append("}")
    return "\n".join(lines)


def compound_chain_text(depth: int, reverse: bool = False) -> str:
    """A mission of one task nested ``depth`` compounds deep:
    ``c0 = ordered { x, x }`` and ``c{i} = ordered { c{i-1}, x }``, defined
    from c0 up, or from the top down with ``reverse``."""
    defs = ["  compound c0 = ordered { x, x }"] + [
        f"  compound c{i} = ordered {{ c{i - 1}, x }}" for i in range(1, depth)
    ]
    if reverse:
        defs.reverse()
    return "\n".join([
        "world { loc a (0,0) }",
        "tasks {",
        "  atomic x robots 1",
        *defs,
        "}",
        "robots { robot r at a velocity 1 { can x time 1 prob 1 } }",
        f"mission {{ task c{depth - 1} at a; time {4 * depth} }}",
    ]) + "\n"


def many_locations_text(count: int) -> str:
    """A mission of ``count`` locations, 200 to a grid row, and one task at
    the second location for one robot at the first."""
    locs = [f"  loc l{i} ({i % 200}, {i // 200})" for i in range(count)]
    return "\n".join([
        "world {", *locs, "}",
        "tasks { atomic t robots 1 }",
        "robots { robot r at l0 velocity 1 { can t time 1 prob 0.9 } }",
        "mission { task t at l1; time 100 }",
    ]) + "\n"


def wide_joint_task_text(robots: int, needed: int | None = None) -> str:
    """One task at b that needs ``needed`` of the ``robots`` robots at once
    (all of them by default), each starting at a.  Every robot reaches b
    on its own, so the full model holds every subset of arrived robots."""
    fleet = [
        f"  robot r{i} at a velocity 1 {{ can t time 1 prob 0.9 }}"
        for i in range(robots)
    ]
    return "\n".join([
        "world { loc a (0, 0) loc b (3, 4) }",
        f"tasks {{ atomic t robots {robots if needed is None else needed} }}",
        "robots {", *fleet, "}",
        "mission { task t at b; time 100 }",
    ]) + "\n"


def random_joint_missions(rng: random.Random, count: int):
    """``count`` (validated problem, number of allocations to request)
    pairs with joint teams: :func:`random_problem_text` missions, of which
    about a third have a task for two robots, and every fourth a
    :func:`wide_joint_task_text` mission of 2-6 robots needing 2 to all of
    them.  The request is drawn below and above the feasible count, so
    some spaces are sampled and some searched whole."""
    made = []
    while len(made) < count:
        if len(made) % 4 == 3:
            robots = rng.randint(2, 6)
            text = wide_joint_task_text(robots, rng.randint(2, robots))
        else:
            text = random_problem_text(rng, idle_caps=rng.random() < 0.5)
        made.append((load(text), rng.randint(1, 12)))
    return made


def random_clusters(rng: random.Random, idle_caps: bool = False, draws: int = 1):
    """Up to ``draws`` (v, allocation, cluster, permutation, pairs,
    instances) tuples from one random mission, each with its own allocation,
    cluster and permutation; empty when the mission's capability needs
    cannot be met."""
    try:
        v = load(random_problem_text(rng, idle_caps))
    except Exception:
        return []
    leaves, instances, pairs, subtrees = expanded(v)
    try:
        allocations = enumerate_allocations(
            v, leaves, AllocatorConfig(max_allocations=3)
        )
    except Exception:
        return []
    made = []
    for _ in range(draws):
        allocation = allocations[rng.randrange(len(allocations))]
        clusters = cluster_robots(allocation, subtrees)
        cluster = clusters[rng.randrange(len(clusters))]
        permutation = random_task_permutation(
            cluster_draw_state(allocation, cluster, pairs), seed=rng.random()
        )
        made.append((v, allocation, cluster, permutation, pairs, instances))
    return made


def random_scheduling_model(rng: random.Random, max_decision=12):
    """A built model for a random mission, or None when it is degenerate
    (unsatisfiable capability needs or an oversized policy space)."""
    made = random_clusters(rng)
    if not made:
        return None
    v, allocation, cluster, permutation, pairs, instances = made[0]
    ctx = cold_context(v, allocation, cluster, permutation, pairs, instances)
    mdp = build_mdp(ctx)
    if len(decision_states(mdp)) > max_decision:
        return None
    return v, allocation, cluster, permutation, mdp


def with_time_available(case, tt):
    """``case``, a (v, allocation, cluster, permutation, pairs, instances)
    tuple, with the mission's time constraint rewritten to ``tt``."""
    v, *rest = case
    constraints = tuple(
        c._replace(budget=tt) if c.kind == "timeAvailable" else c
        for c in v.problem.constraints
    )
    problem = v.problem._replace(constraints=constraints)
    return (ValidatedProblem(problem), *rest)


def _solve_full_model(v, allocation, cluster, permutation, pairs, instances, state_cap):
    """(result with no plan, (model, minimum-idle policy) or None) of the
    paper's full model, built cold and solved for reach and minimum idle.
    ``permutation`` may hold other clusters' robots, as a search passes
    it; travel counts the cluster's robots only."""
    ctx = cold_context(v, allocation, cluster, permutation, pairs, instances)
    mdp = build_mdp(ctx, state_cap)
    if max_reach_probability(mdp, "done") < 1.0:
        return SchedulingResult(False, 0.0, None, None, None), None
    idle, policy = min_expected_reward_policy(mdp, "idle", "done")
    return SchedulingResult(
        feasible=True,
        p_success=success_probability(v, allocation, cluster, instances),
        idle=round(idle),
        travel=chain_travel({r: permutation[r] for r in cluster.robots}, v, instances),
        plan=None,
    ), (mdp, policy)


def reference_score(
    v, allocation, cluster, permutation, pairs, instances, *, facts=None, hops=None,
):
    """``score_cluster`` on the paper's full model instead of the
    earliest-start schedule: its verdict, minimum idle, success
    probability and travel, with no plan.  It ignores a search's shared
    ``facts`` and ``hops`` and builds its context cold."""
    return _solve_full_model(
        v, allocation, cluster, permutation, pairs, instances, DEFAULT_STATE_CAP
    )[0]


def reference_schedule(
    v, allocation, cluster, permutation, pairs, instances,
    state_cap=DEFAULT_STATE_CAP, *, facts=None, hops=None,
):
    """``schedule_cluster`` on the paper's full model: always build it,
    then reach, minimum-idle policy and plan extraction.  Like
    :func:`reference_score`, it builds its context cold."""
    result, solved = _solve_full_model(
        v, allocation, cluster, permutation, pairs, instances, state_cap
    )
    return result if solved is None else result._replace(plan=extract_plan(*solved))


def reference_nondominated(space, feasible):
    """``kanoa.optimizer._nondominated`` by :func:`oracles.pairwise_front`,
    which compares every pair of feasible members; each distinct
    chromosome's plan comes from ``kanoa.optimizer._plan``, once."""
    plans = {}

    def plan_of(ch):
        if ch not in plans:
            plans[ch] = kanoa.optimizer._plan(space, ch)
        return plans[ch]

    return [
        ParetoEntry(ch, objectives, plan)
        for ch, objectives, plan in pairwise_front(feasible, plan_of)
    ]


def install_reference_pipeline(mp, score=reference_score):
    """Patch ``kanoa.optimizer`` through ``mp``, a ``pytest.MonkeyPatch``,
    so that a search takes the reference at every seam: ``score`` for
    every cluster score (:func:`reference_score` unless given),
    :func:`reference_schedule` for every front plan, the pairwise
    nondominated sort, the reference crowding and key fronts, and
    :func:`reference_nondominated` for the final front."""
    mp.setattr(kanoa.optimizer, "score_cluster", score)
    mp.setattr(kanoa.optimizer, "schedule_cluster", reference_schedule)
    mp.setattr(kanoa.optimizer, "fast_nondominated_sort", pairwise_nondominated_sort)
    mp.setattr(kanoa.optimizer, "crowding_distance", reference_crowding_distance)
    mp.setattr(kanoa.optimizer, "_key_fronts", reference_key_fronts)
    mp.setattr(kanoa.optimizer, "_nondominated", reference_nondominated)


# -- artifacts ------------------------------------------------------------------


def assert_golden_artifacts(golden, out):
    """pareto.csv, pareto.json, every plan_*.json and every mdp_*.txt in
    ``out`` equal the files in ``golden`` byte for byte, and no plan or
    model dump is missing or extra."""
    names = front_artifacts(golden)
    assert front_artifacts(out) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def front_artifacts(directory):
    """Sorted names of the pareto tables, plan_*.json and mdp_*.txt in
    ``directory``."""
    return sorted(
        [p.name for p in directory.glob("pareto.*")]
        + [p.name for p in directory.glob("plan_*.json")]
        + [p.name for p in directory.glob("mdp_*.txt")]
    )


# -- benchmark missions ---------------------------------------------------------


def benchmark_missions():
    """The benchmark's mission generator module, ``perfbench/missions.py``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import missions
    finally:
        sys.path.pop(0)
    return missions


def perfbench_mission(workload, seed=1):
    """Mission text and pipeline config of sub-instance 0 of the benchmark's
    ``--seed`` basket for ``workload``."""
    missions = benchmark_missions()
    text, ga_seed = missions.basket(workload, seed, ROOT)[0]
    alloc, perms, pop, gens = missions.CONFIGS[workload]
    return text, PipelineConfig(
        allocations=alloc, permutations=perms, population=pop,
        generations=gens, seed=ga_seed,
    )
