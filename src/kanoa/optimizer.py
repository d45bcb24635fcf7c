"""NSGA-II search over (allocation, permutation) chromosomes.

A chromosome is a pair of small indices: into the allocation list, and
into that allocation's pool of whole-allocation task permutations.  A pool
entry is drawn, from its own seed, the first time it is used.  Evaluation
schedules each robot cluster and aggregates the three objectives; a
cluster that fails the closed-form feasibility check builds no model.
Infeasible chromosomes rank below every feasible one (constrained
domination).  Everything is driven by a single seed and fully
reproducible.

Two memos keep the search from repeating work.  ``evaluate`` keeps each
chromosome's result, and each :class:`SearchSpace` keeps each cluster
schedule, keyed on the cluster's per-robot task orders.  Distinct
chromosomes often give a cluster the same orders: a robot with few tasks
has few orders to draw, and allocations that differ only in other robots'
tasks share the cluster.  Such a cluster is solved once per search.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .allocation import AllocatorConfig, enumerate_allocations, used_robots
from .clustering import RobotCluster, cluster_robots
from .errors import NoFeasibleSolution, StateExplosion
from .mdp import DEFAULT_STATE_CAP
from .permutations import random_task_permutation, robot_precedence
from .plans import Plan
from .problem import ValidatedProblem
from .scheduling import SchedulingResult, schedule_cluster
from .taskgraph import (
    PrecedencePair,
    TaskInstance,
    expand_mission,
    prune_subtrees,
)

CROSSOVER_RATE = 0.9  # chance that a selected pair swaps genes
MUTATION_RATE = 0.2  # chance that an offspring redraws one gene

# Largest population a search may hold.  Each member costs about 730 B of
# search bookkeeping (tracemalloc, one generation on minimal.kanoa and on
# hospital.kanoa at 100,000 members): the population and its offspring,
# their results, ranks and crowding distances.  At this limit one
# generation of either peaked at 88 MB resident; a population of 100
# million ran out of a 768 MB address-space limit while drawing its first
# members.  See docs/formats.md.
MAX_POPULATION = 100_000


class Chromosome(NamedTuple):
    alloc_idx: int
    perm_idx: int


class Objectives(NamedTuple):
    p_fail: float
    idle: int
    travel: int

    def as_tuple(self) -> Objectives:
        """The record itself, which is already a tuple."""
        return self


def dominates(a: Objectives, b: Objectives) -> bool:
    """Pareto dominance: no worse everywhere, strictly better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and a != b


class GaConfig:
    __slots__ = ("population_size", "generations", "permutations_per_allocation", "seed")

    def __init__(
        self,
        population_size: int = 50,
        generations: int = 5,
        permutations_per_allocation: int = 20,
        seed: int = 0,
    ):
        if population_size < 4 or population_size % 2:
            raise ValueError("population_size must be even and at least 4")
        if population_size > MAX_POPULATION:
            raise ValueError(f"population_size must be at most {MAX_POPULATION}")
        if generations < 0:
            raise ValueError("generations must not be negative")
        if permutations_per_allocation < 1:
            raise ValueError("permutations_per_allocation must be at least 1")
        self.population_size = population_size
        self.generations = generations
        self.permutations_per_allocation = permutations_per_allocation
        self.seed = seed


class EvalResult(NamedTuple):
    feasible: bool
    objectives: Objectives | None = None
    plan: Plan | None = None
    capped: bool = False  # infeasible because a model exceeded the state cap


class SearchSpace:
    """Pools and cached structure shared by every evaluation.

    ``_schedules`` memoizes :func:`schedule_cluster` on a cluster's
    per-robot orders, ``((robot, order), ...)`` in robot order.  Within one
    space, ``v``, ``pairs``, ``instances`` and the state cap are fixed, and
    so is the time budget, which every schedule reads from the mission's
    ``time`` constraint in ``v``.  Every robot's order lists every instance
    allocated to it, and every instance's team lies inside one cluster, so
    the orders determine the cluster's instances and each instance's team,
    which are the only parts of the allocation and the cluster that a
    schedule reads.  Equal keys therefore give equal results.  Only returned
    results are kept, feasible or not; a cluster whose model exceeds the
    state cap raises :class:`StateExplosion` each time it is scheduled.
    """

    __slots__ = (
        "v", "instances", "pairs", "allocations", "clusters", "pool_size", "seed",
        "state_cap", "_precedence", "_drawn", "_schedules",
    )

    def __init__(
        self,
        v: ValidatedProblem,
        instances: dict[str, TaskInstance],
        pairs: list[PrecedencePair],
        allocations: list[dict[str, frozenset[str]]],
        clusters: list[list[RobotCluster]],
        pool_size: int,  # permutations per allocation
        seed: int,
        state_cap: int = DEFAULT_STATE_CAP,
    ):
        self.v = v
        self.instances = instances
        self.pairs = pairs
        self.allocations = allocations
        self.clusters = clusters
        self.pool_size = pool_size
        self.seed = seed
        self.state_cap = state_cap
        # allocation index -> robot_precedence of its whole robot set
        self._precedence: dict[int, list] = {}
        self._drawn: dict[tuple[int, int], dict[str, tuple[str, ...]]] = {}
        self._schedules: dict[tuple, SchedulingResult] = {}

    def chromosomes(self):
        for a in range(len(self.allocations)):
            for p in range(self.pool_size):
                yield Chromosome(a, p)

    def permutation(self, a: int, p: int) -> dict[str, tuple[str, ...]]:
        """Pool entry ``p`` of allocation ``a``, drawn on first request and
        kept.  Each entry has its own seed, ``f"{seed}:{a}:{p}"``, so it
        does not depend on which entries were drawn before it.  The
        allocation's precedence structure is computed for its first entry
        and shared by the rest."""
        drawn = self._drawn.get((a, p))
        if drawn is None:
            if not (0 <= a < len(self.allocations) and 0 <= p < self.pool_size):
                raise IndexError(f"no pool entry ({a}, {p})")
            precedence = self._precedence.get(a)
            if precedence is None:
                allocation = self.allocations[a]
                whole = RobotCluster(used_robots(allocation), frozenset(allocation))
                precedence = robot_precedence(allocation, whole, self.pairs)
                self._precedence[a] = precedence
            drawn = random_task_permutation(precedence, seed=f"{self.seed}:{a}:{p}")
            self._drawn[(a, p)] = drawn
        return drawn


def prepare_search(
    v: ValidatedProblem,
    allocator_cfg: AllocatorConfig,
    ga_cfg: GaConfig,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SearchSpace:
    """Expand the mission, enumerate allocations and cluster robots; the
    permutation pools are drawn lazily by :meth:`SearchSpace.permutation`."""
    root, pairs = expand_mission(v)
    leaves = root.leaves()
    instances = {inst.instance_id: inst for inst in leaves}
    subtrees = prune_subtrees(root)
    allocations = enumerate_allocations(v, leaves, allocator_cfg)

    clusters = [cluster_robots(a, subtrees) for a in allocations]

    return SearchSpace(
        v=v,
        instances=instances,
        pairs=pairs,
        allocations=allocations,
        clusters=clusters,
        pool_size=ga_cfg.permutations_per_allocation,
        seed=ga_cfg.seed,
        state_cap=state_cap,
    )


def evaluate(
    space: SearchSpace,
    ch: Chromosome,
    cache: dict[Chromosome, EvalResult],
) -> EvalResult:
    """Solve every cluster of the chromosome's allocation; memoized.

    Objectives aggregate across clusters: failure probability composes
    multiplicatively, idle and travel add.  Any infeasible cluster makes
    the chromosome infeasible; a state-space blowup is reported as an
    infeasible result marked ``capped`` rather than an error.
    """
    hit = cache.get(ch)
    if hit is not None:
        return hit

    allocation = space.allocations[ch.alloc_idx]
    permutation = space.permutation(*ch)
    feasible, capped = True, False
    p_success = 1.0
    idle = 0
    travel = 0
    timelines: dict[str, tuple] = {}
    try:
        for cluster in space.clusters[ch.alloc_idx]:
            orders = tuple((r, permutation[r]) for r in sorted(cluster.robots))
            sched = space._schedules.get(orders)
            if sched is None:
                sched = schedule_cluster(
                    space.v,
                    allocation,
                    cluster,
                    dict(orders),
                    space.pairs,
                    space.instances,
                    state_cap=space.state_cap,
                )
                space._schedules[orders] = sched
            if not sched.feasible:
                feasible = False
                break
            p_success *= sched.p_success
            idle += sched.idle
            travel += sched.travel
            timelines.update(sched.plan.timelines)
    except StateExplosion:
        feasible, capped = False, True

    if feasible:
        objectives = Objectives(1.0 - p_success, idle, travel)
        result = EvalResult(True, objectives, Plan(timelines))
    else:
        result = EvalResult(False, capped=capped)
    cache[ch] = result
    return result


# -- NSGA-II machinery -------------------------------------------------------


def fast_nondominated_sort(results: list[EvalResult]) -> list[list[int]]:
    """Deb's nondominated sort under constrained domination.

    Members with equal objectives dominate, and are dominated by, the same
    members, so dominance is decided once per pair of distinct keys: the
    objective tuple of a feasible member, or None, which every feasible
    key dominates, for an infeasible one.  A key's domination count is
    the number of members, not keys, that dominate it.  The fronts list
    members in the order of Deb's member-by-member peeling: front 0 in
    ascending index order; each later front in the order its members'
    counts reach zero while the previous front is walked, ascending index
    among members that the same member releases.
    """
    members: dict[Objectives | None, list[int]] = {}
    key_of = []
    for i, r in enumerate(results):
        key = r.objectives if r.feasible else None
        members.setdefault(key, []).append(i)
        key_of.append(key)
    beats: dict[Objectives | None, list] = {key: [] for key in members}
    count = dict.fromkeys(members, 0)
    feasible = [key for key in members if key is not None]
    for a in feasible:
        a0, a1, a2 = a
        weight = len(members[a])
        for b in feasible:
            if a0 <= b[0] and a1 <= b[1] and a2 <= b[2] and b is not a:
                beats[a].append(b)
                count[b] += weight
        if None in members:
            beats[a].append(None)
            count[None] += weight

    fronts: list[list[int]] = []
    front = sorted(i for key, idx in members.items() if not count[key] for i in idx)
    while front:
        fronts.append(front)
        front = []
        for p in fronts[-1]:
            released = []
            for b in beats[key_of[p]]:
                count[b] -= 1
                if not count[b]:
                    released += members[b]
            front += sorted(released)
    return fronts


def crowding_distance(front: list[int], results: list[EvalResult]) -> dict[int, float]:
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


class ParetoEntry(NamedTuple):
    chromosome: Chromosome
    objectives: Objectives
    plan: Plan


class ParetoFront(NamedTuple):
    entries: tuple[ParetoEntry, ...]


def _initial_population(space: SearchSpace, cfg: GaConfig, rng) -> list[Chromosome]:
    """Every chromosome, topped up with random repeats, when the space fits
    in the population; otherwise uniform random draws.  The space is listed
    only when it fits."""
    if len(space.allocations) * space.pool_size <= cfg.population_size:
        everything = list(space.chromosomes())
        pop = list(everything)
        while len(pop) < cfg.population_size:
            pop.append(everything[rng.randrange(len(everything))])
        return pop
    return [
        Chromosome(
            rng.randrange(len(space.allocations)),
            rng.randrange(space.pool_size),
        )
        for _ in range(cfg.population_size)
    ]


def nsga2_run(space: SearchSpace, cfg: GaConfig) -> ParetoFront:
    """Elitist NSGA-II over the chromosome space.

    Returns the nondominated feasible set of the final population, sorted
    by objectives; raises :class:`NoFeasibleSolution` when the whole run
    saw no feasible chromosome.
    """
    if not space.allocations:
        raise NoFeasibleSolution("no allocations to search", 0, 0)
    rng = random.Random(f"nsga2:{cfg.seed}")
    cache: dict[Chromosome, EvalResult] = {}

    population = _initial_population(space, cfg, rng)
    for generation in range(cfg.generations):
        results = [evaluate(space, ch, cache) for ch in population]
        fronts = fast_nondominated_sort(results)
        rank = {}
        crowd = {}
        for r, front in enumerate(fronts):
            dist = crowding_distance(front, results)
            for i in front:
                rank[i] = r
                crowd[i] = dist[i]

        def better(i, j):
            if rank[i] != rank[j]:
                return i if rank[i] < rank[j] else j
            if crowd[i] != crowd[j]:
                return i if crowd[i] > crowd[j] else j
            return min(i, j)

        offspring: list[Chromosome] = []
        while len(offspring) < cfg.population_size:
            a = better(rng.randrange(len(population)), rng.randrange(len(population)))
            b = better(rng.randrange(len(population)), rng.randrange(len(population)))
            c1, c2 = population[a], population[b]
            if rng.random() < CROSSOVER_RATE:
                g1, g2 = list(c1), list(c2)
                for g in range(2):
                    if rng.random() < 0.5:
                        g1[g], g2[g] = g2[g], g1[g]
                c1, c2 = Chromosome(*g1), Chromosome(*g2)
            offspring.extend(_mutate(c, space, rng) for c in (c1, c2))
        offspring = offspring[: cfg.population_size]

        combined = population + offspring
        combined_results = [evaluate(space, ch, cache) for ch in combined]
        population = _environmental_selection(combined, combined_results, cfg)

    final_results = [evaluate(space, ch, cache) for ch in population]
    front = _feasible_front(population, final_results)
    if not front:
        evaluated = len(cache)
        infeasible = sum(1 for r in cache.values() if not r.feasible)
        capped = sum(1 for r in cache.values() if r.capped)
        why = f"{infeasible} infeasible"
        if capped:
            why += f"; {capped} exceeded the state cap of {space.state_cap}"
        raise NoFeasibleSolution(
            f"no feasible chromosome among {evaluated} evaluated ({why})",
            evaluated=evaluated,
            infeasible=infeasible,
        )
    return ParetoFront(tuple(front))


def _mutate(ch: Chromosome, space: SearchSpace, rng) -> Chromosome:
    if rng.random() >= MUTATION_RATE:
        return ch
    if rng.random() < 0.5:
        return Chromosome(rng.randrange(len(space.allocations)), ch.perm_idx)
    return Chromosome(ch.alloc_idx, rng.randrange(space.pool_size))


def _environmental_selection(combined, results, cfg) -> list[Chromosome]:
    fronts = fast_nondominated_sort(results)
    chosen: list[int] = []
    for front in fronts:
        if len(chosen) + len(front) <= cfg.population_size:
            chosen.extend(sorted(front))
            continue
        dist = crowding_distance(front, results)
        room = cfg.population_size - len(chosen)

        def sort_key(i):
            return (
                -dist[i],
                results[i].objectives if results[i].feasible else (2.0, 0, 0),
                combined[i],
            )

        # fill with distinct chromosomes first: a duplicate copy must never
        # crowd out the only copy of another front member
        seen: set[Chromosome] = set()
        uniques, copies = [], []
        for i in sorted(front):
            (copies if combined[i] in seen else uniques).append(i)
            seen.add(combined[i])
        ordered = sorted(uniques, key=sort_key) + sorted(copies, key=sort_key)
        chosen.extend(ordered[:room])
        break
    return [combined[i] for i in chosen]


def _feasible_front(population, results) -> list[ParetoEntry]:
    return _nondominated(
        [(ch, res) for ch, res in zip(population, results) if res.feasible]
    )


def _nondominated(feasible) -> list[ParetoEntry]:
    """The nondominated (chromosome, result) pairs of a feasible list, as
    entries sorted by objectives, then chromosome, with one entry per plan.

    Dominance is decided once per distinct objective vector, since members
    with equal vectors are dominated by the same members.  Distinct
    chromosomes often give every robot the same order, since pool entries
    repeat orders, and so the same plan; only the first in that order is
    kept.  A repeated chromosome repeats its plan too.
    """
    vectors = {res.objectives for _, res in feasible}
    kept = {o for o in vectors if not any(dominates(p, o) for p in vectors)}
    front = [(ch, res) for ch, res in feasible if res.objectives in kept]
    front.sort(key=lambda e: (e[1].objectives, e[0]))
    seen = set()
    entries = []
    for ch, res in front:
        plan = tuple(sorted(res.plan.timelines.items()))
        if plan not in seen:
            seen.add(plan)
            entries.append(ParetoEntry(ch, res.objectives, res.plan))
    return entries


def brute_force_front(space: SearchSpace, cache=None) -> list[ParetoEntry]:
    """Exact Pareto set by evaluating the whole chromosome space.

    Test oracle for desk-scale spaces; shares :func:`evaluate` but not the
    search machinery.
    """
    cache = {} if cache is None else cache
    evaluated = [(ch, evaluate(space, ch, cache)) for ch in space.chromosomes()]
    return _nondominated([(ch, res) for ch, res in evaluated if res.feasible])
