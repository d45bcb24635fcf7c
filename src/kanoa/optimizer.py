"""NSGA-II search over (allocation, permutation) chromosomes.

A chromosome is a pair of small indices: into the allocation list, and
into that allocation's pool of whole-allocation task permutations.  A pool
entry is drawn, from its own seed, the first time it is used.  Evaluation
scores each robot cluster in closed form and aggregates the three
objectives; the search builds no model and carries no plan.  Infeasible
chromosomes rank below every feasible one (constrained domination).
After the last generation, only the chromosomes of the final front get
their plans, from each cluster's model.  Everything is driven by a single
seed and fully reproducible.

Two memos keep the search from repeating work.  ``evaluate`` keeps each
chromosome's result, and each :class:`SearchSpace` keeps each cluster
score, keyed on the cluster's per-robot task orders.  Distinct
chromosomes often give a cluster the same orders: a robot with few tasks
has few orders to draw, and allocations that differ only in other robots'
tasks share the cluster.  Such a cluster is scored once per search.  What
an allocation fixes for its clusters, and each robot's hops, are built
once per search too, and shared by every score and plan that needs them.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .allocation import AllocatorConfig, enumerate_allocations, used_robots
from .clustering import RobotCluster, cluster_robots
from .errors import NoFeasibleSolution
from .mdp import DEFAULT_STATE_CAP
from .permutations import draw_state, random_task_permutation, robot_precedence
from .plans import Plan
from .problem import ValidatedProblem
from .scheduling import (
    ClusterFacts, Hops, SchedulingResult, schedule_cluster, score_cluster,
)
from .taskgraph import (
    PrecedencePair,
    TaskInstance,
    expand_mission,
    prune_subtrees,
)

CROSSOVER_RATE = 0.9  # chance that a selected pair swaps genes
MUTATION_RATE = 0.2  # chance that an offspring redraws one gene

# Largest population a search may hold (measured in docs/formats.md).  At
# this limit one generation of minimal.kanoa or hospital.kanoa peaked at
# 88 MB resident.  A fleet mission holds nearly one objective vector per
# member: one generation of it at 10,000 members took 6.5 s and 83 MB
# resident; 100,000 was not run there.
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


class SearchSpace:
    """Pools and cached structure shared by every evaluation.

    ``_scores`` memoizes :func:`score_cluster` on a cluster's per-robot
    orders, ``((robot, order), ...)`` in robot order.  Within one space,
    ``v``, ``pairs`` and ``instances`` are fixed, and so is the time
    budget, which every score reads from the mission's ``time`` constraint
    in ``v``.  Every robot's order lists every instance allocated to it,
    and every instance's team lies inside one cluster, so the orders
    determine the cluster's instances and each instance's team, which are
    the only parts of the allocation and the cluster that a score reads.
    Equal keys therefore give equal results, feasible or not.

    ``_facts`` keeps the :class:`ClusterFacts` of each (allocation index,
    cluster index) and ``hops`` the search's one :class:`Hops` memo.  A
    score reads both in :func:`earliest_start`, with no context;
    :func:`schedule_cluster` builds the front's :class:`ClusterContext`
    from them, under ``state_cap``, and so does ``--dump-mdp``.
    """

    __slots__ = (
        "v", "instances", "pairs", "allocations", "clusters", "pool_size", "seed",
        "state_cap", "_draws", "_robots", "_drawn", "_scores", "_facts", "hops",
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
        # allocation index -> draw_state of its whole robot set, and the
        # sorted robots of each of its clusters
        self._draws: dict[int, list] = {}
        self._robots: dict[int, list[tuple[str, ...]]] = {}
        self._drawn: dict[tuple[int, int], dict[str, tuple[str, ...]]] = {}
        self._scores: dict[tuple, SchedulingResult] = {}
        # (allocation index, cluster index) -> ClusterFacts, and the hop
        # memo of the search; both fill on first use.
        self._facts: dict[tuple[int, int], ClusterFacts] = {}
        self.hops = Hops(v, instances)

    def chromosomes(self):
        for a in range(len(self.allocations)):
            for p in range(self.pool_size):
                yield Chromosome(a, p)

    def facts(self, a: int, ci: int) -> ClusterFacts:
        """The :class:`ClusterFacts` of cluster ``ci`` of allocation ``a``,
        built on first request and kept."""
        facts = self._facts.get((a, ci))
        if facts is None:
            facts = self._facts[(a, ci)] = ClusterFacts(
                self.v, self.allocations[a], self.clusters[a][ci], self.pairs,
                self.instances,
            )
        return facts

    def permutation(self, a: int, p: int) -> dict[str, tuple[str, ...]]:
        """Pool entry ``p`` of allocation ``a``, drawn on first request and
        kept.  Each entry has its own seed, ``f"{seed}:{a}:{p}"``, so it
        does not depend on which entries were drawn before it.  The
        allocation's :func:`draw_state` and its clusters' sorted robots are
        computed for its first entry and shared by the rest."""
        drawn = self._drawn.get((a, p))
        if drawn is None:
            if not (0 <= a < len(self.allocations) and 0 <= p < self.pool_size):
                raise IndexError(f"no pool entry ({a}, {p})")
            state = self._draws.get(a)
            if state is None:
                allocation = self.allocations[a]
                whole = RobotCluster(used_robots(allocation), frozenset(allocation))
                state = self._draws[a] = draw_state(
                    robot_precedence(allocation, whole, self.pairs)
                )
                self._robots[a] = [tuple(sorted(c.robots)) for c in self.clusters[a]]
            drawn = random_task_permutation(state, seed=f"{self.seed}:{a}:{p}")
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
    space: SearchSpace, ch: Chromosome, cache: dict[Chromosome, EvalResult]
) -> EvalResult:
    """Score every cluster of the chromosome's allocation; memoized.

    Objectives aggregate across clusters: failure probability composes
    multiplicatively, idle and travel add.  Any infeasible cluster makes
    the chromosome infeasible.
    """
    hit = cache.get(ch)
    if hit is not None:
        return hit

    a = ch.alloc_idx
    permutation = space.permutation(*ch)
    p_success, idle, travel = 1.0, 0, 0
    for ci, robots in enumerate(space._robots[a]):
        orders = tuple([(r, permutation[r]) for r in robots])
        score = space._scores.get(orders)
        if score is None:
            score = space._scores[orders] = score_cluster(
                space.v, space.allocations[a], space.clusters[a][ci], permutation,
                space.pairs, space.instances, facts=space.facts(a, ci),
                hops=space.hops,
            )
        if not score.feasible:
            result = cache[ch] = EvalResult(False)
            return result
        p_success *= score.p_success
        idle += score.idle
        travel += score.travel
    result = cache[ch] = EvalResult(True, Objectives(1.0 - p_success, idle, travel))
    return result


# -- NSGA-II machinery -------------------------------------------------------


def _key_fronts(vectors) -> list[list[Objectives]]:
    """The nondominated fronts of distinct objective vectors (efficient
    nondominated sort with sequential search, Zhang et al. 2015).

    In lexicographic order a vector follows all that dominate it, and it
    joins the first front that holds none.  An earlier vector dominates it
    when no worse in idle and travel.  Each front is searched from its
    latest vector, the nearest in order and the likeliest dominator.
    """
    fronts: list[list[Objectives]] = []
    for b in sorted(vectors):
        _, b1, b2 = b
        for front in fronts:
            for _, a1, a2 in reversed(front):
                if a1 <= b1 and a2 <= b2:
                    break
            else:
                front.append(b)
                break
        else:
            fronts.append([b])
    return fronts


def fast_nondominated_sort(results: list[EvalResult]) -> list[list[int]]:
    """Deb's nondominated sort under constrained domination.

    The fronts of feasible members are those of their distinct objectives
    (:func:`_key_fronts`); infeasible members come last.  Each front lists
    its members in the order of Deb's member-by-member peeling, by which
    crowding distance breaks ties: front 0 by index; a later member by the
    position of the last member of the previous front that dominates it,
    then by index.
    """
    members: dict[Objectives | None, list[int]] = {}
    for i, r in enumerate(results):
        members.setdefault(r.objectives if r.feasible else None, []).append(i)
    infeasible = members.pop(None, [])
    keyed = _key_fronts(members)
    fronts = [sorted([i for b in keyed[0] for i in members[b]])] if keyed else []
    for keys in keyed[1:]:
        # each vector of the previous front at its last position, latest first
        latest, seen = [], set()
        for pos in range(len(fronts[-1]) - 1, -1, -1):
            a = results[fronts[-1][pos]].objectives
            if a not in seen:
                seen.add(a)
                latest.append((pos, *a))
        released = []
        for b in keys:
            b0, b1, b2 = b
            at = 0
            for pos, a0, a1, a2 in latest:
                if a0 <= b0 and a1 <= b1 and a2 <= b2:
                    at = pos
                    break
            released += [(at, i) for i in members[b]]
        fronts.append([i for _, i in sorted(released)])
    if infeasible:
        fronts.append(infeasible)
    return fronts


def crowding_distance(front: list[int], results: list[EvalResult]) -> dict[int, float]:
    dist = {i: 0.0 for i in front}
    scored = [i for i in front if results[i].feasible]
    if len(scored) < 3:
        for i in scored:
            dist[i] = float("inf")
        return dist
    vectors = [results[i].objectives for i in scored]
    for m in range(3):
        col = [vec[m] for vec in vectors]
        ordered = sorted(range(len(col)), key=col.__getitem__)  # stable on ties
        lo, hi = col[ordered[0]], col[ordered[-1]]
        dist[scored[ordered[0]]] = dist[scored[ordered[-1]]] = float("inf")
        if hi == lo:
            continue
        span = hi - lo
        for k in range(1, len(ordered) - 1):
            dist[scored[ordered[k]]] += (col[ordered[k + 1]] - col[ordered[k - 1]]) / span
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

    Each member carries its result: the initial population is scored
    once, then only each generation's offspring.  Returns the
    nondominated feasible set of the final population, sorted by
    objectives; raises :class:`NoFeasibleSolution` when the whole run saw
    no feasible chromosome.
    """
    if not space.allocations:
        raise NoFeasibleSolution("no allocations to search", 0, 0)
    rng = random.Random(f"nsga2:{cfg.seed}")
    cache: dict[Chromosome, EvalResult] = {}

    population = _initial_population(space, cfg, rng)
    results = [evaluate(space, ch, cache) for ch in population]
    for _ in range(cfg.generations):
        # binary tournament: the lower (rank, -crowding, index) wins
        n = len(population)
        keys = [None] * n
        for r, front in enumerate(fast_nondominated_sort(results)):
            dist = crowding_distance(front, results)
            for i in front:
                keys[i] = (r, -dist[i], i)

        offspring: list[Chromosome] = []
        while len(offspring) < cfg.population_size:
            a = min(keys[rng.randrange(n)], keys[rng.randrange(n)])[2]
            b = min(keys[rng.randrange(n)], keys[rng.randrange(n)])[2]
            c1, c2 = population[a], population[b]
            if rng.random() < CROSSOVER_RATE:
                g1, g2 = list(c1), list(c2)
                for g in range(2):
                    if rng.random() < 0.5:
                        g1[g], g2[g] = g2[g], g1[g]
                c1, c2 = Chromosome(*g1), Chromosome(*g2)
            offspring.extend(_mutate(c, space, rng) for c in (c1, c2))
        offspring = offspring[: cfg.population_size]

        # only the offspring are new; every member keeps its result
        combined = population + offspring
        combined_results = results + [evaluate(space, ch, cache) for ch in offspring]
        chosen = _environmental_selection(combined, combined_results, cfg)
        population = [combined[i] for i in chosen]
        results = [combined_results[i] for i in chosen]

    front = _nondominated(
        space, [(ch, res) for ch, res in zip(population, results) if res.feasible]
    )
    if not front:
        evaluated = len(cache)
        infeasible = sum(1 for r in cache.values() if not r.feasible)
        raise NoFeasibleSolution(
            f"no feasible chromosome among {evaluated} evaluated "
            f"({infeasible} infeasible)",
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


def _environmental_selection(combined, results, cfg) -> list[int]:
    """The indices into ``combined`` of the next population."""
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
    return chosen


def _plan(space: SearchSpace, ch: Chromosome) -> Plan:
    """The plan of a chromosome: each cluster's :func:`schedule_cluster`
    plan, built under the space's state cap, robots in cluster order."""
    a = ch.alloc_idx
    permutation = space.permutation(*ch)
    timelines: dict[str, tuple] = {}
    for ci, cluster in enumerate(space.clusters[a]):
        timelines.update(schedule_cluster(
            space.v, space.allocations[a], cluster, permutation, space.pairs,
            space.instances, state_cap=space.state_cap,
            facts=space.facts(a, ci), hops=space.hops,
        ).plan.timelines)
    return Plan(timelines)


def _nondominated(space: SearchSpace, feasible) -> list[ParetoEntry]:
    """The nondominated (chromosome, result) pairs of a feasible list, as
    entries sorted by objectives, then chromosome, with one entry per plan.

    The nondominated vectors are the first front of :func:`_key_fronts`.
    Each distinct candidate chromosome gets its plan from :func:`_plan`; a
    model over the space's state cap raises :class:`StateExplosion`.
    Distinct chromosomes often give every robot the same order, since pool
    entries repeat orders, and so the same plan; only the first in that
    order is kept.
    """
    fronts = _key_fronts({res.objectives for _, res in feasible})
    kept = set(fronts[0]) if fronts else set()
    front = sorted({(res.objectives, ch) for ch, res in feasible if res.objectives in kept})
    seen = set()
    entries = []
    for objectives, ch in front:
        plan = _plan(space, ch)
        key = tuple(sorted(plan.timelines.items()))
        if key not in seen:
            seen.add(key)
            entries.append(ParetoEntry(ch, objectives, plan))
    return entries


def brute_force_front(space: SearchSpace, cache=None) -> list[ParetoEntry]:
    """Exact Pareto set by evaluating the whole chromosome space.

    Test oracle for desk-scale spaces; shares :func:`evaluate` but not the
    search machinery.
    """
    cache = {} if cache is None else cache
    evaluated = [(ch, evaluate(space, ch, cache)) for ch in space.chromosomes()]
    return _nondominated(space, [(ch, res) for ch, res in evaluated if res.feasible])
