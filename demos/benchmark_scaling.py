"""Measure how evaluation cost grows with robot-cluster size.

Rebuilds the cleaning mission with one, two, and three cleaner robots and
prints the mean per-chromosome evaluation time as a table: the fastest of
five interleaved passes, each on a freshly prepared search space, after
one untimed warm-up pass.  The recorded benchmark is
``python3 perfbench/run.py --workload all`` (docs/benchmark.md).
"""

import time

from kanoa import AllocatorConfig, GaConfig, parse_problem, validate_problem
from kanoa.optimizer import evaluate, prepare_search

VARIANT = """
world {{
  loc room2 (6, 0)
  loc room3 (12, 0)
  loc room4 (0, 7)
  loc room5 (6, 7)
  loc dock (12, 3)
}}
tasks {{
  atomic at2_floor robots 1
  atomic at3_sanit robots 1
  atomic at4_notify robots 1
  compound ct1_clean = {{ at2_floor, at3_sanit }}
  compound ct2_patient = ordered {{ at4_notify, ct1_clean }}
}}
robots {{
{robots}
}}
mission {{
  task ct2_patient at room2
  task ct2_patient at room3
  task ct2_patient at room4
  task ct2_patient at room5
  time 200
}}
"""

CLEANER = """  robot r{i} at dock velocity 1 {{
    can at4_notify time 2 prob 0.9
    can at2_floor time 8 prob 0.9
    can at3_sanit time 5 prob 0.9
  }}"""


REPEATS = 5


def mission(nrobots: int):
    robots = "\n".join(CLEANER.format(i=i + 3) for i in range(nrobots))
    return validate_problem(parse_problem(VARIANT.format(robots=robots)))


def measure(v):
    """Seconds per chromosome of one evaluation pass over a fresh space, so
    that no cluster schedule is already memoized; the space and the cache."""
    cfg = GaConfig(population_size=8, generations=2,
                   permutations_per_allocation=5, seed=0)
    space = prepare_search(v, AllocatorConfig(max_allocations=5), cfg)
    cache = {}
    t0 = time.perf_counter()
    for ch in space.chromosomes():
        evaluate(space, ch, cache)
    return (time.perf_counter() - t0) / len(cache), space, cache


missions = {n: mission(n) for n in (1, 2, 3)}
# untimed warm-up: the first calls of a process pay one-off costs that
# would otherwise land on the 1-cleaner row
for v in missions.values():
    measure(v)
# a pass takes a few milliseconds, so keep the fastest of a few,
# interleaved across cleaner counts
best = {}
for _ in range(REPEATS):
    for n, v in missions.items():
        run = measure(v)
        if n not in best or run[0] < best[n][0]:
            best[n] = run

print(f"fastest of {REPEATS} passes, after one untimed warm-up pass")
print("| cleaners | ms / chromosome | chromosomes | feasible | largest cluster |")
print("|---------:|----------------:|------------:|---------:|----------------:|")
for n, (per, space, cache) in best.items():
    feasible = sum(1 for r in cache.values() if r.feasible)
    biggest = max((len(c.robots) for cl in space.clusters for c in cl), default=0)
    print(f"| {n} | {per * 1000:.2f} | {len(cache)} | {feasible} | {biggest} |")
