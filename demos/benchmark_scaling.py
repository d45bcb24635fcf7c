"""Measure how evaluation cost grows with robot-cluster size.

Rebuilds the cleaning mission with one, two, and three cleaner robots and
prints the mean per-chromosome evaluation time as a table.  The recorded
benchmark is ``python3 perfbench/run.py --workload all`` (docs/benchmark.md).
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


def measure(nrobots: int):
    robots = "\n".join(CLEANER.format(i=i + 3) for i in range(nrobots))
    v = validate_problem(parse_problem(VARIANT.format(robots=robots)))
    cfg = GaConfig(population_size=8, generations=2,
                   permutations_per_allocation=5, seed=0)
    space = prepare_search(v, AllocatorConfig(max_allocations=5), cfg)
    cache = {}
    t0 = time.perf_counter()
    for ch in space.chromosomes():
        evaluate(space, ch, cache)
    per = (time.perf_counter() - t0) / len(cache)
    feasible = sum(1 for r in cache.values() if r.feasible)
    biggest = max((len(c.robots) for cl in space.clusters for c in cl), default=0)
    return per, len(cache), feasible, biggest


print("| cleaners | ms / chromosome | chromosomes | feasible | largest cluster |")
print("|---------:|----------------:|------------:|---------:|----------------:|")
for n in (1, 2, 3):
    per, total, feasible, biggest = measure(n)
    print(f"| {n} | {per * 1000:.2f} | {total} | {feasible} | {biggest} |")
