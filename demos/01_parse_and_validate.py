"""Parse a mission file and inspect the validated problem.

Shows the block structure of the DSL, how the validated problem falls
back to straight-line distances for undeclared pairs, and the
pretty-print round trip.
"""

import math
from pathlib import Path

from kanoa import parse_problem, pretty_print, validate_problem

HERE = Path(__file__).parent
text = (HERE.parent / "fixtures" / "hospital.kanoa").read_text()

spec = parse_problem(text)
print(f"locations: {[l.id for l in spec.locations]}")
print(f"robots:    {[r.id for r in spec.robots]}")
print(f"mission:   {[(m.task_id, m.location_id) for m in spec.mission_tasks]}")

v = validate_problem(spec)

# the file declares only corridor distances; any other pair reads the
# ceiling of the straight-line distance, computed when first asked for
declared = {(d.frm, d.to) for d in spec.distances}
n = len(spec.locations)
print(f"\ndeclared distance pairs: {len(declared)}")
print(f"undeclared pairs:        {n * (n - 1) // 2 - len(declared)}")
print(f"room1 -> room6 (straight line): {v.distance('room1', 'room6')}")
print(f"room1 -> room2 (declared): {v.distance('room1', 'room2')}")

# travel time is distance over velocity, rounded up to whole time units;
# velocities are exact fractions, so the ceiling is exact too
r5 = v.robot("r5")
dist = v.distance("dock2", "room2")
print(f"\nr5 velocity {r5.velocity}: dock2 -> room2 takes "
      f"{math.ceil(dist / r5.velocity)} time units (distance {dist})")

# printing and reparsing reproduces the same AST
assert parse_problem(pretty_print(spec)) == spec
print("\npretty-print round trip: OK")
