"""Enumerate task allocations and cluster interdependent robots.

An allocation assigns each atomic instance a team of capable robots.
Robots sharing a constraint subtree must be scheduled together; the
transitive closure of that relation yields the clusters, which
``cluster_robots`` computes by union-find.
"""

from pathlib import Path

from kanoa import (
    AllocatorConfig,
    cluster_robots,
    count_feasible,
    enumerate_allocations,
    expand_mission,
    parse_problem,
    prune_subtrees,
    validate_problem,
)

HERE = Path(__file__).parent
v = validate_problem(
    parse_problem((HERE.parent / "fixtures" / "hospital.kanoa").read_text())
)
tree, pairs = expand_mission(v)
leaves = tree.leaves()
subtrees = prune_subtrees(tree)

total = count_feasible(v, leaves)
print(f"feasible allocation space: {total:,} assignments")

allocations = enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=5))
print(f"sampled {len(allocations)} of them\n")

for i, a in enumerate(allocations):
    loads = {}
    for team in a.values():
        for r in team:
            loads[r] = loads.get(r, 0) + 1
    print(f"allocation {i}: loads {dict(sorted(loads.items()))}")
    print(f"  move teams: {sorted(a['at1_move_0'])} and "
          f"{sorted(a['at1_move_1'])}")
    for g in cluster_robots(a, subtrees):
        print(f"  cluster {sorted(g.robots)}: {len(g.instances)} instances")
