"""Expand the mission into atomic task instances and constraint subtrees.

Every mission task unfolds into uniquely numbered atomic instances;
ordered compounds contribute precedence pairs; a breadth-first pruning
pass groups instances that must be scheduled together.
"""

from pathlib import Path

from kanoa import expand_mission, parse_problem, prune_subtrees, validate_problem

HERE = Path(__file__).parent
v = validate_problem(
    parse_problem((HERE.parent / "fixtures" / "hospital.kanoa").read_text())
)

tree, pairs = expand_mission(v)
leaves = tree.leaves()
print(f"{len(leaves)} atomic instances:")
for inst in leaves:
    joint = f" (joint, {inst.robots_needed} robots)" if inst.robots_needed > 1 else ""
    print(f"  {inst.instance_id:<16} @ {inst.location}{joint}")

print(f"\n{len(pairs)} precedence pairs (notify gates the cleaning steps):")
for p in pairs:
    print(f"  {p.before} -> {p.after}")

subtrees = prune_subtrees(tree)
print(f"\n{len(subtrees)} constraint subtrees:")
for k, s in enumerate(subtrees):
    print(f"  subtree {k}: {sorted(s)}")
