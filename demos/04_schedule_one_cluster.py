"""Schedule one robot cluster by policy synthesis over an explicit MDP.

Builds the model for the two equipment movers, checks feasibility as a
maximal reachability query, minimizes expected idle time, and extracts
the concrete timed plan.  The search scores clusters from their
earliest-start schedules, and the front's plans come from a chain: the
failure-lumped model with one action per state, which gives the same
plan.
"""

from pathlib import Path

from kanoa import (
    expand_mission,
    format_gantt_text,
    max_reach_probability,
    min_expected_reward,
    parse_problem,
    prune_subtrees,
    validate_problem,
    write_mdp_text,
)
from kanoa.clustering import cluster_robots
from kanoa.mdp import ClusterContext, build_mdp
from kanoa.scheduling import ClusterFacts, Hops, schedule_cluster

HERE = Path(__file__).parent
v = validate_problem(
    parse_problem((HERE.parent / "fixtures" / "hospital.kanoa").read_text())
)
tree, pairs = expand_mission(v)
instances = {l.instance_id: l for l in tree.leaves()}
subtrees = prune_subtrees(tree)

# hand-pick an allocation: movers take both joint tasks, cleaners split rooms
allocation = {"at1_move_0": frozenset({"r1", "r2"}),
              "at1_move_1": frozenset({"r1", "r2"})}
cleaners = ["r3", "r4", "r5"]
for i, leaf in enumerate(l for l in tree.leaves() if l.type_id != "at1_move"):
    allocation[leaf.instance_id] = frozenset({cleaners[i % 3]})

movers = next(
    c for c in cluster_robots(allocation, subtrees)
    if c.robots == frozenset({"r1", "r2"})
)
permutation = {
    "r1": ("at1_move_0", "at1_move_1"),
    "r2": ("at1_move_0", "at1_move_1"),
}

# the model reads two records a search keeps: what the (allocation,
# cluster) pair fixes, and a memo of each robot's hops
facts = ClusterFacts(v, allocation, movers, pairs, instances)
ctx = ClusterContext(facts, permutation, Hops(v, instances))
mdp = build_mdp(ctx)
print(f"model: {mdp.n_states} states, "
      f"{sum(len(c) for c in mdp.choices)} action choices")
print(f"feasible (max reachability of done): "
      f"{max_reach_probability(mdp, 'done')}")
print(f"minimum expected idle: {min_expected_reward(mdp, 'idle', 'done')}")
print(f"maximum success probability: "
      f"{max_reach_probability(mdp, 'success'):.4f}")
chain = build_mdp(ctx, failures=False)
print(f"plan's chain: {chain.n_states} states against the full model's "
      f"{mdp.n_states}, minimum expected idle "
      f"{min_expected_reward(chain, 'idle', 'done')}")

result = schedule_cluster(v, allocation, movers, permutation, pairs, instances)
print(f"\nschedule (travel {result.travel}, idle {result.idle}, "
      f"success {result.p_success:.4f}):")
print(format_gantt_text(result.plan))

print("model dump (first lines):")
for line in write_mdp_text(mdp).splitlines()[:6]:
    print(" ", line)
