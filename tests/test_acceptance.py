"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import math
import random
import time
from itertools import permutations as iterperms

import numpy as np
import pytest
from helpers import (
    enumerate_policy_values,
    expanded,
    load,
    random_scheduling_model,
    single_robot_problem,
    wide_joint_task_text,
)
from oracles import (
    InterdependenceMatrix,
    brute_force_allocations,
    chain_travel,
    closure_by_multiplication,
    clusters,
    dominates,
    relation_matrix,
    transitive_closure,
)

from kanoa.allocation import (
    AllocatorConfig,
    count_feasible,
    enumerate_allocations,
    used_robots,
)
from kanoa.clustering import cluster_robots
from kanoa.mdp import build_mdp
from kanoa.optimizer import (
    GaConfig,
    brute_force_front,
    evaluate,
    nsga2_run,
    prepare_search,
)
from kanoa.parser import parse_problem
from kanoa.plans import check_plan
from kanoa.printer import pretty_print
from kanoa.errors import DslSyntaxError
from kanoa.scheduling import success_probability
from kanoa.solver import max_reach_probability, min_expected_reward
from test_parser import MALFORMED


def verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_hospital_end_to_end(hospital_path, hospital, tmp_path):
    from kanoa.reporting import PipelineConfig, run

    cfg = PipelineConfig(
        allocations=10, permutations=10, population=20, generations=3, seed=0
    )
    t0 = time.perf_counter()
    report = run(hospital_path, cfg, tmp_path)
    elapsed = time.perf_counter() - t0

    _, instances, pairs, _ = expanded(hospital)
    caps = {r.id: 30 for r in hospital.problem.robots}
    problems = []
    for entry in report.front.entries:
        problems += check_plan(entry.plan, pairs, 100, caps)
    ok = bool(report.front.entries) and not problems and elapsed < 120
    verdict(
        1,
        ok,
        f"front of {len(report.front.entries)} sound plans in {elapsed:.1f}s "
        f"(budget 120s); plan violations: {problems}",
    )


def test_criterion_2_feasibility_oracle():
    from helpers import build_single_cluster_mdp

    tight = single_robot_problem(tt=5, dist=6, duration=1)
    mdp_tight, *_ = build_single_cluster_mdp(tight)
    p_tight = max_reach_probability(mdp_tight, "done")

    enough = single_robot_problem(tt=7, dist=6, duration=1)
    mdp_ok, *_ = build_single_cluster_mdp(enough)
    p_ok = max_reach_probability(mdp_ok, "done")

    ok = p_tight == 0.0 and p_ok == 1.0
    verdict(2, ok, f"budget 5 with travel 6 -> {p_tight}; budget 7 -> {p_ok} (exact)")


def test_criterion_3_mdp_objective_oracles():
    rng = random.Random(20240809)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 3000:
        attempts += 1
        made = random_scheduling_model(rng, max_decision=12)
        if made is None:
            continue
        v, allocation, cluster, permutation, mdp = made
        if mdp.n_states > 400:
            continue
        oracle_prob, oracle_idle = enumerate_policy_values(mdp, "idle", "done")
        solver_prob = max_reach_probability(mdp, "done")
        assert solver_prob == pytest.approx(oracle_prob, abs=1e-9)
        if solver_prob >= 1.0 - 1e-9:
            solver_idle = min_expected_reward(mdp, "idle", "done")
            assert round(solver_idle) == round(oracle_idle)
            assert abs(solver_idle - round(solver_idle)) < 1e-9

            _, instances, _, _ = expanded(v)
            analytic = success_probability(v, allocation, cluster, instances)
            assert max_reach_probability(mdp, "success") == pytest.approx(
                analytic, abs=1e-9
            )
            assert min_expected_reward(mdp, "travel", "done") == chain_travel(
                permutation, v, instances
            )
        checked += 1
    verdict(
        3,
        checked >= 100,
        f"{checked} randomized instances matched the policy-enumeration, "
        f"analytic-product, and travel-chain oracles",
    )


def test_criterion_4_transitive_closure_oracle():
    rng = random.Random(4)
    rounds = 1000
    for _ in range(rounds):
        n = rng.randint(1, 8)
        robots = tuple(f"r{i}" for i in range(n))
        m = np.eye(n, dtype=bool)
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            m[a, b] = m[b, a] = True
        matrix = InterdependenceMatrix(robots, m)
        warshall = transitive_closure(matrix)
        assert warshall == closure_by_multiplication(matrix)
        fake = {f"i{k}": frozenset({robots[k]}) for k in range(n)}
        subtrees = [
            frozenset({f"i{a}", f"i{b}"})
            for a in range(n) for b in range(n) if m[a, b]
        ]
        assert [g.robots for g in cluster_robots(fake, subtrees)] == [
            g.robots for g in clusters(warshall, fake)
        ]

    # the worked example: r3-r4 and r4-r5 share subtrees, r2 stands alone
    a = {
        "x": frozenset({"r3"}), "y": frozenset({"r4"}),
        "z": frozenset({"r4"}), "w": frozenset({"r5"}), "v": frozenset({"r2"}),
    }
    subtrees = [
        frozenset({"x", "y"}),
        frozenset({"z", "w"}),
        frozenset({"v"}),
    ]
    groups = clusters(transitive_closure(relation_matrix(a, subtrees)), a)
    named = [sorted(g.robots) for g in groups]
    ok = named == [["r2"], ["r3", "r4", "r5"]]
    verdict(4, ok, f"{rounds} random matrices agree across all three "
                   f"implementations; worked instance -> {named}")


def test_criterion_5_allocation_oracle():
    rng = random.Random(5)
    rounds = 0
    for _ in range(60):
        nrobots = rng.randint(1, 5)
        ntasks = rng.randint(1, 3)
        joint = rng.random() < 0.3 and nrobots >= 2
        lines = ["world { loc a (0,0) loc b (5,0) }", "tasks {"]
        for t in range(ntasks):
            k = 2 if joint and t == 0 else 1
            lines.append(f"  atomic t{t} robots {k}")
        lines.append("}")
        lines.append("robots {")
        for r in range(nrobots):
            caps = " ".join(
                f"can t{t} time 1 prob 1" for t in range(ntasks)
                if rng.random() < 0.8
            )
            lines.append(f"  robot r{r} at a velocity 1 {{ {caps} }}")
        lines.append("}")
        lines.append("mission {")
        for t in range(ntasks):
            for _ in range(rng.randint(1, 2)):
                lines.append(f"  task t{t} at {'a' if rng.random() < 0.5 else 'b'}")
        lines.append("  time 50")
        lines.append("}")
        try:
            v = load("\n".join(lines))
        except Exception:
            continue
        leaves, _, _, _ = expanded(v)
        if len(leaves) > 6:
            continue
        n = rng.randint(1, 8)
        allocs = enumerate_allocations(v, leaves, AllocatorConfig(max_allocations=n))
        oracle = list(brute_force_allocations(v, leaves))
        assert count_feasible(v, leaves) == len(oracle)
        positions = [oracle.index(a) for a in allocs]
        assert positions == sorted(positions)  # order-consistent subsequence
        assert len(set(positions)) == len(positions)
        for a in allocs:
            for inst in leaves:
                team = a[inst.instance_id]
                assert len(team) == inst.robots_needed
                assert all(v.robot(r).capability_for(inst.type_id) for r in team)
            assert used_robots(a) == {
                r for team in a.values() for r in team
            }
        rounds += 1
    verdict(5, rounds >= 40, f"{rounds} random allocation spaces verified "
                             f"against brute force and the product formula")


def test_criterion_6_nsga2_exactness(hospital):
    cfg = GaConfig(
        population_size=60, generations=5, permutations_per_allocation=10, seed=3
    )
    space = prepare_search(hospital, AllocatorConfig(max_allocations=6), cfg)
    assert len(list(space.chromosomes())) == 60
    front = nsga2_run(space, cfg)
    oracle = brute_force_front(space)
    got = [(e.chromosome, e.objectives) for e in front.entries]
    want = [(e.chromosome, e.objectives) for e in oracle]
    mutual = all(
        not dominates(b.objectives, a.objectives)
        for a in front.entries
        for b in front.entries
    )
    again = nsga2_run(space, cfg)
    deterministic = got == [(e.chromosome, e.objectives) for e in again.entries]
    ok = got == want and mutual and deterministic
    verdict(6, ok, f"front of {len(got)} equals the brute-force Pareto set over "
                   f"60 chromosomes; mutually nondominated; seed-stable")


def test_criterion_7_parser_round_trip(fixtures_dir):
    files = sorted(fixtures_dir.glob("*.kanoa"))
    assert files
    for path in files:
        spec = parse_problem(path.read_text(encoding="utf-8"))
        assert parse_problem(pretty_print(spec)) == spec, path.name
    crashes = 0
    positioned = 0
    for text in MALFORMED:
        try:
            parse_problem(text)
        except DslSyntaxError as exc:
            if exc.line >= 1 and exc.column >= 1 and exc.expected:
                positioned += 1
        except Exception:
            crashes += 1
    ok = crashes == 0 and positioned == len(MALFORMED) and len(MALFORMED) >= 20
    verdict(7, ok, f"{len(files)} fixtures round-trip; {positioned}/"
                   f"{len(MALFORMED)} malformed inputs diagnosed, 0 crashes")


SCALING_REPEATS = 5


def test_criterion_8_scaling_smoke(tmp_path):
    cfg = GaConfig(
        population_size=8, generations=2, permutations_per_allocation=5, seed=0
    )
    # one joint task for all robots: scoring the cluster walks an
    # earliest-start schedule of one travel per robot and the sync, so its
    # work grows with the robot count.  One to three cleaners each work alone and cost
    # about the same per chromosome.
    missions = [(n, load(wide_joint_task_text(n))) for n in (2, 8, 32)]

    def timed(v):
        """Seconds per chromosome of one evaluation pass, the space and the
        chromosome count.  The space is fresh, so that no cluster score is
        already memoized."""
        space = prepare_search(v, AllocatorConfig(max_allocations=5), cfg)
        cache = {}
        t0 = time.perf_counter()
        for ch in space.chromosomes():
            evaluate(space, ch, cache)
        return (time.perf_counter() - t0) / len(cache), space, len(cache)

    # untimed warm-up: the first calls of a process pay one-off costs that
    # would otherwise land on the 1-robot case
    for _, v in missions:
        timed(v)

    # a pass takes a few milliseconds, so keep the fastest of a few,
    # interleaved across robot counts
    best = {}
    for _ in range(SCALING_REPEATS):
        for nrobots, v in missions:
            per, space, evaluated = timed(v)
            if nrobots not in best or per < best[nrobots][0]:
                best[nrobots] = (per, space, evaluated)

    means = []
    details = []
    for nrobots, _ in missions:
        per, space, evaluated = best[nrobots]
        biggest = max(
            (len(c.robots) for cl in space.clusters for c in cl), default=0
        )
        means.append(per)
        details.append(
            f"{nrobots} robot(s): {per * 1000:.2f} ms/chromosome over "
            f"{evaluated} chromosomes (largest cluster {biggest})"
        )
    report = "\n".join(
        ["scaling smoke test: mean evaluation time per chromosome, "
         f"fastest of {SCALING_REPEATS} passes"] + details
    )
    (tmp_path / "benchmark_report.txt").write_text(report + "\n")
    print(report)
    ok = means[0] < means[1] < means[2]
    verdict(8, ok, "; ".join(details))
