"""The failure-lumped chain that ``schedule_cluster`` solves for the
front's plans, against the paper's full model that ``--dump-mdp`` writes.

The chain keeps only the success outcome of every stochastic action and
only the first action of every state (``build_mdp(ctx, failures=False)``).
These tests hold it to the full model state by state, on random clusters
and on every cluster a default hospital run scores, and hold whole runs
to runs whose every scoring and scheduling call builds and solves the
full model: on the fixtures, the benchmark's sub-instances and small
random, relay and fleet missions.
"""

import random
from pathlib import Path

import pytest
from helpers import (
    assert_golden_artifacts,
    benchmark_missions,
    cold_context,
    perfbench_mission,
    random_clusters,
    random_problem_text,
    reference_schedule,
    reference_score,
    with_time_available,
)
from oracles import (
    pairwise_nondominated_sort,
    reference_crowding_distance,
    reference_key_fronts,
)

import kanoa.optimizer
from kanoa.cli import main
from kanoa.mdp import _SLOTS, FAILED, build_mdp
from kanoa.plans import extract_plan
from kanoa.reporting import PipelineConfig, run
from kanoa.solver import min_expected_reward_policy, topological_order

ROOT = Path(__file__).resolve().parent.parent


def state_values(mdp):
    """Per state: the maximal probability of reaching ``done``, and the
    minimum expected idle over actions whose successors all reach it
    surely (infinite where there is none), by backward induction."""
    done = mdp.label_states("done")
    reach = [0.0] * mdp.n_states
    idle = [float("inf")] * mdp.n_states
    for s in reversed(topological_order(mdp)):
        if s in done:
            reach[s], idle[s] = 1.0, 0.0
            continue
        for c in mdp.choices[s]:
            reach[s] = max(reach[s], sum(p * reach[t] for p, t in c.branches))
            if all(reach[t] >= 1.0 - 1e-9 for _, t in c.branches):
                cost = c.idle_reward + sum(p * idle[t] for p, t in c.branches)
                idle[s] = min(idle[s], cost)
    return reach, idle


def plan_of(mdp, reach):
    """(minimum idle, plan) when ``reach``, the model's probability of
    reaching done, is 1; else None."""
    if reach < 1.0 - 1e-9:
        return None
    idle, policy = min_expected_reward_policy(mdp, "idle", "done")
    return round(idle), extract_plan(mdp, policy)


def assert_lumped_matches_full(case):
    """Every state of the chain is an unfailed state of the full model;
    its one action is that state's first action, reaching the chain's
    next state through its success outcome; and its reach and minimum-idle
    values are those of the full state.  Returns whether the cluster is
    feasible."""
    ctx = cold_context(*case)
    full = build_mdp(ctx)
    lumped = build_mdp(ctx, failures=False)
    assert set(lumped.labels) == {"done"}

    at = {s: i for i, s in enumerate(full.states)}
    full_reach, full_idle = state_values(full)
    reach, idle = state_values(lumped)
    for i, s in enumerate(lumped.states):
        assert not ctx.ever_failed(s)
        assert not any(s[_SLOTS * k + 1] == FAILED for k in range(ctx.nrobots))
        j = at[s]
        assert len(lumped.choices[i]) == min(1, len(full.choices[j]))
        for c, fc in zip(lumped.choices[i], full.choices[j]):
            assert (c.kind, c.robot, c.step) == (fc.kind, fc.robot, fc.step)
            [(p, t)] = c.branches
            assert p == 1.0 and lumped.states[t] == full.states[fc.branches[0][1]]
        assert reach[i] == pytest.approx(full_reach[j], abs=1e-9)
        assert idle[i] == pytest.approx(full_idle[j], abs=1e-9)
        assert (i in lumped.label_states("done")) == (j in full.label_states("done"))

    planned = plan_of(lumped, reach[lumped.initial])
    assert planned == plan_of(full, full_reach[full.initial])
    return planned is not None


@pytest.mark.parametrize("idle_caps", [False, True])
def test_random_lumped_models_match_full(idle_caps):
    rng = random.Random(8192 + idle_caps)
    checked = feasible = 0
    while checked < 300:
        for case in random_clusters(rng, idle_caps, draws=3):
            feasible += assert_lumped_matches_full(
                with_time_available(case, rng.randint(4, 24))
            )
            checked += 1
    assert 0.2 * checked < feasible < 0.8 * checked


def test_hospital_lumped_models_match_full(hospital_calls):
    feasible = sum(
        assert_lumped_matches_full(args) for args, _, _ in hospital_calls
    )
    assert 0 < feasible < len(hospital_calls)


@pytest.mark.parametrize("name", ["hospital_0", "hospital_1", "relay", "fleet"])
def test_run_artifacts_match_full_model_runs(name, tmp_path, monkeypatch, request):
    """pareto.csv, pareto.json and plan_*.json of a real run equal, byte
    for byte, those of a run whose every scoring and scheduling call builds
    and solves the full model.  For hospital GA seed 0 that run is the
    session's ``hospital_reference_run``."""
    if name.startswith("hospital"):
        mission = ROOT / "fixtures" / "hospital.kanoa"
        cfg = PipelineConfig(seed=int(name[-1]))
    else:
        text, cfg = perfbench_mission(name)
        mission = tmp_path / "mission.kanoa"
        mission.write_text(text, encoding="utf-8")
    run(mission, cfg, tmp_path / "real")
    if name == "hospital_0":
        full = request.getfixturevalue("hospital_reference_run")[1]
    else:
        monkeypatch.setattr(kanoa.optimizer, "score_cluster", reference_score)
        monkeypatch.setattr(kanoa.optimizer, "schedule_cluster", reference_schedule)
        full = tmp_path / "full"
        run(mission, cfg, full)
    assert_golden_artifacts(full, tmp_path / "real")


# (mission kind, seeds): small random missions, with and without idle
# caps, and a few relay and fleet missions
RANDOM_RUNS = [("random", range(40)), ("random_idle_caps", range(40)),
               ("relay", range(3)), ("fleet", range(3))]


def mission_text(kind, seed):
    if kind.startswith("random"):
        rng = random.Random(f"{kind}:{seed}")
        return random_problem_text(rng, idle_caps=kind == "random_idle_caps")
    return getattr(benchmark_missions(), f"{kind}_text")(seed)


@pytest.mark.parametrize("kind,seeds", RANDOM_RUNS, ids=[k for k, _ in RANDOM_RUNS])
def test_random_mission_runs_match_full_model_runs(kind, seeds, tmp_path, monkeypatch):
    """Whole runs of small missions at a config that plans in milliseconds
    exit as, and write the pareto tables and plans of, runs whose every
    score and schedule builds and solves the full model and whose ranking
    compares every pair of members, exit 2 included."""
    exits = []
    for seed in seeds:
        mission = tmp_path / f"{seed}.kanoa"
        mission.write_text(mission_text(kind, seed), encoding="utf-8")
        argv = ["plan", "--input", str(mission), "--allocations", "6",
                "--permutations", "4", "--pop", "8", "--gens", "3", "--seed", str(seed)]
        real = main(argv + ["--out", str(tmp_path / f"real{seed}")])
        with monkeypatch.context() as m:
            m.setattr(kanoa.optimizer, "score_cluster", reference_score)
            m.setattr(kanoa.optimizer, "schedule_cluster", reference_schedule)
            m.setattr(kanoa.optimizer, "fast_nondominated_sort", pairwise_nondominated_sort)
            m.setattr(kanoa.optimizer, "crowding_distance", reference_crowding_distance)
            m.setattr(kanoa.optimizer, "_key_fronts", reference_key_fronts)
            full = main(argv + ["--out", str(tmp_path / f"full{seed}")])
        assert real == full, seed
        assert_golden_artifacts(tmp_path / f"full{seed}", tmp_path / f"real{seed}")
        exits.append(real)
    assert 0 in exits
    if kind.startswith("random"):
        assert 2 in exits
