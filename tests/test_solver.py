import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from oracles import (
    reference_max_reach_probability,
    reference_min_expected_reward_policy,
    reference_topological_order,
)

import kanoa.scheduling
from kanoa.errors import InvariantViolation, UndefinedReward
from kanoa.mdp import Choice, Mdp
from kanoa.reporting import PipelineConfig, run
from kanoa.solver import (
    max_reach_probability,
    min_expected_reward,
    min_expected_reward_policy,
    topological_order,
)


def random_mdp(rng: random.Random, n=10, cyclic=True):
    """A small handcrafted model; a few states get two actions so policy
    enumeration stays cheap."""
    target = {n - 1}
    choices = []
    for s in range(n):
        if s in target:
            choices.append([])
            continue
        acts = []
        for _ in range(2 if rng.random() < 0.4 else 1):
            k = rng.randint(1, 2)
            if cyclic:
                succs = [rng.randrange(n) for _ in range(k)]
            else:
                succs = [rng.randrange(s + 1, n) for _ in range(k)]
            weights = [rng.random() + 0.1 for _ in succs]
            tot = sum(weights)
            branches = []
            acc = 0.0
            for i, (w, t) in enumerate(zip(weights, succs)):
                p = w / tot if i < len(succs) - 1 else 1.0 - acc
                acc += w / tot
                branches.append((p, t))
            acts.append(
                Choice(
                    f"a{s}_{len(acts)}",
                    tuple(branches),
                    travel_reward=rng.randint(0, 3),
                    idle_reward=rng.randint(0, 3),
                )
            )
        choices.append(acts)
    return Mdp(
        states=list(range(n)),
        choices=choices,
        labels={"done": target},
        initial=0,
    )


def policy_reach_prob(mdp, pick):
    """Absorption probability of the induced chain, solved linearly."""
    n = mdp.n_states
    target = mdp.label_states("done")
    chosen = {}
    for s in range(n):
        if s in target or not mdp.choices[s]:
            continue
        chosen[s] = mdp.choices[s][pick.get(s, 0)]
    # states that can reach the target under this policy
    can = set(target)
    changed = True
    while changed:
        changed = False
        for s, c in chosen.items():
            if s not in can and any(t in can for _, t in c.branches):
                can.add(s)
                changed = True
    unknown = sorted(s for s in can if s not in target and s in chosen)
    if mdp.initial in target:
        return 1.0
    if mdp.initial not in can:
        return 0.0
    idx = {s: i for i, s in enumerate(unknown)}
    a = np.eye(len(unknown))
    b = np.zeros(len(unknown))
    for s in unknown:
        for p, t in chosen[s].branches:
            if t in target:
                b[idx[s]] += p
            elif t in idx:
                a[idx[s], idx[t]] -= p
            # branches leaving "can" contribute zero
    x = np.linalg.solve(a, b)
    return float(x[idx[mdp.initial]])


def enumerate_max_reach(mdp):
    decision = [
        s
        for s in range(mdp.n_states)
        if len(mdp.choices[s]) > 1 and s not in mdp.label_states("done")
    ]
    best = 0.0
    for combo in product(*(range(len(mdp.choices[s])) for s in decision)):
        best = max(best, policy_reach_prob(mdp, dict(zip(decision, combo))))
    return best


def test_cyclic_model_raises_invariant_violation():
    # scheduling models are acyclic by construction; a cycle is a builder bug
    rng = random.Random(9)
    cyclic = 0
    for _ in range(60):
        mdp = random_mdp(rng, n=rng.randint(4, 10), cyclic=True)
        if topological_order(mdp) is not None:
            continue
        cyclic += 1
        with pytest.raises(InvariantViolation):
            max_reach_probability(mdp, "done")
        with pytest.raises(InvariantViolation):
            min_expected_reward_policy(mdp, "idle", "done")
    assert cyclic >= 30


def test_exact_backward_on_acyclic_matches():
    rng = random.Random(10)
    for _ in range(60):
        mdp = random_mdp(rng, n=rng.randint(4, 12), cyclic=False)
        assert topological_order(mdp) is not None
        expected = enumerate_max_reach(mdp)
        assert max_reach_probability(mdp, "done") == pytest.approx(expected, abs=1e-9)


def test_larger_models_against_linear_oracle():
    # up to 200 states, a handful of decision states; acyclic models reach
    # the target surely unless some states are dead ends, so add a quarter
    rng = random.Random(11)
    partial = 0
    for _ in range(6):
        n = rng.randint(100, 200)
        mdp = random_mdp(rng, n=n, cyclic=False)
        for s in rng.sample(range(1, n - 1), n // 4):
            mdp.choices[s] = []
        decision = [
            s for s in range(n)
            if len(mdp.choices[s]) > 1 and s not in mdp.label_states("done")
        ]
        if len(decision) > 8:
            # prune extra decisions down to keep enumeration tractable
            for s in decision[8:]:
                mdp.choices[s] = mdp.choices[s][:1]
        expected = enumerate_max_reach(mdp)
        assert max_reach_probability(mdp, "done") == pytest.approx(expected, abs=1e-7)
        partial += 0.0 < expected < 1.0
    assert partial >= 3


def test_min_reward_simple_chain():
    # two routes to the target: costly-direct or cheap-detour
    choices = [
        [
            Choice("direct", ((1.0, 2),), idle_reward=5),
            Choice("detour", ((1.0, 1),), idle_reward=1),
        ],
        [Choice("hop", ((1.0, 2),), idle_reward=1)],
        [],
    ]
    mdp = Mdp(states=[0, 1, 2], choices=choices, labels={"done": {2}}, initial=0)
    assert min_expected_reward(mdp, "idle", "done") == 2


def test_min_reward_avoids_lossy_action():
    # the cheap action risks a dead end, so the sure one must be chosen
    choices = [
        [
            Choice("risky", ((0.5, 2), (0.5, 3)), idle_reward=0),
            Choice("sure", ((1.0, 2),), idle_reward=7),
        ],
        [],
        [],
        [],
    ]
    mdp = Mdp(
        states=[0, 1, 2, 3], choices=choices, labels={"done": {2}}, initial=0
    )
    assert max_reach_probability(mdp, "done") == 1.0  # via the sure action
    assert min_expected_reward(mdp, "idle", "done") == 7


def _nearly_sure_model(front=False, detour=False):
    """State 0 reaches the target 1 directly or through state 2, half each;
    state 2 reaches it with 1 - 1.5e-9, else dead end 3.  So state 0
    counts as surely reaching (1 - 0.75e-9) but has no action whose
    successors all do.  ``front`` puts state 4 before state 0, and
    ``detour`` gives state 4 a costlier sure action straight to the target."""
    choices = [
        [Choice("split", ((0.5, 1), (0.5, 2)), idle_reward=1)],
        [],
        [Choice("leak", ((1.0 - 1.5e-9, 1), (1.5e-9, 3)), idle_reward=1)],
        [],
    ]
    if front:
        choices.append([Choice("enter", ((1.0, 0),), idle_reward=1)])
        if detour:
            choices[4].append(Choice("detour", ((1.0, 1),), idle_reward=9))
    return Mdp(states=list(range(len(choices))), choices=choices,
               labels={"done": {1}}, initial=4 if front else 0)


@pytest.mark.parametrize("front", [False, True], ids=["four_states", "five_states"])
@pytest.mark.parametrize("query", [min_expected_reward_policy,
                                   reference_min_expected_reward_policy],
                         ids=["solver", "reference"])
def test_min_reward_undefined_when_sure_only_in_the_limit(front, query):
    mdp = _nearly_sure_model(front)
    assert max_reach_probability(mdp, "done") >= 1.0 - 1e-9
    with pytest.raises(UndefinedReward, match="no policy reaches label 'done' surely"):
        query(mdp, "idle", "done")


@pytest.mark.parametrize("query", [min_expected_reward_policy,
                                   reference_min_expected_reward_policy],
                         ids=["solver", "reference"])
def test_min_reward_avoids_state_sure_only_in_the_limit(query):
    value, policy = query(_nearly_sure_model(front=True, detour=True), "idle", "done")
    assert (value, policy) == (9, [None, None, None, None, 1])


# -- held to the two-pass reference solver --------------------------------------


def _policy_outcome(query, mdp, reward):
    """(value, policy), or the error's type and message."""
    try:
        return query(mdp, reward, "done")
    except UndefinedReward as exc:
        return type(exc), str(exc)


def test_random_models_match_two_pass_reference():
    # half the draws get dead ends, so some models reach done with a
    # probability below 1 and some states are not surely reaching
    rng = random.Random(12)
    partial = 0
    for k in range(500):
        n = rng.randint(2, 40)
        mdp = random_mdp(rng, n=n, cyclic=False)
        if k % 2 and n > 2:
            for s in rng.sample(range(1, n - 1), (n - 2) // 4):
                mdp.choices[s] = []
        # a second label on the same model: each query reads only its own label
        mdp.labels["mid"] = frozenset(rng.sample(range(n), max(1, n // 3)))
        reach = reference_max_reach_probability(mdp, "done")
        mid = reference_max_reach_probability(mdp, "mid")
        partial += reach < 1.0
        expected = [
            _policy_outcome(reference_min_expected_reward_policy, mdp, r)
            for r in ("idle", "travel")
        ]
        assert topological_order(mdp) == reference_topological_order(mdp)
        # queries in either order give the same values: none leaves state on the model
        if k % 4 < 2:
            assert max_reach_probability(mdp, "done") == reach
        got = [
            _policy_outcome(min_expected_reward_policy, mdp, r)
            for r in ("idle", "travel")
        ]
        assert got == expected
        assert max_reach_probability(mdp, "done") == reach
        assert max_reach_probability(mdp, "mid") == mid
    assert partial >= 50


def _counting(counts, key):
    """Wrapper factory: the wrapped function counts its calls in ``counts[key]``."""
    def wrap(real):
        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return counted
    return wrap


def _run_fixture(tmp_path, fixtures_dir, name, monkeypatch, **wrappers):
    """Run ``kanoa plan`` on a fixture at the default config, GA seed 0,
    with ``kanoa.scheduling`` functions replaced by ``wrappers``."""
    for attr, wrap in wrappers.items():
        monkeypatch.setattr(kanoa.scheduling, attr, wrap(getattr(kanoa.scheduling, attr)))
    run(fixtures_dir / name, PipelineConfig(seed=0), tmp_path / "out")


@pytest.mark.parametrize("name", ["hospital.kanoa", "constraints.kanoa"])
def test_fixture_models_match_two_pass_reference(tmp_path, fixtures_dir, monkeypatch, name):
    checked = Counter()

    def check_reach(real):
        def reach(mdp, label="done"):
            value = real(mdp, label)
            assert value == reference_max_reach_probability(mdp, label)
            checked["reach"] += 1
            return value
        return reach

    def check_policy(real):
        def policy(mdp, reward, label="done"):
            value = real(mdp, reward, label)
            assert value == reference_min_expected_reward_policy(mdp, reward, label)
            assert topological_order(mdp) == reference_topological_order(mdp)
            checked["policy"] += 1
            return value
        return policy

    _run_fixture(
        tmp_path, fixtures_dir, name, monkeypatch,
        build_mdp=_counting(checked, "models"),
        max_reach_probability=check_reach,
        min_expected_reward_policy=check_policy,
    )
    models = checked["models"]
    assert models > 0
    assert checked == {"models": models, "reach": models, "policy": models}


def test_hospital_run_sorts_and_sweeps_once_per_query(tmp_path, fixtures_dir, monkeypatch):
    counts = Counter()
    real_sweep = kanoa.solver._max_reach_values

    def sweep(mdp, label, order):
        counts[f"sweep {label}"] += 1
        return real_sweep(mdp, label, order)

    monkeypatch.setattr(
        kanoa.solver, "topological_order",
        _counting(counts, "order")(kanoa.solver.topological_order),
    )
    monkeypatch.setattr(kanoa.solver, "_max_reach_values", sweep)
    _run_fixture(
        tmp_path, fixtures_dir, "hospital.kanoa", monkeypatch,
        build_mdp=_counting(counts, "models"),
        max_reach_probability=_counting(counts, "queries"),
        min_expected_reward_policy=_counting(counts, "queries"),
    )
    models = counts["models"]
    assert models > 0
    queries = 2 * models  # one reach query and one policy query per model
    assert counts == {
        "models": models, "queries": queries, "order": queries, "sweep done": queries,
    }
