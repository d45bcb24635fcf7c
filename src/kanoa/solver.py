"""Policy synthesis queries over explicit MDPs.

Scheduling models are acyclic (every action advances progress, a clock,
or a one-shot flag), so maximal reachability probabilities and minimal
expected rewards are computed exactly by backward induction over a
topological order.  A cyclic model is a builder bug and raises
:class:`InvariantViolation`.

The front's plan models are chains (see :mod:`kanoa.mdp`), so each query
sorts its model and sweeps its reach values once, and nothing is kept
between queries.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import InvariantViolation, UndefinedReward
from .mdp import REWARD_ATTRS, Mdp

_PROB_ONE = 1.0 - 1e-9


def topological_order(mdp: Mdp) -> list[int] | None:
    """Kahn's algorithm over the transition graph; None when cyclic."""
    succs = [[t for c in choices for _, t in c.branches] for choices in mdp.choices]
    indeg = [0] * mdp.n_states
    for ts in succs:
        for t in ts:
            indeg[t] += 1
    order = [s for s, d in enumerate(indeg) if d == 0]
    for s in order:  # a FIFO queue: the loop reads what it appends
        for t in succs[s]:
            indeg[t] -= 1
            if indeg[t] == 0:
                order.append(t)
    return order if len(order) == mdp.n_states else None


def max_reach_probability(mdp: Mdp, label: str = "done") -> float:
    """Maximal probability, over all policies, of reaching a labeled state."""
    return _max_reach_values(mdp, label, _acyclic_order(mdp))[mdp.initial]


def _acyclic_order(mdp: Mdp) -> list[int]:
    order = topological_order(mdp)
    if order is None:
        raise InvariantViolation(
            f"model with {mdp.n_states} states has a cycle; "
            "scheduling models must be acyclic"
        )
    return order


def _max_reach_values(mdp, label, order):
    target = mdp.label_states(label)
    choices = mdp.choices
    v = [0.0] * mdp.n_states
    for s in reversed(order):
        if s in target:
            v[s] = 1.0
            continue
        for c in choices[s]:
            val = sum(p * v[t] for p, t in c.branches)
            if val > v[s]:
                v[s] = val
    return v


def min_expected_reward(mdp: Mdp, reward: str, label: str = "done") -> float:
    """Minimum expected accumulated reward before reaching the label.

    Only policies that reach the label with probability 1 are admitted;
    raises :class:`UndefinedReward` when no such policy exists from the
    initial state.
    """
    value, _ = min_expected_reward_policy(mdp, reward, label)
    return value


def min_expected_reward_policy(
    mdp: Mdp, reward: str, label: str = "done"
) -> tuple[float, list[int | None]]:
    """As :func:`min_expected_reward`, also returning the optimal policy.

    The policy maps each state to the index of the chosen action (None
    where no almost-surely-reaching action exists).  Ties break toward the
    first action in enumeration order, keeping extraction deterministic.
    """
    reward_of = attrgetter(REWARD_ATTRS[reward])
    order = _acyclic_order(mdp)
    vmax = _max_reach_values(mdp, label, order)
    if vmax[mdp.initial] < _PROB_ONE:
        raise UndefinedReward(
            f"label '{label}' is not almost-surely reachable "
            f"(max probability {vmax[mdp.initial]})"
        )
    target = mdp.label_states(label)
    sure = [v >= _PROB_ONE for v in vmax]
    choices = mdp.choices

    policy: list[int | None] = [None] * mdp.n_states
    cost = [0.0] * mdp.n_states
    for s in reversed(order):
        if s in target or not sure[s]:
            continue
        best, best_i = None, None
        for i, c in enumerate(choices[s]):
            branches = c.branches
            if not all(sure[t] for _, t in branches):
                continue
            val = reward_of(c) + sum(p * cost[t] for p, t in branches)
            if best is None or val < best - 1e-12:
                best, best_i = val, i
        if best_i is None:
            # surely reaching only through successors that are not: no
            # cost is defined here, so predecessors must avoid this state
            sure[s] = False
            continue
        cost[s] = best
        policy[s] = best_i
    if not sure[mdp.initial]:
        raise UndefinedReward(
            f"no policy reaches label '{label}' surely "
            f"(max probability {vmax[mdp.initial]})"
        )
    return cost[mdp.initial], policy
