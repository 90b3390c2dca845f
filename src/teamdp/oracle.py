"""Exhaustive ground-truth computations.

Everything in this module works by brute-force expansion of the outcome
tree with plain dicts and loops, independently of the belief-filter and
dynamic-programming code, so it can serve as the trusted side of every
cross-check.  Use it at desk scale only.

The decentralized search enumerates profiles stage by stage and scores
each one in the same pass, from the occupancies it already carries,
through the node expansion :func:`exact_cost` uses; the last stage is
scored without building children.  The winner is then re-scored by
:func:`exact_cost` through its member tables, and the two must agree to
the bit.

Occupancy bookkeeping: an "occupancy" is an unnormalized map
state -> probability mass of reaching this history node in this state.
Summing stage costs against occupancies and recursing over positive-mass
observation branches enumerates the full expectation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .errors import BudgetExceededError, InvariantError, ZeroLikelihoodError
from .model import (
    HistoryView,
    InformationStructure,
    TeamModel,
    Trajectory,
    history_key,
    prefix_view,
    tiebreak_joint_actions,
    view_key,
    view_known,
)
from .strategies import CentralizedTableStrategy, DecentralizedStrategy, MemberTableStrategy

__all__ = [
    "WeightedOutcome",
    "EnumerationResult",
    "enumerate_outcomes",
    "exact_cost",
    "exact_cost_to_go",
    "exact_posterior",
    "enumerate_centralized",
    "enumerate_decentralized",
    "DEFAULT_STRATEGY_BUDGET",
]

DEFAULT_STRATEGY_BUDGET = 10_000_000


@dataclass(frozen=True)
class WeightedOutcome:
    """One trajectory with its probability (None for sampled rollouts) and
    realized total cost."""

    trajectory: Trajectory
    probability: float | None
    cost: float


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of an exhaustive strategy search."""

    num_strategies: int
    optimal_cost: float
    strategy: object


def _predict_occ(model: TeamModel, occ: dict[int, float], a: int) -> dict[int, float]:
    nxt: dict[int, float] = {}
    tr = model.transition
    for x, w in occ.items():
        row = tr[x, a]
        for x2 in range(model.num_states):
            p = row[x2]
            if p > 0.0:
                nxt[x2] = nxt.get(x2, 0.0) + w * p
    return nxt


def _obs_weight(model: TeamModel, x: int, y: tuple[int, ...]) -> float:
    w = 1.0
    for k, kern in enumerate(model.observation_kernels):
        w *= kern[x, y[k]]
        if w == 0.0:
            return 0.0
    return w


def _split_by_obs(model: TeamModel, occ: dict[int, float]):
    """Yield (joint observation, occupancy) for every positive branch."""
    for y in model.joint_observations:
        occy = {}
        for x, w in occ.items():
            ow = _obs_weight(model, x, y)
            if ow > 0.0:
                occy[x] = w * ow
        if occy:
            yield y, occy


# ---------------------------------------------------------------------------
# expected cost of a fixed strategy


def exact_cost(model: TeamModel, structure: InformationStructure, strategy) -> float:
    """Exact expected total cost of a deterministic team strategy.

    Raises StrategyUndefinedError if the strategy has no action at a
    history reached with positive probability.
    """
    occ0 = {x: float(p) for x, p in enumerate(model.initial_dist) if p > 0.0}
    return _cost_from(model, strategy, ((), (), occ0), 0)


def _cost_from(model, strategy, node, t) -> float:
    """Cost-to-go of ``node`` = (obs_seq, act_seq, occupancy) at time t:
    :func:`_expand` under the strategy's action, then each child's cost in
    observation order."""
    T = model.horizon
    obs_seq, act_seq, occ = node
    if t == T:
        return sum(w * model.terminal_cost[x] for x, w in occ.items())
    a = model.flat_action(strategy.joint_action(obs_seq, act_seq, t))
    if t + 1 == T:
        # the trailing observation carries no cost and integrates out
        return _expand(model, node, t, a, True)
    total, children = _expand(model, node, t, a, False)
    for child in children:
        total += _cost_from(model, strategy, child, t + 1)
    return total


def exact_cost_to_go(model: TeamModel, strategy, obs_seq: tuple, act_seq: tuple, t: int) -> float:
    """Expected cost from time t on, conditioned on a realized full-history
    prefix (t joint observations, t joint actions), with future actions
    drawn from ``strategy``."""
    occ = {x: float(p) for x, p in enumerate(model.initial_dist) if p > 0.0}
    for s in range(t):
        occ = _predict_occ(model, occ, model.flat_action(act_seq[s]))
        y = obs_seq[s]
        occ = {x: w * _obs_weight(model, x, y) for x, w in occ.items()}
        occ = {x: w for x, w in occ.items() if w > 0.0}
    z = sum(occ.values())
    if z == 0.0:
        raise ZeroLikelihoodError("history prefix has probability zero")
    occ = {x: w / z for x, w in occ.items()}
    return _cost_from(model, strategy, (tuple(obs_seq), tuple(act_seq), occ), t)


# ---------------------------------------------------------------------------
# full outcome expansion


def enumerate_outcomes(model: TeamModel, strategy) -> list[WeightedOutcome]:
    """All positive-probability trajectories under ``strategy`` with their
    probabilities and realized costs.  Probabilities sum to one."""
    T = model.horizon
    out: list[WeightedOutcome] = []

    def rec(x_seq, obs_seq, act_seq, w, cost):
        t = len(act_seq)
        if t == T:
            out.append(WeightedOutcome(Trajectory(x_seq, obs_seq, act_seq), w, cost))
            return
        u = strategy.joint_action(obs_seq, act_seq, t)
        a = model.flat_action(u)
        c = cost + float(model.stage_cost[t, x_seq[-1], a])
        row = model.transition[x_seq[-1], a]
        for x2 in range(model.num_states):
            p = row[x2]
            if p == 0.0:
                continue
            for y in model.joint_observations:
                ow = _obs_weight(model, x2, y)
                if ow == 0.0:
                    continue
                c2 = c + (float(model.terminal_cost[x2]) if t + 1 == T else 0.0)
                rec(x_seq + (x2,), obs_seq + (y,), act_seq + (u,), w * p * ow, c2)

    for x0, p0 in enumerate(model.initial_dist):
        if p0 > 0.0:
            rec((x0,), (), (), float(p0), 0.0)
    return out


# ---------------------------------------------------------------------------
# posteriors by conditioning the joint outcome law


def exact_posterior(model: TeamModel, strategy, view: HistoryView) -> np.ndarray:
    """Distribution of x_t given a realized view, by direct conditioning.

    Sums the joint law induced by ``strategy`` over every trajectory
    consistent with the view's recorded data, then normalizes.  Action
    slots recorded in the view are used as given; where the view leaves an
    action unrecorded the strategy supplies it, and recorded slots must
    agree with the strategy (disagreeing branches carry zero mass).
    ``strategy`` may be None only if the view records every action.
    Raises ZeroLikelihoodError when the view has probability zero.
    """
    known = view_known(view)
    t = view.time
    S, K = model.num_states, model.num_members
    post = np.zeros(S)

    def joint_obs_at(s: int):
        choices = []
        for m in range(K):
            v = known.get((s, m, "obs"))
            choices.append((v,) if v is not None else tuple(range(model.observation_sizes[m])))
        return product(*choices)

    def rec(x, obs_seq, act_seq, w, s):
        if s == t:
            post[x] += w
            return
        su = strategy.joint_action(obs_seq, act_seq, s) if strategy is not None else None
        u = []
        for m in range(K):
            v = known.get((s, m, "act"))
            if v is not None:
                if su is not None and su[m] != v:
                    return  # strategy contradicts the recorded action
                u.append(v)
            elif su is not None:
                u.append(su[m])
            else:
                raise ZeroLikelihoodError(
                    f"action of member {m} at time {s} neither recorded nor supplied"
                )
        u = tuple(u)
        a = model.flat_action(u)
        row = model.transition[x, a]
        for x2 in range(S):
            p = row[x2]
            if p == 0.0:
                continue
            for y in joint_obs_at(s + 1):
                ow = _obs_weight(model, x2, y)
                if ow == 0.0:
                    continue
                rec(x2, obs_seq + (y,), act_seq + (u,), w * p * ow, s + 1)

    for x0, p0 in enumerate(model.initial_dist):
        if p0 > 0.0:
            rec(x0, (), (), float(p0), 0)
    z = post.sum()
    if z == 0.0:
        raise ZeroLikelihoodError("view has probability zero under this strategy profile")
    return post / z


# ---------------------------------------------------------------------------
# exhaustive strategy search, centralized class


def _capped_add(a: int, b: int, cap: int) -> int:
    s = a + b
    return s if s <= cap else cap + 1


def _capped_mul(a: int, b: int, cap: int) -> int:
    m = a * b
    return m if m <= cap else cap + 1


def _count_centralized(model: TeamModel, occ, t: int, cap: int) -> int:
    """Number of centralized strategy tables on positive-probability
    histories from this node on (capped at cap+1)."""
    T = model.horizon
    if t == T - 1:
        return model.num_joint_actions if model.num_joint_actions <= cap else cap + 1
    total = 0
    for u in tiebreak_joint_actions(model):
        occp = _predict_occ(model, occ, model.flat_action(u))
        prod_count = 1
        for _, occy in _split_by_obs(model, occp):
            prod_count = _capped_mul(prod_count, _count_centralized(model, occy, t + 1, cap), cap)
            if prod_count > cap:
                break
        total = _capped_add(total, prod_count, cap)
        if total > cap:
            return total
    return total


def _centralized_tables(model: TeamModel, pending: tuple):
    """Yield every complete centralized table, depth first, earlier nodes
    varying slowest and actions in tie-break order."""
    if not pending:
        yield {}
        return
    obs_seq, act_seq, occ, t = pending[0]
    rest = pending[1:]
    key = history_key(act_seq, obs_seq)
    T = model.horizon
    for u in tiebreak_joint_actions(model):
        children = ()
        if t + 1 < T:
            occp = _predict_occ(model, occ, model.flat_action(u))
            children = tuple(
                (obs_seq + (y,), act_seq + (u,), occy, t + 1)
                for y, occy in _split_by_obs(model, occp)
            )
        for sub in _centralized_tables(model, rest + children):
            table = {key: u}
            table.update(sub)
            yield table


def enumerate_centralized(
    model: TeamModel,
    structure: InformationStructure,
    budget: int = DEFAULT_STRATEGY_BUDGET,
) -> EnumerationResult:
    """Exhaustive minimum of exact_cost over all maps from positive-
    probability full joint histories to joint actions.

    The candidate count is computed first; if it exceeds ``budget`` a
    BudgetExceededError carries the (capped) count.  Ties go to the first
    minimizer in enumeration order.
    """
    occ0 = {x: float(p) for x, p in enumerate(model.initial_dist) if p > 0.0}
    count = _count_centralized(model, occ0, 0, budget)
    if count > budget:
        raise BudgetExceededError(
            f"centralized strategy count exceeds budget {budget}", budget=budget, observed=count
        )
    best_cost = None
    best_table = None
    for table in _centralized_tables(model, (((), (), occ0, 0),)):
        cost = exact_cost(model, structure, CentralizedTableStrategy(model, table))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_table = table
    return EnumerationResult(count, best_cost, CentralizedTableStrategy(model, best_table))


# ---------------------------------------------------------------------------
# exhaustive strategy search, decentralized class


def _member_views(model, structure, nodes, t):
    """Distinct member views over the node list.

    Returns (the (member, view key) slots, member by member and each
    member's views in first-seen order; per-node tuple of per-member view
    keys)."""
    K = model.num_members
    seen: list[dict[str, None]] = [{} for _ in range(K)]
    node_keys: list[tuple[str, ...]] = []
    for obs_seq, act_seq, _ in nodes:
        keys = tuple(view_key(prefix_view(structure, K, obs_seq, act_seq, t, k)) for k in range(K))
        for k, vk in enumerate(keys):
            seen[k].setdefault(vk)
        node_keys.append(keys)
    return [(k, vk) for k in range(K) for vk in seen[k]], node_keys


def _assignments(model, slots, node_keys):
    """Iterate all joint assignments of actions to the slots.

    Yields (one action per slot, flat joint action of every node).
    Deterministic order: the last slot varies fastest, actions ascending."""
    K = model.num_members
    strides = [prod(model.action_sizes[k + 1:]) for k in range(K)]
    index = {slot: j for j, slot in enumerate(slots)}
    node_slots = [[(index[k, vk], strides[k]) for k, vk in enumerate(keys)] for keys in node_keys]
    for combo in product(*(range(model.action_sizes[k]) for k, _ in slots)):
        yield combo, [sum(combo[j] * s for j, s in pairs) for pairs in node_slots]


def _expand(model, node, t, a, last):
    """A node under flat joint action ``a``: (stage cost, child nodes in
    observation order) or, at the last stage, its whole cost-to-go.
    :func:`exact_cost` and the decentralized search both score with it."""
    obs_seq, act_seq, occ = node
    total = sum(w * model.stage_cost[t, x, a] for x, w in occ.items())
    occp = _predict_occ(model, occ, a)
    if last:
        return total + sum(w * model.terminal_cost[x] for x, w in occp.items())
    u = model.joint_actions[a]
    return total, [
        (obs_seq + (y,), act_seq + (u,), occy) for y, occy in _split_by_obs(model, occp)
    ]


def _next_nodes(model, nodes, t, actions):
    """The next stage's nodes when ``nodes[i]`` plays ``actions[i]``."""
    return [c for node, a in zip(nodes, actions) for c in _expand(model, node, t, a, False)[1]]


def _count_decentralized(model, structure, nodes, t, cap, positive) -> int:
    """Leaf count of the decentralized profile tree, capped at cap+1.

    Every assignment of the last stage is one leaf, so that stage builds
    no children.  With ``positive`` kernels the supports do not depend on
    actions: every assignment spawns child sets with identical view
    partitions, so the count factorizes."""
    slots, node_keys = _member_views(model, structure, nodes, t)
    per_stage = 1
    for k, _ in slots:
        per_stage = _capped_mul(per_stage, model.action_sizes[k], cap)
    if t + 1 == model.horizon:
        return per_stage
    if positive:
        children = _next_nodes(model, nodes, t, [0] * len(nodes))
        rest = _count_decentralized(model, structure, children, t + 1, cap, positive)
        return _capped_mul(per_stage, rest, cap)
    total = 0
    for _, actions in _assignments(model, slots, node_keys):
        children = _next_nodes(model, nodes, t, actions)
        rest = _count_decentralized(model, structure, children, t + 1, cap, positive)
        total = _capped_add(total, rest, cap)
        if total > cap:
            return total
    return total


def _scored_profiles(model, structure, nodes, t):
    """Yield (path, costs) for every profile of the stages t..T-1 on
    ``nodes``, in enumeration order.

    ``path`` holds one (slots, one action per slot) pair per stage and ``costs[i]`` is
    the occupancy-weighted cost from ``nodes[i]`` on, added up as
    ``_cost_from`` adds it: the stage cost, then each child's cost in
    observation order.  Each node is expanded once per joint action."""
    slots, node_keys = _member_views(model, structure, nodes, t)
    last = t + 1 == model.horizon
    memo: list[dict] = [{} for _ in nodes]
    for combo, actions in _assignments(model, slots, node_keys):
        step = ((slots, combo),)
        parts = []
        for node, a, m in zip(nodes, actions, memo):
            if a not in m:
                m[a] = _expand(model, node, t, a, last)
            parts.append(m[a])
        if last:
            yield step, parts
            continue
        children = [c for _, cs in parts for c in cs]
        for path, child_costs in _scored_profiles(model, structure, children, t + 1):
            costs = []
            j = 0
            for total, cs in parts:
                for c in child_costs[j:j + len(cs)]:
                    total += c
                j += len(cs)
                costs.append(total)
            yield step + path, costs


def enumerate_decentralized(
    model: TeamModel,
    structure: InformationStructure,
    budget: int = DEFAULT_STRATEGY_BUDGET,
) -> EnumerationResult:
    """Exhaustive minimum of exact_cost over all profiles of per-member
    maps from that member's positive-probability views to own actions.

    Views off the positive-probability set get the lexicographically first
    action (index 0).  The candidate count is computed first; ties go to
    the first minimizer in enumeration order.  Profiles are scored in the
    enumeration with exact_cost's arithmetic; the winner is re-scored by
    exact_cost through its member tables, and InvariantError is raised
    unless both give the same bits.
    """
    occ0 = {x: float(p) for x, p in enumerate(model.initial_dist) if p > 0.0}
    root = [((), (), occ0)]
    positive = np.all(model.transition > 0.0) and all(
        np.all(k > 0.0) for k in model.observation_kernels
    )
    count = _count_decentralized(model, structure, root, 0, budget, positive)
    if count > budget:
        raise BudgetExceededError(
            f"decentralized profile count exceeds budget {budget}", budget=budget, observed=count
        )
    scored = 0
    best_cost = None
    best_path = None
    for path, (cost,) in _scored_profiles(model, structure, root, 0):
        scored += 1
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_path = path
    if scored != count:
        raise InvariantError(f"scored {scored} decentralized profiles, counted {count}")
    tables: list[dict[str, int]] = [{} for _ in range(model.num_members)]
    for slots, combo in best_path:
        for (k, vk), act in zip(slots, combo):
            tables[k][vk] = act
    strategy = DecentralizedStrategy(
        model,
        structure,
        [
            MemberTableStrategy(model, structure, k, tables[k], default=0)
            for k in range(model.num_members)
        ],
    )
    rescored = exact_cost(model, structure, strategy)
    if float(rescored).hex() != float(best_cost).hex():
        raise InvariantError(
            f"one-pass optimum {float(best_cost)!r} differs from exact_cost {float(rescored)!r}"
        )
    return EnumerationResult(count, best_cost, strategy)
