"""Exhaustive ground-truth computations.

Everything in this module works by brute-force expansion of the outcome
tree with plain dicts and loops, independently of the belief-filter and
dynamic-programming code, so it can serve as the trusted side of every
cross-check.  Use it at desk scale only.

Both strategy searches, centralized and decentralized, share one count
walk and one scorer; the caller picks the class through the slot function
it passes (one slot per full history, or one per member view).  The count
comes first, so an over-budget input is refused before anything is
scored.  The scorer enumerates profiles stage by stage and scores each one
in the same pass, from the occupancies it already carries, through the
node expansion :func:`exact_cost` uses; the last stage is scored without
building children.  Each winner is then re-scored by :func:`exact_cost`
through its tables, and the two must agree to the bit.

Occupancy bookkeeping: an "occupancy" is an unnormalized map
state -> probability mass of reaching this history node in this state.
Summing stage costs against occupancies and recursing over positive-mass
observation branches enumerates the full expectation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from math import prod

import numpy as np

from .errors import BudgetExceededError, InvariantError, ZeroLikelihoodError
from .model import (
    DEFAULT_STRATEGY_BUDGET,
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
    drawn from ``strategy``.  Raises ValueError unless 0 <= t <= T and
    both prefixes hold exactly t entries."""
    if not 0 <= t <= model.horizon:
        raise ValueError(f"time {t} outside 0..{model.horizon}")
    if len(obs_seq) != t or len(act_seq) != t:
        raise ValueError(
            f"prefixes of {len(obs_seq)} observations and {len(act_seq)} actions at time {t}"
        )
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
# exhaustive strategy search, both classes
#
# A search walks the positive-probability nodes stage by stage.  At each
# stage a slot function lays out the decision slots: it returns (slots,
# node_terms) with ``slots[j] = (key, choices)`` and ``node_terms[i]`` a
# list of (j, flat) pairs, so node i plays the flat joint action
# ``sum(flat[c])`` over its pairs when slot j takes its c-th choice.


def _capped_add(a: int, b: int, cap: int) -> int:
    s = a + b
    return s if s <= cap else cap + 1


def _capped_mul(a: int, b: int, cap: int) -> int:
    m = a * b
    return m if m <= cap else cap + 1


def _history_slots(model, nodes, t):
    """Centralized class: one slot per node, keyed by its full history,
    whose choices are the joint actions in tie-break order."""
    choices = tiebreak_joint_actions(model)
    flat = [model.flat_action(u) for u in choices]
    slots = [(history_key(act_seq, obs_seq), choices) for obs_seq, act_seq, _ in nodes]
    return slots, [[(i, flat)] for i in range(len(nodes))]


def _view_slots(structure, model, nodes, t):
    """Decentralized class: one slot per (member, view key), whose choices
    are the member's actions; member by member, and each member's views
    in first-seen order."""
    K = model.num_members
    seen: list[dict[str, None]] = [{} for _ in range(K)]
    node_keys: list[tuple[str, ...]] = []
    for obs_seq, act_seq, _ in nodes:
        keys = tuple(view_key(prefix_view(structure, K, obs_seq, act_seq, t, k)) for k in range(K))
        for k, vk in enumerate(keys):
            seen[k].setdefault(vk)
        node_keys.append(keys)
    sizes = model.action_sizes
    slots = [((k, vk), range(sizes[k])) for k in range(K) for vk in seen[k]]
    index = {key: j for j, (key, _) in enumerate(slots)}
    flat = [[a * prod(sizes[k + 1:]) for a in range(sizes[k])] for k in range(K)]
    return slots, [[(index[k, vk], flat[k]) for k, vk in enumerate(keys)] for keys in node_keys]


def _assignments(slots, node_terms):
    """Iterate all joint assignments of choices to the slots.

    Yields (one choice index per slot, flat joint action of every node).
    Deterministic order: the last slot varies fastest, choices in order."""
    for combo in product(*(range(len(choices)) for _, choices in slots)):
        yield combo, [sum(flat[combo[j]] for j, flat in terms) for terms in node_terms]


def _expand(model, node, t, a, last):
    """A node under flat joint action ``a``: (stage cost, child nodes in
    observation order) or, at the last stage, its whole cost-to-go.
    :func:`exact_cost` and the searches all score with it."""
    obs_seq, act_seq, occ = node
    total = sum(w * model.stage_cost[t, x, a] for x, w in occ.items())
    occp = _predict_occ(model, occ, a)
    if last:
        return total + sum(w * model.terminal_cost[x] for x, w in occp.items())
    u = model.joint_actions[a]
    return total, [
        (obs_seq + (y,), act_seq + (u,), occy) for y, occy in _split_by_obs(model, occp)
    ]


def _count_profiles(model, slots_at, nodes, t, cap) -> int:
    """Number of profiles of the stages t..T-1 on ``nodes``, capped at
    cap+1.

    Every assignment of the last stage is one profile, so that stage
    builds no children.  Earlier stages count each assignment's subtree on
    its own: which nodes are reached, and so how the next stage's slots
    fall, can depend on the actions."""
    slots, node_terms = slots_at(model, nodes, t)
    if t + 1 == model.horizon:
        count = 1
        for _, choices in slots:
            count = _capped_mul(count, len(choices), cap)
        return count
    total = 0
    for _, actions in _assignments(slots, node_terms):
        children = [c for n, a in zip(nodes, actions) for c in _expand(model, n, t, a, False)[1]]
        total = _capped_add(total, _count_profiles(model, slots_at, children, t + 1, cap), cap)
        if total > cap:
            return total
    return total


def _scored_profiles(model, slots_at, nodes, t):
    """Yield (path, costs) for every profile of the stages t..T-1 on
    ``nodes``, in enumeration order.

    ``path`` holds one (slots, one choice index per slot) pair per stage
    and ``costs[i]`` is the occupancy-weighted cost from ``nodes[i]`` on,
    added up as ``_cost_from`` adds it: the stage cost, then each child's
    cost in observation order.  Each node is expanded once per joint
    action."""
    slots, node_terms = slots_at(model, nodes, t)
    last = t + 1 == model.horizon
    memo: list[dict] = [{} for _ in nodes]
    for combo, actions in _assignments(slots, node_terms):
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
        for path, child_costs in _scored_profiles(model, slots_at, children, t + 1):
            costs = []
            j = 0
            for total, cs in parts:
                for c in child_costs[j:j + len(cs)]:
                    total += c
                j += len(cs)
                costs.append(total)
            yield step + path, costs


def _search(model, slots_at, budget, what):
    """Count, then score, every profile laid out by ``slots_at``.

    Returns (count, first minimal cost, its table: slot key -> choice).
    BudgetExceededError carries the capped count when it exceeds
    ``budget``; InvariantError is raised if the scorer yields a different
    number of profiles than the count."""
    occ0 = {x: float(p) for x, p in enumerate(model.initial_dist) if p > 0.0}
    root = [((), (), occ0)]
    count = _count_profiles(model, slots_at, root, 0, budget)
    if count > budget:
        raise BudgetExceededError(
            f"{what} count exceeds budget {budget}", budget=budget, observed=count
        )
    scored = 0
    best_cost = None
    best_path = None
    for path, (cost,) in _scored_profiles(model, slots_at, root, 0):
        scored += 1
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_path = path
    if scored != count:
        raise InvariantError(f"scored {scored} {what}s, counted {count}")
    table = {
        key: choices[c] for slots, combo in best_path for (key, choices), c in zip(slots, combo)
    }
    return count, best_cost, table


def _rechecked(model, structure, count, cost, strategy) -> EnumerationResult:
    """The search's result, once :func:`exact_cost` of the winning
    strategy has reproduced its one-pass cost to the bit."""
    rescored = exact_cost(model, structure, strategy)
    if float(rescored).hex() != float(cost).hex():
        raise InvariantError(
            f"one-pass optimum {float(cost)!r} differs from exact_cost {float(rescored)!r}"
        )
    return EnumerationResult(count, cost, strategy)


def enumerate_centralized(
    model: TeamModel,
    structure: InformationStructure,
    budget: int = DEFAULT_STRATEGY_BUDGET,
) -> EnumerationResult:
    """Exhaustive minimum of exact_cost over all maps from positive-
    probability full joint histories to joint actions.

    The candidate count is computed first; if it exceeds ``budget`` a
    BudgetExceededError carries the (capped) count.  Ties go to the first
    minimizer in enumeration order: earlier stages and nodes vary slowest,
    actions in tie-break order.  The winner is re-scored as in
    :func:`enumerate_decentralized`.
    """
    count, cost, table = _search(model, _history_slots, budget, "centralized strategy")
    return _rechecked(model, structure, count, cost, CentralizedTableStrategy(model, table))


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
    count, cost, table = _search(
        model, partial(_view_slots, structure), budget, "decentralized profile"
    )
    return _rechecked(model, structure, count, cost, _member_profile(model, structure, table))


def _member_profile(model, structure, table) -> DecentralizedStrategy:
    """The profile in which member k plays ``table[k, view key]``, and
    action 0 at views the table leaves out."""
    tables: list[dict[str, int]] = [{} for _ in range(model.num_members)]
    for (k, vk), act in table.items():
        tables[k][vk] = act
    return DecentralizedStrategy(
        model,
        structure,
        [
            MemberTableStrategy(model, structure, k, tables[k], default=0)
            for k in range(model.num_members)
        ],
    )
