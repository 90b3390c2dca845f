"""Backward dynamic programs on exact reachable trees.

Manager side: a single planner who sees the pooled views solves a belief
dynamic program on the tree of positive-probability full histories.  The
backup at a belief is

    min over joint u of [ stage cost under the belief
                          + sum over observations y of
                            Pr(y | belief, u) * next value at the updated belief ]

with zero-probability observation branches skipped, never conditioned on.
The backup is positively homogeneous in the belief vector (weights scale
linearly and updated beliefs are scale-invariant), and the optimal value
is concave in the belief; both properties are verified in the test suite.
Argmins walk joint actions with member 1 varying fastest and keep the
first strict minimum, so repeated solves are byte-for-byte identical.

Member side: with every co-member's strategy fixed, one member faces a
decision problem whose sufficient statistic is the joint conditional over
(state, co-members' private data) given the member's own view.  Nodes are
keyed by the realized view itself, not by the state belief, because two
views with identical state beliefs can still induce different laws for
what the co-members will do next.  The member's own past actions enter as
recorded data, so the construction never consults the strategy being
optimized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BudgetExceededError,
    IncompleteHistoryError,
    UndefinedCoStrategyError,
)
from .filters import _likelihood_vec, _member_step, _root_particles
from .model import (
    HistoryView,
    InformationStructure,
    TeamModel,
    history_key,
    prefix_view,
    tiebreak_joint_actions,
    view_key,
)
from .strategies import (
    DecentralizedStrategy,
    ManagerProjectionStrategy,
    MemberSeparatedStrategy,
    SeparatedTeamStrategy,
)

__all__ = [
    "NodeValue",
    "ValueFunction",
    "ManagerSolution",
    "MemberNode",
    "MemberSolution",
    "ComparisonReport",
    "backup",
    "solve_manager",
    "evaluate_value",
    "solve_member",
    "evaluate_member_value",
    "compare_solutions",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 200_000


def _as_vec(belief) -> np.ndarray:
    probs = getattr(belief, "probs", belief)
    return np.asarray(probs, dtype=float)


def _expand(model: TeamModel, vec: np.ndarray, t: int):
    """Per joint action (tie-break order): immediate cost, positive
    observation branches as (y, weight, normalized updated belief).

    Never normalizes its input, so weights scale linearly in ``vec``.
    """
    for u in tiebreak_joint_actions(model):
        a = model.flat_action(u)
        immediate = float(vec @ model.stage_cost[t, :, a])
        pred = vec @ model.transition[:, a, :]
        branches = []
        for y in model.joint_observations:
            like = _likelihood_vec(model, y)
            w = float(pred @ like)
            if w == 0.0:
                continue
            branches.append((y, w, (pred * like) / w))
        yield u, immediate, branches


def backup(model: TeamModel, value_next: Callable[[np.ndarray], float], belief, t: int):
    """One-stage backup at time t.

    ``value_next`` maps a (normalized) time-t+1 belief vector to a value.
    ``belief`` may be a Belief or a raw vector; unnormalized input is
    allowed and the returned value then scales linearly with it.  Returns
    (value, argmin joint action).
    """
    vec = _as_vec(belief)
    best = None
    best_u = None
    for u, immediate, branches in _expand(model, vec, t):
        q = immediate
        for _, w, child in branches:
            q += w * value_next(child)
        if best is None or q < best:
            best, best_u = q, u
    return best, best_u


@dataclass
class NodeValue:
    """Entry of a manager tree node: the team belief reached there, the
    optimal value, and the minimizing joint action (None at the horizon)."""

    belief: np.ndarray
    value: float | None = None
    argmin: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "belief": [float(p) for p in self.belief],
            "value": None if self.value is None else float(self.value),
            "argmin": None if self.argmin is None else list(self.argmin),
        }


@dataclass
class ValueFunction:
    """Per-stage maps from canonical history keys to :class:`NodeValue`."""

    horizon: int
    stages: tuple[dict[str, NodeValue], ...]

    @property
    def root(self) -> NodeValue:
        return self.stages[0][""]

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "stages": [
                {k: nv.to_json_dict() for k, nv in sorted(stage.items())} for stage in self.stages
            ],
        }


@dataclass
class ManagerSolution:
    value_function: ValueFunction
    strategy: SeparatedTeamStrategy
    root_value: float
    node_counts: tuple[int, ...]


def solve_manager(
    model: TeamModel,
    structure: InformationStructure,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ManagerSolution:
    """Exact belief dynamic program over the reachable history tree.

    The root is the initial distribution; stage t+1 holds exactly the
    nodes generated from stage t by every (joint action, positive-
    probability joint observation) pair.  Raises IncompleteHistoryError
    for no_sharing (no pooled viewpoint exists) and BudgetExceededError
    when the tree would exceed ``node_budget`` nodes.
    """
    if structure.variant == "no_sharing":
        raise IncompleteHistoryError(
            "under no_sharing the pooled views do not exist; no manager problem is defined"
        )
    T = model.horizon
    stages: list[dict[str, tuple]] = [{"": ((), (), model.initial_dist.copy())}]
    total_nodes = 1
    for t in range(T):
        nxt: dict[str, tuple] = {}
        for obs_seq, act_seq, vec in stages[t].values():
            for u, _, branches in _expand(model, vec, t):
                for y, _, child in branches:
                    key = history_key(act_seq + (u,), obs_seq + (y,))
                    nxt[key] = (obs_seq + (y,), act_seq + (u,), child)
                    total_nodes += 1
                    if total_nodes > node_budget:
                        raise BudgetExceededError(
                            f"manager tree exceeds node budget {node_budget}",
                            budget=node_budget,
                            observed=total_nodes,
                        )
        stages.append(nxt)

    value_stages: list[dict[str, NodeValue]] = [dict() for _ in range(T + 1)]
    for key, (_, _, vec) in stages[T].items():
        value_stages[T][key] = NodeValue(belief=vec, value=float(vec @ model.terminal_cost))
    for t in range(T - 1, -1, -1):
        for key, (obs_seq, act_seq, vec) in stages[t].items():
            best = None
            best_u = None
            for u, immediate, branches in _expand(model, vec, t):
                q = immediate
                for y, w, _ in branches:
                    child_key = history_key(act_seq + (u,), obs_seq + (y,))
                    q += w * value_stages[t + 1][child_key].value
                if best is None or q < best:
                    best, best_u = q, u
            value_stages[t][key] = NodeValue(belief=vec, value=best, argmin=best_u)

    vf = ValueFunction(horizon=T, stages=tuple(value_stages))
    table = {k: nv.argmin for stage in value_stages[:T] for k, nv in stage.items()}
    beliefs = {k: nv.belief for stage in value_stages for k, nv in stage.items()}
    strategy = SeparatedTeamStrategy(model, structure, table, node_beliefs=beliefs)
    counts = tuple(len(stage) for stage in stages)
    return ManagerSolution(vf, strategy, float(vf.root.value), counts)


def evaluate_value(model: TeamModel, structure: InformationStructure, t: int, belief) -> float:
    """Optimal cost-to-go from an arbitrary time-t belief, by direct
    recursion (no tree reuse).  Accepts a Belief or a raw vector."""
    vec = _as_vec(belief)
    if t == model.horizon:
        return float(vec @ model.terminal_cost)
    best = None
    for _, immediate, branches in _expand(model, vec, t):
        q = immediate
        for _, w, child in branches:
            q += w * evaluate_value(model, structure, t + 1, child)
        if best is None or q < best:
            best = q
    return best


# ---------------------------------------------------------------------------
# member dynamic program


@dataclass
class MemberNode:
    """One member decision point: the realized view, the joint conditional
    over (state, history assignment) that the fixed co-strategies induce
    there, and after the backward pass its value and minimizing action."""

    view: HistoryView
    particles: tuple  # ((state, obs_seq, act_seq, weight), ...), weights sum to 1
    actions: dict = field(default_factory=dict)  # own action -> (immediate, ((child_key, w), ...))
    value: float | None = None
    argmin: int | None = None

    def state_marginal(self, num_states: int) -> np.ndarray:
        probs = np.zeros(num_states)
        for x, _, _, w in self.particles:
            probs[x] += w
        return probs


@dataclass
class MemberSolution:
    member: int
    nodes: tuple  # per stage: dict key -> MemberNode
    strategy: MemberSeparatedStrategy
    root_value: float
    node_counts: tuple[int, ...]


def solve_member(
    model: TeamModel,
    structure: InformationStructure,
    member: int,
    others_strategies: dict,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> MemberSolution:
    """Backward dynamic program for one member with co-strategies fixed.

    Builds the tree of views reachable with positive probability under the
    co-strategies and every own action, each node carrying its joint
    conditional, then backs up values with ties going to the smallest own
    action index.
    """
    k = member
    K, T = model.num_members, model.horizon
    for j in range(K):
        if j != k and j not in (others_strategies or {}):
            raise UndefinedCoStrategyError(f"no strategy supplied for co-member {j}")
    root_view = prefix_view(structure, K, (), (), 0, k)
    stages: list[dict[str, MemberNode]] = [
        {view_key(root_view): MemberNode(view=root_view, particles=_root_particles(model))}
    ]
    total_nodes = 1
    for t in range(T):
        nxt: dict[str, MemberNode] = {}
        for node in stages[t].values():
            for own in range(model.action_sizes[k]):
                imm, branches = _member_step(
                    model, structure, k, others_strategies, node.particles, t, own
                )
                transitions = []
                for wc, child_particles in branches.values():
                    _, o0, a0, _ = child_particles[0]
                    cview = prefix_view(structure, K, o0, a0, t + 1, k)
                    ckey = view_key(cview)
                    # a view records the member's whole past, so no two
                    # (parent, action, innovation) paths share a child
                    assert ckey not in nxt, ckey
                    nxt[ckey] = MemberNode(view=cview, particles=child_particles)
                    total_nodes += 1
                    if total_nodes > node_budget:
                        raise BudgetExceededError(
                            f"member tree exceeds node budget {node_budget}",
                            budget=node_budget,
                            observed=total_nodes,
                        )
                    transitions.append((ckey, wc))
                node.actions[own] = (imm, tuple(transitions))
        stages.append(nxt)

    for node in stages[T].values():
        node.value = sum(w * float(model.terminal_cost[x]) for x, _, _, w in node.particles)
    for t in range(T - 1, -1, -1):
        for node in stages[t].values():
            best = None
            best_a = None
            for own in range(model.action_sizes[k]):
                imm, transitions = node.actions[own]
                q = imm + sum(w * stages[t + 1][ck].value for ck, w in transitions)
                if best is None or q < best:
                    best, best_a = q, own
            node.value, node.argmin = best, best_a

    table = {
        key: node.argmin for stage in stages[:T] for key, node in stage.items()
    }
    beliefs = {
        key: node.state_marginal(model.num_states)
        for stage in stages
        for key, node in stage.items()
    }
    strategy = MemberSeparatedStrategy(model, structure, k, table, node_beliefs=beliefs, default=0)
    root_key = view_key(root_view)
    return MemberSolution(
        member=k,
        nodes=tuple(stages),
        strategy=strategy,
        root_value=float(stages[0][root_key].value),
        node_counts=tuple(len(s) for s in stages),
    )


def evaluate_member_value(
    model: TeamModel,
    structure: InformationStructure,
    member: int,
    others_strategies: dict,
    conditional,
) -> float:
    """Member-side optimal cost-to-go from an arbitrary joint conditional
    (a JointConditional or a raw particle tuple at a known time).

    Direct recursion mirroring :func:`solve_member`; used for property
    probes (homogeneity/concavity in the conditional weights).
    """
    if hasattr(conditional, "entries"):
        t, particles = conditional.time, conditional.entries
    else:
        t, particles = conditional
    return _member_value_rec(model, structure, member, others_strategies, t, particles)


def _member_value_rec(model, structure, k, others, t, particles) -> float:
    if t == model.horizon:
        return sum(w * float(model.terminal_cost[x]) for x, _, _, w in particles)
    best = None
    for own in range(model.action_sizes[k]):
        imm, branches = _member_step(model, structure, k, others, particles, t, own)
        q = imm
        for wc, child in branches.values():
            q += wc * _member_value_rec(model, structure, k, others, t + 1, child)
        if best is None or q < best:
            best = q
    return best


# ---------------------------------------------------------------------------
# manager vs member comparison


@dataclass
class MemberComparison:
    member: int
    root_value: float
    root_gap: float
    agreement_fraction: float
    nodes: list  # per-node dicts

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "root_value": float(self.root_value),
            "root_gap": float(self.root_gap),
            "agreement_fraction": float(self.agreement_fraction),
            "nodes": self.nodes,
        }


@dataclass
class ComparisonReport:
    manager_root_value: float
    manager_cost: float
    member_profile_cost: float
    profile_fallback_views: int
    decentralized_optimal_cost: float
    decentralized_num_strategies: int
    members: list

    def to_json_dict(self) -> dict:
        return {
            "manager_root_value": float(self.manager_root_value),
            "manager_cost": float(self.manager_cost),
            "member_profile_cost": float(self.member_profile_cost),
            "profile_fallback_views": int(self.profile_fallback_views),
            "decentralized_optimal_cost": float(self.decentralized_optimal_cost),
            "decentralized_num_strategies": int(self.decentralized_num_strategies),
            "members": [m.to_json_dict() for m in self.members],
        }


def compare_solutions(
    model: TeamModel,
    structure: InformationStructure,
    node_budget: int = DEFAULT_NODE_BUDGET,
    strategy_budget: int | None = None,
) -> ComparisonReport:
    """Solve the manager problem, re-solve each member against the
    manager-induced co-strategies, and put the results side by side.

    Reports per-node argmin agreement and value gaps, the exact costs of
    (a) the manager strategy, (b) the profile of member solutions, and
    (c) the exhaustive decentralized optimum.  Agreement is information,
    not an assertion: for genuinely decentralized instances the member
    argmins need not reproduce the manager's.
    """
    from . import oracle

    if strategy_budget is None:
        strategy_budget = oracle.DEFAULT_STRATEGY_BUDGET
    mgr = solve_manager(model, structure, node_budget=node_budget)
    projections = {
        j: ManagerProjectionStrategy(j, mgr.strategy) for j in range(model.num_members)
    }
    member_solutions = []
    comparisons = []
    for k in range(model.num_members):
        others = {j: projections[j] for j in range(model.num_members) if j != k}
        sol = solve_member(model, structure, k, others, node_budget=node_budget)
        member_solutions.append(sol)
        nodes_out = []
        agree_count = 0
        decision_nodes = 0
        for t in range(model.horizon):
            for key, node in sol.nodes[t].items():
                mgr_weights: dict[int, float] = {}
                mgr_value = 0.0
                for _, obs_seq, act_seq, w in node.particles:
                    mkey = history_key(act_seq, obs_seq)
                    mnode = mgr.value_function.stages[t][mkey]
                    mgr_weights[mnode.argmin[k]] = mgr_weights.get(mnode.argmin[k], 0.0) + w
                    mgr_value += w * mnode.value
                agree = set(mgr_weights) == {node.argmin}
                agree_count += agree
                decision_nodes += 1
                nodes_out.append(
                    {
                        "node": key,
                        "time": t,
                        "member_argmin": int(node.argmin),
                        "member_value": float(node.value),
                        "manager_action_weights": {str(a): float(w) for a, w in sorted(mgr_weights.items())},
                        "manager_value_mixture": float(mgr_value),
                        "value_gap": float(node.value - mgr_value),
                        "argmin_agrees": bool(agree),
                    }
                )
        comparisons.append(
            MemberComparison(
                member=k,
                root_value=sol.root_value,
                root_gap=sol.root_value - mgr.root_value,
                agreement_fraction=agree_count / max(decision_nodes, 1),
                nodes=nodes_out,
            )
        )
    profile = DecentralizedStrategy(model, structure, [s.strategy for s in member_solutions])
    for s in member_solutions:
        s.strategy.fallback_keys.clear()
    profile_cost = oracle.exact_cost(model, structure, profile)
    fallbacks = sum(len(s.strategy.fallback_keys) for s in member_solutions)
    dec = oracle.enumerate_decentralized(model, structure, budget=strategy_budget)
    return ComparisonReport(
        manager_root_value=mgr.root_value,
        manager_cost=oracle.exact_cost(model, structure, mgr.strategy),
        member_profile_cost=profile_cost,
        profile_fallback_views=fallbacks,
        decentralized_optimal_cost=dec.optimal_cost,
        decentralized_num_strategies=dec.num_strategies,
        members=comparisons,
    )
