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
Argmins walk joint actions with member 0 varying fastest and keep the
first strict minimum, so repeated solves are byte-for-byte identical.

Because the team belief does not depend on the strategy being optimized,
every node of a stage goes through the same linear map, and the solver
holds a stage as arrays rather than as per-node objects: the beliefs
``(N, S)``, the immediate costs ``(N, A)`` and observation weights
``(N, A, Y)`` with joint actions in tie-break order, and an index
``(N, A, Y)`` from each positive branch to its child's row in the next
stage (-1 for a zero-probability branch).  One stage kernel builds these
for ``solve_manager``, ``backup`` and ``evaluate_value``; sums over the
state run in a fixed order with elementwise operations, so a node's
numbers do not depend on how many nodes share its stage.  History keys
are built only at the edge, for the value function and strategy table.

Member side: with every co-member's strategy fixed, one member faces a
decision problem whose sufficient statistic is the joint conditional over
(state, co-members' private data) given the member's own view.  Nodes are
keyed by the realized view itself, not by the state belief, because two
views with identical state beliefs can still induce different laws for
what the co-members will do next.  The member's own past actions enter as
recorded data, so the construction never consults the strategy being
optimized.

The member tree is held as arrays too.  The stage kernel
``filters._member_stage`` expands every node of a stage at once, under
every own action, and returns the immediate costs ``(N, O)`` and, per
child node, its parent row, own action and branch weight.
``solve_member`` and ``evaluate_member_value`` run it forward once per
stage and then back up over the arrays with ``np.bincount`` in branch
order (``_member_tree``); ``evaluate_member_value`` does so over the
tree reachable from its conditional alone, so at a solved node it returns
the node's value bit for bit.  View keys, node beliefs and the particle
tuples of :class:`MemberNode` are built only at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BudgetExceededError,
    IncompleteHistoryError,
    InvariantError,
    UndefinedCoStrategyError,
)
from .filters import (
    _likelihood_vec,
    _member_stage,
    _particle_stage,
    _root_stage,
    _sequences,
)
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


def _state_sum(beliefs: np.ndarray, per_state: np.ndarray) -> np.ndarray:
    """sum over x of beliefs[:, x] * per_state[x], added in the order
    x = 0, 1, ...  Elementwise products only, no BLAS reduction, so a row's
    bits do not depend on how many rows share the batch."""
    shape = (len(beliefs),) + (1,) * (per_state.ndim - 1)
    acc = beliefs[:, 0].reshape(shape) * per_state[0]
    for x in range(1, beliefs.shape[1]):
        acc += beliefs[:, x].reshape(shape) * per_state[x]
    return acc


def _stage(model: TeamModel, beliefs: np.ndarray, t: int, node_budget=None, used=0):
    """Expand every node of a stage at once.

    ``beliefs`` is ``(N, S)``, one (possibly unnormalized) belief per row.
    Returns

    * ``immediate`` ``(N, A)``: stage costs, actions in tie-break order;
    * ``weights`` ``(N, A, Y)``: probability of each joint observation;
    * ``index`` ``(N, A, Y)``: row of the branch's child in ``children``,
      -1 where the weight is exactly zero (such branches are skipped,
      never conditioned on);
    * ``children`` ``(N', S)``: the normalized updated beliefs of the
      positive branches, in (node, action, observation) order.

    Never normalizes its input, so weights scale linearly in it.  When
    ``node_budget`` is given, raises BudgetExceededError before building
    the children if ``used`` plus their number exceeds it.
    """
    order = [model.flat_action(u) for u in tiebreak_joint_actions(model)]
    like = np.array([_likelihood_vec(model, y) for y in model.joint_observations])
    immediate = _state_sum(beliefs, model.stage_cost[t][:, order])
    pred = _state_sum(beliefs, model.transition[:, order, :])
    weights = _state_sum(pred.reshape(-1, model.num_states), like.T).reshape(
        pred.shape[:2] + (len(like),)
    )
    live = weights != 0.0
    count = int(np.count_nonzero(live))
    if node_budget is not None and used + count > node_budget:
        raise BudgetExceededError(
            f"manager tree exceeds node budget {node_budget}",
            budget=node_budget,
            observed=node_budget + 1,
        )
    index = np.full(weights.shape, -1, dtype=np.intp)
    index[live] = np.arange(count)
    nodes, actions, obs = np.nonzero(live)
    children = pred[nodes, actions] * like[obs] / weights[live][:, None]
    return immediate, weights, index, children


def _stage_values(step, value_next: np.ndarray):
    """Backward half of a stage: Q-values from the children's values,
    observation branches added in order; per row the minimum and the first
    action attaining it."""
    immediate, weights, index = step
    q = immediate.copy()
    if len(value_next):
        for y in range(weights.shape[2]):
            w = weights[:, :, y]
            np.add(q, w * value_next[index[:, :, y]], out=q, where=w != 0.0)
    best = q.argmin(axis=1)
    return q[np.arange(len(q)), best], best


def backup(model: TeamModel, value_next: Callable[[np.ndarray], float], belief, t: int):
    """One-stage backup at time t.

    ``value_next`` maps a (normalized) time-t+1 belief vector to a value.
    ``belief`` may be a Belief or a raw vector; unnormalized input is
    allowed and the returned value then scales linearly with it.  Returns
    (value, argmin joint action).
    """
    immediate, weights, index, children = _stage(model, _as_vec(belief)[None, :], t)
    nxt = np.array([value_next(child) for child in children], dtype=float)
    value, best = _stage_values((immediate, weights, index), nxt)
    return float(value[0]), tiebreak_joint_actions(model)[best[0]]


@dataclass
class NodeValue:
    """Entry of a manager tree node: the team belief reached there, the
    optimal value, and the minimizing joint action (None at the horizon)."""

    belief: np.ndarray
    value: float | None = None
    argmin: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "belief": self.belief.tolist(),
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


def _solve_tree(model: TeamModel, root: np.ndarray, t: int, node_budget=None):
    """Forward over the reachable tree from one time-t belief, then
    backward.  Returns the per-stage beliefs, forward steps
    ``(immediate, weights, index)``, values and argmin action indices."""
    beliefs = [root[None, :]]
    steps = []
    for s in range(t, model.horizon):
        immediate, weights, index, children = _stage(
            model, beliefs[-1], s, node_budget, sum(map(len, beliefs))
        )
        steps.append((immediate, weights, index))
        beliefs.append(children)
    values = [_state_sum(beliefs[-1], model.terminal_cost)]
    argmins = []
    for step in reversed(steps):
        value, best = _stage_values(step, values[0])
        values.insert(0, value)
        argmins.insert(0, best)
    return beliefs, steps, values, argmins


def _child_keys(model: TeamModel, keys: list[str], index: np.ndarray, t: int) -> list[str]:
    """History keys of a stage's children: each parent key extended by
    ``u{t}=..;y{t+1}=..``, in the children's row order."""
    sep = ";" if t else ""
    suffixes = [
        f"{sep}u{t}={','.join(map(str, u))};y{t + 1}={','.join(map(str, y))}"
        for u in tiebreak_joint_actions(model)
        for y in model.joint_observations
    ]
    per_node = index.shape[1] * index.shape[2]
    flat = np.flatnonzero(index >= 0)
    return [keys[f // per_node] + suffixes[f % per_node] for f in flat.tolist()]


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
    beliefs, steps, values, argmins = _solve_tree(model, model.initial_dist, 0, node_budget)
    joint = tiebreak_joint_actions(model)
    keys = [""]
    value_stages: list[dict[str, NodeValue]] = []
    for t in range(T + 1):
        acts = [joint[a] for a in argmins[t].tolist()] if t < T else [None] * len(keys)
        value_stages.append(
            {
                key: NodeValue(belief=b, value=v, argmin=a)
                for key, b, v, a in zip(keys, beliefs[t], values[t].tolist(), acts)
            }
        )
        if t < T:
            keys = _child_keys(model, keys, steps[t][2], t)

    vf = ValueFunction(horizon=T, stages=tuple(value_stages))
    table = {k: nv.argmin for stage in value_stages[:T] for k, nv in stage.items()}
    node_beliefs = {k: nv.belief for stage in value_stages for k, nv in stage.items()}
    strategy = SeparatedTeamStrategy(model, structure, table, node_beliefs=node_beliefs)
    counts = tuple(len(b) for b in beliefs)
    return ManagerSolution(vf, strategy, float(vf.root.value), counts)


def evaluate_value(model: TeamModel, structure: InformationStructure, t: int, belief) -> float:
    """Optimal cost-to-go from an arbitrary time-t belief: the same stage
    kernel as :func:`solve_manager`, run over the tree reachable from that
    belief alone.  Accepts a Belief or a raw vector."""
    _, _, values, _ = _solve_tree(model, _as_vec(belief), t)
    return float(values[0][0])


# ---------------------------------------------------------------------------
# member dynamic program


class MemberNode:
    """One member decision point: the realized view, the joint conditional
    over (state, history assignment) that the fixed co-strategies induce
    there, and after the backward pass its value and minimizing action
    (None at the horizon).  The conditional lives in its stage's arrays;
    ``particles`` builds the ((state, obs_seq, act_seq, weight), ...)
    tuples, weights summing to 1, on first use."""

    __slots__ = ("view", "value", "argmin", "_stage", "_row")

    def __init__(self, view: HistoryView, value: float, argmin: int | None, stage, row: int):
        self.view = view
        self.value = value
        self.argmin = argmin
        self._stage = stage
        self._row = row

    @property
    def particles(self) -> tuple:
        return self._stage.particles(self._row)

    def state_marginal(self, num_states: int) -> np.ndarray:
        return self._stage.marginals[self._row].copy()


@dataclass
class MemberSolution:
    member: int
    nodes: tuple  # per stage: dict key -> MemberNode
    strategy: MemberSeparatedStrategy
    root_value: float
    node_counts: tuple[int, ...]


def _member_tree(model, structure, k, others, stage, node_budget=None):
    """Forward over the member tree reachable from one stage under every
    own action, then backward: terminal values summed in particle order,
    then per node and own action the stage cost plus the branch terms
    added in branch order, and the first own action attaining the
    minimum.  Returns the stages, per-stage values and argmin columns."""
    stages, steps = [stage], []
    own = range(model.action_sizes[k])
    used = stage.num_nodes
    for _ in range(stage.time, model.horizon):
        step, stage = _member_stage(model, structure, k, others, stage, own, node_budget, used)
        used += stage.num_nodes
        stages.append(stage)
        steps.append(step)
    terminal = stage.w * model.terminal_cost[stage.x]
    values = [np.bincount(stage.node, terminal, minlength=stage.num_nodes)]
    argmins = []
    for step in reversed(steps):
        N, O = step.immediate.shape
        branches = np.bincount(step.parent * O + step.own, step.weight * values[0], minlength=N * O)
        q = step.immediate + branches.reshape(N, O)
        best = q.argmin(axis=1)
        values.insert(0, q[np.arange(N), best])
        argmins.insert(0, best)
    return stages, values, argmins


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
    action index.  The tree is held as stages of arrays (see
    :func:`teamdp.filters._member_stage`); view keys are built only for
    the node dicts, the strategy table and the node beliefs.
    """
    k = member
    K, T = model.num_members, model.horizon
    others = others_strategies or {}
    for j in range(K):
        if j != k and j not in others:
            raise UndefinedCoStrategyError(f"no strategy supplied for co-member {j}")
    stages, values, argmins = _member_tree(
        model, structure, k, others, _root_stage(model), node_budget
    )
    node_stages: list[dict[str, MemberNode]] = []
    beliefs: dict[str, np.ndarray] = {}
    for t, stage in enumerate(stages):
        best = argmins[t].tolist() if t < T else [None] * stage.num_nodes
        first = stage.hist[stage.bounds[:-1]]
        seqs = _sequences(stage.obs[first], stage.act[first])
        nodes: dict[str, MemberNode] = {}
        for row, ((obs_seq, act_seq), v, a) in enumerate(zip(seqs, values[t].tolist(), best)):
            view = prefix_view(structure, K, obs_seq, act_seq, t, k)
            key = view_key(view)
            # a view records the member's whole past, so no two
            # (parent, action, innovation) paths share a node
            if key in nodes:
                raise InvariantError(f"two member-tree paths reach view {key!r}")
            nodes[key] = MemberNode(view, v, a, stage, row)
            beliefs[key] = stage.marginals[row]
        node_stages.append(nodes)

    table = {key: node.argmin for stage in node_stages[:T] for key, node in stage.items()}
    strategy = MemberSeparatedStrategy(model, structure, k, table, node_beliefs=beliefs, default=0)
    return MemberSolution(
        member=k,
        nodes=tuple(node_stages),
        strategy=strategy,
        root_value=float(values[0][0]),
        node_counts=tuple(s.num_nodes for s in stages),
    )


def evaluate_member_value(
    model: TeamModel,
    structure: InformationStructure,
    member: int,
    others_strategies: dict,
    conditional,
) -> float:
    """Member-side optimal cost-to-go from an arbitrary joint conditional
    (a JointConditional or a raw (time, particles) pair; the particles
    need not be normalized, ordered or distinct).

    The same stage kernel and backward pass as :func:`solve_member`, run
    over the tree reachable from that conditional as one node, so at a
    solved node it returns the node's value bit for bit.  Used for
    property probes (homogeneity/concavity in the conditional weights).
    """
    if hasattr(conditional, "entries"):
        t, particles = conditional.time, conditional.entries
    else:
        t, particles = conditional
    stage = _particle_stage(model, t, particles)
    _, values, _ = _member_tree(model, structure, member, others_strategies or {}, stage)
    return float(values[0][0])


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
