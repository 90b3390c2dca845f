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
numbers do not depend on how many nodes share its stage.

The horizon stage is needed only as terminal values, so no solve holds
it: at the last stage the kernel folds each block of children into their
terminal values as soon as it builds them.  The value function is the
solved arrays of stages 0..T-1 (with the model, the joint action and
observation labels they index, beliefs, values, argmin action indices
and child indices); :meth:`ValueFunction.horizon_stage` builds the
horizon's beliefs and values again for any set of stage-(T-1) rows with
the same kernel, bit for bit, and the ``solve-manager`` report writer
asks it for one group of parents at a time.  The solver makes no history
key, and the manager's strategy reads the argmins: a history finds its
row by one walk over the child indices (:meth:`ValueFunction.row`).
Both report formats, and the history keys they print, are written by
``teamdp.cli`` from the stage arrays.

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
child node, its parent row, own action and branch weight (only the
member side imports ``filters``, so a manager solve never loads it).
``solve_member`` and ``evaluate_member_value`` run it forward once per
stage and then back up over the arrays with ``np.bincount`` in branch
order (``_member_tree``); ``evaluate_member_value`` does so over the
tree reachable from its conditional alone, so at a solved node it returns
the node's value bit for bit.  A stage's view keys come from one
kernel, ``_view_keys``, which member tables also answer through: values
taken from the stage's ``(H, t, K)`` history arrays by slot column, one
``%`` on :func:`teamdp.model.view_key_format` per key, no
:class:`HistoryView`.  A solve keys only the decision stages, for the
strategy table; the strategy's node beliefs key every stage once, on
first read, and :attr:`MemberSolution.nodes` takes its keys from there.
``compare_solutions`` reads the solution's arrays and its table's keys,
and builds no node.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from typing import Callable

import numpy as np

from .errors import (
    BudgetExceededError,
    IncompleteHistoryError,
    InvariantError,
)
from .model import (
    DEFAULT_NODE_BUDGET,
    HistoryView,
    InformationStructure,
    TeamModel,
    _check_range,
    _likelihood_vec,
    prefix_view,
    view_key_format,
    tiebreak_joint_actions,
)
from .strategies import (
    DecentralizedStrategy,
    ManagerProjectionStrategy,
    MemberSeparatedStrategy,
    SeparatedTeamStrategy,
    _co_strategies,
)

__all__ = [
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


def _as_vec(model: TeamModel, belief) -> np.ndarray:
    vec = np.asarray(getattr(belief, "probs", belief), dtype=float)
    if vec.shape != (model.num_states,):
        raise ValueError(f"belief of shape {vec.shape}, not ({model.num_states},)")
    return vec


def _state_sum(beliefs: np.ndarray, per_state: np.ndarray) -> np.ndarray:
    """sum over x of beliefs[:, x] * per_state[x], added in the order
    x = 0, 1, ...  Elementwise products only, no BLAS reduction, so a row's
    bits do not depend on how many rows share the batch."""
    shape = (len(beliefs),) + (1,) * (per_state.ndim - 1)
    acc = beliefs[:, 0].reshape(shape) * per_state[0]
    for x in range(1, beliefs.shape[1]):
        acc += beliefs[:, x].reshape(shape) * per_state[x]
    return acc


# nodes of a stage whose children ``_stage`` builds at a time, so that its
# index arrays and temporaries are one block's, whatever the stage's size
_NODE_BLOCK = 256


def _stage_tables(model: TeamModel):
    """What ``_stage`` reads of ``model`` besides its arrays: the flat index
    of each joint action in tie-break order, and the likelihood vector of
    each joint observation, one row each."""
    order = [model.flat_action(u) for u in tiebreak_joint_actions(model)]
    return order, np.array([_likelihood_vec(model, y) for y in model.joint_observations])


def _stage(
    model: TeamModel,
    beliefs: np.ndarray,
    t: int,
    node_budget=None,
    used=0,
    tables=None,
    per_state=None,
):
    """Expand every node of a stage at once.

    ``beliefs`` is ``(N, S)``, one (possibly unnormalized) belief per row.
    Returns

    * ``immediate`` ``(N, A)``: stage costs, actions in tie-break order;
    * ``weights`` ``(N, A, Y)``: probability of each joint observation;
    * ``index`` ``(N, A, Y)``: row of the branch's child in ``children``,
      -1 where the weight is exactly zero (such branches are skipped,
      never conditioned on);
    * ``children`` ``(N', S)``: the normalized updated beliefs of the
      positive branches, in (node, action, observation) order; with
      ``per_state``, ``_state_sum(children, per_state)`` in their place.

    Never normalizes its input, so weights scale linearly in it.  When
    ``node_budget`` is given, raises BudgetExceededError before building
    the children if ``used`` plus their number exceeds it.  ``tables`` is
    ``_stage_tables(model)``, built here when not given.

    The children are built ``_NODE_BLOCK`` nodes at a time: each child is
    ``(pred * like) / weight`` element by element, as for the whole stage
    at once, so the bits do not depend on the block size, and the branch
    indices and temporaries are one block's.  Each block is written into
    one preallocated result as it is built, reduced first when
    ``per_state`` is given, so that no block of beliefs outlives its sum:
    the solve folds the horizon stage into its terminal values this way.
    """
    order, like = tables or _stage_tables(model)
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
    children = np.empty((count, model.num_states) if per_state is None else count)
    # flat views: one row of pred per (node, action), one entry per branch
    pairs, flat_live = pred.reshape(-1, model.num_states), live.reshape(-1)
    flat_index, flat_weights = index.reshape(-1), weights.reshape(-1, 1)
    step = _NODE_BLOCK * pred.shape[1] * len(like)  # branches per block
    lo = 0  # the block's first child row
    for first in range(0, len(flat_live), step):
        branches = first + np.flatnonzero(flat_live[first : first + step])
        hi = lo + len(branches)
        flat_index[branches] = np.arange(lo, hi)
        pair, obs = np.divmod(branches, len(like))
        out = children[lo:hi] if per_state is None else None
        out = np.multiply(pairs[pair], like[obs], out=out)
        out /= flat_weights[branches]
        if per_state is not None:
            children[lo:hi] = _state_sum(out, per_state)
        lo = hi
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
    (value, argmin joint action).  Raises ValueError for a time outside
    0..T-1 or a belief whose length is not the number of states.
    """
    _check_range("time", t, model.horizon)
    immediate, weights, index, children = _stage(model, _as_vec(model, belief)[None, :], t)
    nxt = np.array([value_next(child) for child in children], dtype=float)
    value, best = _stage_values((immediate, weights, index), nxt)
    return float(value[0]), tiebreak_joint_actions(model)[best[0]]


@dataclass(eq=False)
class ValueFunction:
    """The manager's value function, held as the solver's stage arrays.

    For t = 0..horizon-1: ``beliefs[t]`` ``(N, S)``, ``values[t]``
    ``(N,)``, ``argmins[t]`` ``(N,)``, indices into ``actions`` (the joint
    actions in tie-break order), and ``index[t]`` ``(N, A, Y)``, the row of
    each branch's child in stage t+1 (-1 for a zero-probability branch),
    its observation axis in the order of ``observations`` (the joint
    observations, member K-1 fastest).  Row r of stage t+1 is the r-th
    live branch of ``index[t]`` in flat order.  :meth:`row` finds a
    history's row by walking ``index``.

    The horizon stage is not held: :meth:`horizon_stage` builds the
    beliefs and terminal values of any of its rows again from ``model``
    with the solve's kernel, bit for bit.  At horizon 0 the root is the
    horizon, and ``beliefs[0]`` and ``values[0]`` hold it."""

    model: TeamModel
    horizon: int
    actions: list[tuple[int, ...]]
    observations: tuple[tuple[int, ...], ...]
    beliefs: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    argmins: tuple[np.ndarray, ...]
    index: tuple[np.ndarray, ...]

    @cached_property
    def _tables(self):
        return _stage_tables(self.model)

    def horizon_stage(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """The horizon beliefs ``(n, S)`` and terminal values ``(n,)`` of
        the children of the stage-(T-1) ``rows`` (of every row when None),
        in (given row, action, observation) order: ``_stage`` on those
        rows' beliefs, which gives the solve's bits whatever rows share
        the call.  Raises ValueError at horizon 0, where no stage has
        children."""
        if not self.horizon:
            raise ValueError("at horizon 0 the root is the horizon stage, held in beliefs[0]")
        parents = self.beliefs[-1] if rows is None else self.beliefs[-1][rows]
        children = _stage(self.model, parents, self.horizon - 1, tables=self._tables)[3]
        return children, _state_sum(children, self.model.terminal_cost)

    def row(self, model: TeamModel, obs_seq, act_seq) -> int:
        """Stage-t row of the history ``obs_seq`` (y_1..y_t), ``act_seq``
        (u_0..u_{t-1}), found without a key: from row 0, for s < t, ``row =
        index[s][row, u_s's tie-break position (member 0 fastest), y_{s+1}'s
        flat position (member K-1 fastest)]``, with Python ints.  -1 off the
        tree, for a joint label of the wrong length, or for a label outside
        its member's range, negative ones included, which would otherwise
        alias another branch.  Raises ValueError for a history length
        outside 0..T or unequal numbers of actions and observations."""
        t = len(act_seq)
        _check_range("history length", t, self.horizon + 1)
        if len(obs_seq) != t:
            raise ValueError(f"history of {t} joint actions and {len(obs_seq)} observations")
        A, Y = model.action_sizes, model.observation_sizes
        row = 0
        for index, u, y in zip(self.index, act_seq, obs_seq):
            if len(u) != len(A) or len(y) != len(Y):
                return -1
            a = b = 0
            for label, size in zip(u[::-1], A[::-1]):
                if not 0 <= label < size:
                    return -1
                a = a * size + label
            for label, size in zip(y, Y):
                if not 0 <= label < size:
                    return -1
                b = b * size + label
            row = index.item(row, a, b)
            if row < 0:
                return -1
        return row


@dataclass
class ManagerSolution:
    value_function: ValueFunction
    strategy: SeparatedTeamStrategy
    root_value: float
    node_counts: tuple[int, ...]


def _solve_tree(model: TeamModel, root: np.ndarray, t: int, node_budget=None):
    """Forward over the reachable tree from one time-t belief, then
    backward.  The horizon's children are folded into their terminal
    values block by block as ``_stage`` builds them, so no horizon belief
    is held but the root's when it is the horizon.  Returns the beliefs of
    stages t..max(t, T-1), forward steps ``(immediate, weights, index)``,
    values of stages t..T and argmin action indices."""
    tables = _stage_tables(model)
    beliefs, steps = [root[None, :]], []
    values = [] if t < model.horizon else [_state_sum(beliefs[0], model.terminal_cost)]
    for s in range(t, model.horizon):
        per_state = model.terminal_cost if s + 1 == model.horizon else None
        used = sum(map(len, beliefs))
        *step, children = _stage(model, beliefs[-1], s, node_budget, used, tables, per_state)
        steps.append(step)
        (beliefs if per_state is None else values).append(children)
    argmins = []
    for step in reversed(steps):
        value, best = _stage_values(step, values[0])
        values.insert(0, value)
        argmins.insert(0, best)
    return beliefs, steps, values, argmins


def solve_manager(
    model: TeamModel,
    structure: InformationStructure,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ManagerSolution:
    """Exact belief dynamic program over the reachable history tree.

    The root is the initial distribution; stage t+1 holds exactly the
    nodes generated from stage t by every (joint action, positive-
    probability joint observation) pair.  The solution holds no array of
    the horizon stage but the last child index (see :class:`ValueFunction`).
    Raises IncompleteHistoryError for no_sharing (no pooled viewpoint
    exists) and BudgetExceededError when the tree would exceed
    ``node_budget`` nodes.
    """
    if structure.variant == "no_sharing":
        raise IncompleteHistoryError(
            "under no_sharing the pooled views do not exist; no manager problem is defined"
        )
    beliefs, steps, values, argmins = _solve_tree(model, model.initial_dist, 0, node_budget)
    labels = tiebreak_joint_actions(model), model.joint_observations
    index = tuple(step[2] for step in steps)
    held = tuple(values[: len(beliefs)])
    vf = ValueFunction(model, model.horizon, *labels, tuple(beliefs), held, tuple(argmins), index)
    counts = tuple(map(len, values))
    return ManagerSolution(vf, SeparatedTeamStrategy(model, vf), float(values[0][0]), counts)


def evaluate_value(model: TeamModel, t: int, belief) -> float:
    """Optimal cost-to-go from an arbitrary time-t belief: the same stage
    kernel as :func:`solve_manager`, run over the tree reachable from that
    belief alone.  Accepts a Belief or a raw vector.  Raises ValueError
    for a time outside 0..T or a belief whose length is not the number of
    states."""
    _check_range("time", t, model.horizon + 1)
    _, _, values, _ = _solve_tree(model, _as_vec(model, belief), t)
    return float(values[0][0])


# ---------------------------------------------------------------------------
# member dynamic program


class MemberNode:
    """One member decision point: the realized view, the joint conditional
    over (state, history assignment) that the fixed co-strategies induce
    there, and after the backward pass its value and minimizing action
    (None at the horizon).  The conditional lives in its stage's arrays;
    ``particles`` builds the ((state, obs_seq, act_seq, weight), ...)
    tuples, weights summing to 1, on first use, and ``view`` the
    :class:`HistoryView` from the node's first history on first read."""

    __slots__ = ("value", "argmin", "_stage", "_row", "_structure", "_member", "_view")

    def __init__(self, value: float, argmin: int | None, stage, row: int, structure, member: int):
        self.value = value
        self.argmin = argmin
        self._stage = stage
        self._row = row
        self._structure = structure
        self._member = member
        self._view = None

    @property
    def view(self) -> HistoryView:
        if self._view is None:
            stage, K = self._stage, self._stage.obs.shape[2]
            obs_seq, act_seq = stage.sequences[stage.hist[stage.bounds[self._row]]]
            self._view = prefix_view(self._structure, K, obs_seq, act_seq, stage.time, self._member)
        return self._view

    @property
    def particles(self) -> tuple:
        return self._stage.particles(self._row)

    def state_marginal(self, num_states: int) -> np.ndarray:
        return self._stage.marginals[self._row].copy()


def _view_keys(structure: InformationStructure, member: int, obs: np.ndarray, act: np.ndarray):
    """Member ``member``'s view keys of the histories held in ``obs`` and
    ``act`` (each ``(N, t, K)``), equal to ``view_key(prefix_view(...))``
    of each: the values are taken by slot column and each key is one
    ``%`` on :func:`teamdp.model.view_key_format`."""
    N, t, K = obs.shape
    fmt, slots = view_key_format(structure, K, t, member)
    cols = [(s - 1) * K + j if kind == "obs" else (t + s) * K + j for s, j, kind in slots]
    values = np.concatenate([obs.reshape(N, t * K), act.reshape(N, t * K)], axis=1)[:, cols]
    return [fmt % row for row in map(tuple, values.tolist())]


def _first_histories(stage) -> tuple[np.ndarray, np.ndarray]:
    """The joint observations and actions ``(N, t, K)`` of each node's
    first history; all of a node's histories give its view."""
    first = stage.hist[stage.bounds[:-1]]
    return stage.obs[first], stage.act[first]


def _keyed(keys: list, items) -> dict:
    """``dict(zip(keys, items))``, refusing a key that repeats: a view
    records the member's whole past, so no two (parent, action,
    innovation) paths share a node."""
    out = dict(zip(keys, items))
    if len(out) < len(keys):
        seen: set = set()
        key = next(key for key in keys if key in seen or seen.add(key))
        raise InvariantError(f"two member-tree paths reach view {key!r}")
    return out


@dataclass(eq=False)
class MemberSolution:
    """One member's dynamic program, held as its stages of arrays: per
    stage the :class:`teamdp.filters._MemberStage` and the node values
    ``(N,)``, per decision stage the argmin own action of each node
    ``(N,)``, and the strategy, whose table maps the decision stages'
    view keys, in stage and row order, to those argmins.  ``nodes``, per
    stage the dict from view key to :class:`MemberNode`, is built on
    first read with the keys of the strategy's node beliefs; a view
    reached twice raises InvariantError where its stage is first keyed."""

    member: int
    structure: InformationStructure
    stages: tuple
    values: tuple
    argmins: tuple
    strategy: MemberSeparatedStrategy
    root_value: float
    node_counts: tuple[int, ...]

    @cached_property
    def nodes(self) -> tuple:
        keys = iter(self.strategy.node_beliefs)  # every stage's, in stage and row order
        best = [a.tolist() for a in self.argmins] + [[None] * self.stages[-1].num_nodes]
        # ``keys`` last in ``zip``, so that each stage takes exactly its nodes' keys
        return tuple(
            {
                key: MemberNode(v, a, stage, row, self.structure, self.member)
                for row, (v, a, key) in enumerate(zip(values.tolist(), argmins, keys))
            }
            for stage, values, argmins in zip(self.stages, self.values, best)
        )


def _member_tree(model, structure, k, others, start=None, node_budget=None):
    """Forward over the member tree reachable from the root, or from the
    ``(time, particles)`` of ``start`` as one node, under every own
    action, then backward: terminal values summed in particle order,
    then per node and own action the stage cost plus the branch terms
    added in branch order, and the first own action attaining the
    minimum.  Returns the stages, per-stage values and argmin columns."""
    from .filters import _member_stage, _particle_stage, _root_stage

    stage = _root_stage(model) if start is None else _particle_stage(model, *start)
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
    :func:`teamdp.filters._member_stage`); each co-strategy is asked once
    per stage where it has ``member_actions``.  The solve keys the
    decision stages (t < T) for the strategy table, refusing a repeated
    view, and builds nothing that only a report reads (see
    :class:`MemberSolution`).  Raises ValueError for a member outside
    0..K-1 or a co-strategy whose ``member`` is not its key.
    """
    k = member
    K, T = model.num_members, model.horizon
    _check_range("member", k, K)
    others = _co_strategies(others_strategies, k, K)
    stages, values, argmins = _member_tree(model, structure, k, others, None, node_budget)
    keys = [
        key for stage in stages[:T] for key in _view_keys(structure, k, *_first_histories(stage))
    ]
    table = _keyed(keys, [a for best in argmins for a in best.tolist()])
    # what the node beliefs are built from, without holding the stages
    horizon = _first_histories(stages[-1])
    marginals = [stage.marginals for stage in stages]

    def node_beliefs():
        return _keyed([*keys, *_view_keys(structure, k, *horizon)], chain.from_iterable(marginals))

    strategy = MemberSeparatedStrategy(
        model, structure, k, table, node_beliefs=node_beliefs, default=0
    )
    return MemberSolution(
        member=k,
        structure=structure,
        stages=tuple(stages),
        values=tuple(values),
        argmins=tuple(argmins),
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
    Raises ValueError for a member outside 0..K-1, a time outside 0..T or
    a co-strategy whose ``member`` is not its key, and
    UndefinedCoStrategyError for a missing co-strategy, at t = T too.
    """
    if hasattr(conditional, "entries"):
        t, particles = conditional.time, conditional.entries
    else:
        t, particles = conditional
    _check_range("member", member, model.num_members)
    _check_range("time", t, model.horizon + 1)
    others = _co_strategies(others_strategies, member, model.num_members)
    _, values, _ = _member_tree(model, structure, member, others, (t, particles))
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
        return asdict(self)


def compare_solutions(
    model: TeamModel,
    structure: InformationStructure,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ComparisonReport:
    """Solve the manager problem, re-solve each member against the
    manager-induced co-strategies, and put the results side by side.

    Reports per-node argmin agreement and value gaps, the exact costs of
    (a) the manager strategy, (b) the profile of member solutions, and
    (c) the exhaustive decentralized optimum.  Agreement is information,
    not an assertion: for genuinely decentralized instances the member
    argmins need not reproduce the manager's.

    The per-node figures are a join of the member stage arrays with the
    manager's: the manager row of each distinct history of a member stage
    is found by :meth:`ValueFunction.row` and spread to the particles,
    then the manager's action weights and value mixture are summed per
    node with ``np.bincount`` in particle order.  The member's side is
    its solution's ``values[t]`` and ``argmins[t]`` and its table's keys.
    """
    from . import oracle

    mgr = solve_manager(model, structure, node_budget=node_budget)
    vf = mgr.value_function
    projections = {
        j: ManagerProjectionStrategy(j, mgr.strategy) for j in range(model.num_members)
    }
    member_solutions = []
    comparisons = []
    for k in range(model.num_members):
        others = {j: projections[j] for j in range(model.num_members) if j != k}
        sol = solve_member(model, structure, k, others, node_budget=node_budget)
        member_solutions.append(sol)
        own = np.array([u[k] for u in vf.actions], dtype=np.intp)
        O = model.action_sizes[k]
        nodes_out = []
        agree_count = 0
        keys = iter(sol.strategy.table)  # the decision stages' keys, in stage and row order
        for t, stage in zip(range(model.horizon), sol.stages):
            rows = np.array([vf.row(model, *seqs) for seqs in stage.sequences], dtype=np.intp)
            if (rows < 0).any():
                raise InvariantError(f"a member history of stage {t} is off the manager tree")
            rows = rows[stage.hist]
            cells = stage.node * O + own[vf.argmins[t][rows]]
            size = stage.num_nodes * O
            weights = np.bincount(cells, stage.w, minlength=size).reshape(-1, O).tolist()
            occurs = np.bincount(cells, minlength=size).reshape(-1, O).tolist()
            mixture = np.bincount(stage.node, stage.w * vf.values[t][rows]).tolist()
            member_side = zip(sol.values[t].tolist(), sol.argmins[t].tolist(), keys)
            for row, (value, argmin, key) in enumerate(member_side):
                actions = [a for a in range(O) if occurs[row][a]]
                agree = actions == [argmin]
                agree_count += agree
                nodes_out.append(
                    {
                        "node": key,
                        "time": t,
                        "member_argmin": argmin,
                        "member_value": value,
                        "manager_action_weights": {str(a): weights[row][a] for a in actions},
                        "manager_value_mixture": mixture[row],
                        "value_gap": value - mixture[row],
                        "argmin_agrees": agree,
                    }
                )
        comparisons.append(
            MemberComparison(
                member=k,
                root_value=sol.root_value,
                root_gap=sol.root_value - mgr.root_value,
                agreement_fraction=agree_count / max(len(nodes_out), 1),
                nodes=nodes_out,
            )
        )
    profile = DecentralizedStrategy(model, structure, [s.strategy for s in member_solutions])
    profile_cost = oracle.exact_cost(model, structure, profile)
    # the member strategies were made above and first consulted by exact_cost
    fallbacks = sum(s.strategy.fallbacks for s in member_solutions)
    dec = oracle.enumerate_decentralized(model, structure)
    return ComparisonReport(
        manager_root_value=mgr.root_value,
        manager_cost=oracle.exact_cost(model, structure, mgr.strategy),
        member_profile_cost=profile_cost,
        profile_fallback_views=fallbacks,
        decentralized_optimal_cost=dec.optimal_cost,
        decentralized_num_strategies=dec.num_strategies,
        members=comparisons,
    )
