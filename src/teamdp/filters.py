"""Information-state filters.

The team side is a textbook hidden-Markov recursion over the state belief:
``predict`` pushes a belief through the controlled transition kernel,
``correct`` conditions on a joint observation (per-member likelihoods
multiply because observation noises are independent given the state),
``team_update`` chains the two, and ``team_belief_from_history`` folds
``team_update`` along the full history a team view pools.  The belief
after conditioning on everything the team has seen does not depend on
anybody's strategy, which is what makes the manager's dynamic program
well posed.

The member side is heavier.  Conditioned on one member's view, the state
is entangled with the co-members' unseen private data through their fixed
strategies, so the filter carries a weighted joint conditional over
(state, full history assignment).  A stage of member nodes is held as
arrays, ``_MemberStage``: one row per particle (node row, state, history
id, weight) plus a table of the stage's distinct full histories as small
integer arrays, which the co-strategies read.  One stage kernel,
``_member_stage``, expands every node of a stage at once under every own
action: it asks each co-strategy for the whole stage at once
(``member_actions``), or once per distinct history where it cannot,
propagates the particles, branches on unseen co-member data and groups
the children by the view slots newly revealed
(:func:`teamdp.model._revealed_slots`), summing with ``np.bincount`` in
a fixed order.  The member dynamic program in
:mod:`teamdp.dp` runs it stage by stage, and :func:`member_conditional`
replays it on a one-node stage along a view, keeping at each step the
branch the view reveals.  The ``(state, obs_seq, act_seq, weight)``
particle tuples are built only at the edge.  The member's own past
actions enter as recorded values, never through the member's own
strategy; the result is therefore invariant to it.  ``recombine`` reads
the conditional as arrays too: it checks the co-members' private data
with :func:`teamdp.model._slot_values` and sums with ``np.bincount`` in
particle order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IncompleteHistoryError, ZeroLikelihoodError
from .model import (
    HistoryView,
    InformationStructure,
    TeamModel,
    _check_budget,
    _check_range,
    _first_occurrences,
    _likelihood_vec,
    _revealed_slots,
    _slot_values,
    view_known,
    view_slots,
)
from .strategies import _co_actions, _co_strategies

__all__ = [
    "Belief",
    "JointConditional",
    "predict",
    "correct",
    "team_update",
    "team_belief_from_history",
    "member_conditional",
    "member_belief",
    "recombine",
]

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Belief:
    """A normalized distribution over states at a given time."""

    probs: np.ndarray
    time: int

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("belief entries must be nonnegative")
        if not math.isclose(float(arr.sum()), 1.0, rel_tol=0.0, abs_tol=_NORM_TOL):
            raise ValueError(f"belief must sum to 1 within {_NORM_TOL}, got {arr.sum()!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


@dataclass(frozen=True)
class JointConditional:
    """Weighted support of (state, full history assignment) given one
    member's view under fixed co-strategies.

    Each entry is (state, obs_seq, act_seq, weight) where the sequences
    assemble every member's stream up to ``time`` (the member's own
    components repeat the view; co-members' components vary).  Weights sum
    to one.
    """

    member: int
    time: int
    entries: tuple[tuple[int, tuple, tuple, float], ...]

    def __post_init__(self):
        total = sum(w for *_, w in self.entries)
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=_NORM_TOL):
            raise ValueError(f"conditional weights must sum to 1, got {total!r}")

    def state_marginal(self, num_states: int) -> Belief:
        probs = np.zeros(num_states)
        for x, _, _, w in self.entries:
            probs[x] += w
        return Belief(probs, self.time)


# ---------------------------------------------------------------------------
# team-side elementary operations


def predict(model: TeamModel, belief: Belief, joint_action) -> Belief:
    """Push a time-t belief through the transition kernel; the result is
    the pre-observation belief at t+1 (normalized by construction)."""
    vec = belief.probs @ model.transition[:, model.flat_action(joint_action), :]
    return Belief(vec, belief.time + 1)


def correct(model: TeamModel, belief: Belief, joint_obs) -> Belief:
    """Condition a belief on the joint observation made at its own time."""
    vec = belief.probs * _likelihood_vec(model, joint_obs)
    z = float(vec.sum())
    if z == 0.0:
        raise ZeroLikelihoodError(f"observation {tuple(joint_obs)} has probability zero")
    return Belief(vec / z, belief.time)


def team_update(model: TeamModel, belief: Belief, joint_action, joint_obs) -> Belief:
    """One full step: act at t, then condition on the observation at t+1."""
    return correct(model, predict(model, belief, joint_action), joint_obs)


def team_belief_from_history(
    model: TeamModel, structure: InformationStructure, views: HistoryView
) -> Belief:
    """Team belief at a team-level view's time, by replaying the full joint
    history the pooled views determine: :func:`team_update` folded from
    the initial distribution.

    Raises IncompleteHistoryError when the structure's union does not
    determine the full joint history (no_sharing, or missing slots; every
    action slot is checked before any observation slot), and
    ZeroLikelihoodError, from :func:`correct`, for an impossible history.
    """
    if views.member is not None:
        raise ValueError("team-level view required (member=None)")
    if structure.variant == "no_sharing":
        raise IncompleteHistoryError(
            "under no_sharing nobody ever holds the pooled data; no team history exists"
        )
    known = view_known(views)
    t = views.time
    acts, obs = [], []
    for s in range(t):
        try:
            acts.append(tuple(known[(s, m, "act")] for m in range(model.num_members)))
        except KeyError as e:
            raise IncompleteHistoryError(f"joint action at time {s} not determined") from e
    for s in range(1, t + 1):
        try:
            obs.append(tuple(known[(s, m, "obs")] for m in range(model.num_members)))
        except KeyError as e:
            raise IncompleteHistoryError(f"joint observation at time {s} not determined") from e
    belief = Belief(model.initial_dist, 0)
    for u, y in zip(acts, obs):
        belief = team_update(model, belief, u, y)
    return belief


# ---------------------------------------------------------------------------
# member-side filter


def _check_view_layout(model, structure, view):
    common, privates = view_slots(structure, model.num_members, view.time, view.member)
    have_common = tuple((s, j, kind) for s, j, kind, _ in view.common)
    if have_common != common:
        raise ValueError("view common slots do not match the structure")
    stream = view.private if view.member is not None else None
    if stream is not None:
        have = tuple((s, view.member, kind) for s, kind, _ in stream)
        if have != privates[0]:
            raise ValueError("view private slots do not match the structure")


def _sequences(obs: np.ndarray, act: np.ndarray) -> list:
    """(obs_seq, act_seq) tuples of the histories held in ``obs`` and
    ``act``, each ``(H, t, K)``."""
    return [
        (tuple(map(tuple, o)), tuple(map(tuple, a))) for o, a in zip(obs.tolist(), act.tolist())
    ]


def _starts(rows: np.ndarray) -> np.ndarray:
    """True where a row of the (sorted) 2-D ``rows`` differs from the one
    before it."""
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return starts


def _lex_rank(rows: np.ndarray) -> np.ndarray:
    """Dense rank of each row of ``rows`` (``(H, t, K)``) in
    lexicographic order of its time-major values."""
    flat = rows.reshape(len(rows), -1)
    rank = np.zeros(len(flat), dtype=np.intp)
    if flat.shape[1]:
        order = np.lexsort(flat.T[::-1])
        rank[order] = np.cumsum(_starts(flat[order])) - 1
    return rank


@dataclass
class _MemberStage:
    """The particles of every node of one member-tree stage, as arrays.

    A particle is (node row, state, history, weight).  The particles of a
    node are contiguous and in the node's canonical (state, obs_seq,
    act_seq) order.  ``hist`` indexes the stage's distinct full
    histories, listed in first-occurrence particle order, whose joint
    observations and actions ``obs`` and ``act`` hold time-major as
    ``(H, time, K)``; the co-strategies read whole histories, so the
    stage keeps them.  The per-history ``sequences`` tuples, which a
    co-strategy without ``member_actions`` reads, and the ``(state,
    obs_seq, act_seq, weight)`` particle tuples are built only when asked
    for.
    """

    time: int
    num_nodes: int
    num_states: int
    node: np.ndarray
    x: np.ndarray
    hist: np.ndarray
    w: np.ndarray
    obs: np.ndarray
    act: np.ndarray

    @cached_property
    def sequences(self) -> list:
        return _sequences(self.obs, self.act)

    @cached_property
    def bounds(self) -> list:
        """Node row r holds particles ``bounds[r]:bounds[r + 1]``."""
        return [0] + np.cumsum(np.bincount(self.node, minlength=self.num_nodes)).tolist()

    @cached_property
    def _tuples(self) -> tuple:
        seqs = self.sequences
        rows = zip(self.x.tolist(), self.hist.tolist(), self.w.tolist())
        return tuple((x, *seqs[h], w) for x, h, w in rows)

    def particles(self, row: int) -> tuple:
        """Node ``row``'s particles as (state, obs_seq, act_seq, weight)."""
        return self._tuples[self.bounds[row] : self.bounds[row + 1]]

    @cached_property
    def marginals(self) -> np.ndarray:
        """Every node's state marginal, ``(N, S)``, summed in particle order."""
        S = self.num_states
        flat = np.bincount(self.node * S + self.x, self.w, minlength=self.num_nodes * S)
        return flat.reshape(self.num_nodes, S)


def _particle_stage(model: TeamModel, t: int, particles) -> _MemberStage:
    """One-node stage of ``particles``, ((state, obs_seq, act_seq, weight),
    ...) at time t, kept in the given order."""
    ids: dict = {}
    hist = [ids.setdefault((o, a), len(ids)) for _, o, a, _ in particles]
    shape = (len(ids), t, model.num_members)
    return _MemberStage(
        time=t,
        num_nodes=1,
        num_states=model.num_states,
        node=np.zeros(len(hist), dtype=np.intp),
        x=np.array([p[0] for p in particles], dtype=np.intp),
        hist=np.array(hist, dtype=np.intp),
        w=np.array([p[3] for p in particles], dtype=float),
        obs=np.array([o for o, _ in ids], dtype=np.intp).reshape(shape),
        act=np.array([a for _, a in ids], dtype=np.intp).reshape(shape),
    )


def _root_stage(model: TeamModel) -> _MemberStage:
    particles = [(x, (), (), float(p)) for x, p in enumerate(model.initial_dist) if p > 0.0]
    return _particle_stage(model, 0, particles)


@dataclass
class _MemberStep:
    """Forward half of a member stage.  ``immediate`` ``(N, O)`` is each
    node's expected stage cost per own action; per child node, in the
    next stage's row order, ``parent`` and ``own`` are the node row and
    own-action column it branches from, ``vals`` the values of the newly
    revealed view slots and ``weight`` the branch probability."""

    immediate: np.ndarray
    parent: np.ndarray
    own: np.ndarray
    vals: np.ndarray
    weight: np.ndarray


def _member_stage(model, structure, k, others, stage, own_actions, node_budget=None, used=0):
    """Expand every node of a member stage at once, under each own action
    in ``own_actions`` (ascending).  This is the one member-side forward
    step: the member DP builds its tree with it and
    :func:`member_conditional` replays it along a view.

    Co-actions are computed once per distinct history, for the whole
    stage at once where the co-strategy allows
    (:func:`teamdp.strategies._co_actions`).  A leaf is (particle, own
    action, next state, joint observation) with weight
    ``((w*p)*pm0)*pm1...``; leaves that coincide in (history, own action,
    observation, next state) merge in particle order.  Children
    are grouped into child nodes by (parent, own action, revealed slot
    values), nodes in that order and particles within a node in (state,
    obs_seq, act_seq) order; a branch weight sums its children in that
    order and the children are divided by it.  Every sum is an
    ``np.bincount`` in a fixed order, so a node's numbers do not depend on
    the other nodes of its stage.  Returns (:class:`_MemberStep`, child
    stage).

    When ``node_budget`` is given, raises BudgetExceededError before
    building the child stage if ``used`` plus its node count exceeds it;
    ``observed`` is the number of the first node past the budget.
    """
    t, K, S = stage.time, model.num_members, model.num_states
    own = np.asarray(own_actions, dtype=np.intp)
    O, H, N = len(own), len(stage.obs), stage.num_nodes
    joint = np.empty((H, O, K), dtype=np.intp)
    joint[:, :, k] = own
    for m, actions in _co_actions(others, k, K, stage).items():
        joint[:, :, m] = actions[:, None]
    flat = np.zeros((H, O), dtype=np.intp)
    for m in range(K):
        flat = flat * model.action_sizes[m] + joint[:, :, m]

    # immediate costs: particles of a node summed in order, per own action
    a = flat[stage.hist]
    x = stage.x[:, None]
    w = stage.w[:, None]
    pair = stage.node[:, None] * O + np.arange(O)
    immediate = np.bincount(
        pair.ravel(), (w * model.stage_cost[t][x, a]).ravel(), minlength=N * O
    ).reshape(N, O)

    # leaves (particle, own, x', y), merged into children (history, own, y, x')
    ys = np.array(model.joint_observations, dtype=np.intp)
    Y = len(ys)
    trans = model.transition[x, a]
    leaf = (w[:, :, None] * trans)[..., None]
    live = (trans != 0.0)[..., None]
    for m in range(K):
        pm = model.observation_kernels[m][:, ys[:, m]]
        leaf = leaf * pm
        live = live & (pm > 0.0)
    hist_own = stage.hist[:, None] * O + np.arange(O)
    child = ((hist_own[:, :, None, None] * Y + np.arange(Y)) * S + np.arange(S)[:, None])[live]
    size = H * O * Y * S
    c = np.flatnonzero(np.bincount(child, minlength=size))
    cw = np.bincount(child, leaf[live], minlength=size)[c]
    x2, c = c % S, c // S
    y, c = c % Y, c // Y
    o, h = c % O, c // O

    def value(slot):
        s, j, kind = slot
        if kind == "obs":
            return ys[y, j] if s == t + 1 else stage.obs[h, s - 1, j]
        return joint[h, o, j] if s == t else stage.act[h, s, j]

    # child nodes: (parent, own, revealed values), then canonical particle order
    hist_node = np.empty(H, dtype=np.intp)
    hist_node[stage.hist] = stage.node
    branch = np.column_stack(
        [hist_node[h], o] + [value(slot) for slot in _revealed_slots(structure, K, t, k)]
    )
    order = np.lexsort(
        (flat[h, o], _lex_rank(stage.act)[h], y, _lex_rank(stage.obs)[h], x2)
        + tuple(branch.T[::-1])
    )
    branch = branch[order]
    starts = _starts(branch)
    new_node = np.cumsum(starts) - 1
    count = int(np.count_nonzero(starts))
    _check_budget("member", node_budget, used + count)
    cw = cw[order]
    weight = np.bincount(new_node, cw, minlength=count)
    step = _MemberStep(
        immediate, branch[starts, 0], branch[starts, 1], branch[starts, 2:], weight
    )

    # the child stage's histories, in first-occurrence order
    h, o, y = h[order], o[order], y[order]
    src, hist = _first_occurrences((h * O + o) * Y + y)
    children = _MemberStage(
        time=t + 1,
        num_nodes=count,
        num_states=S,
        node=new_node,
        x=x2[order],
        hist=hist,
        w=cw / weight[new_node],
        obs=np.concatenate([stage.obs[h[src]], ys[y[src]][:, None, :]], axis=1),
        act=np.concatenate([stage.act[h[src]], joint[h[src], o[src]][:, None, :]], axis=1),
    )
    return step, children


def member_conditional(
    model: TeamModel,
    structure: InformationStructure,
    others_strategies: dict,
    view: HistoryView,
) -> JointConditional:
    """Joint conditional over (state, history assignment) given one
    member's view, with co-members following ``others_strategies``.

    Replays the member DP's stage kernel from the root on a one-node
    stage: at each s < t it expands with the view's own action at s and
    keeps the branch whose newly revealed slot values match the view, so
    the result equals the member DP's node at this view bit for bit.
    Raises ValueError for a view's member outside 0..K-1, a time outside
    0..T or a co-strategy whose ``member`` is not its key,
    UndefinedCoStrategyError if a co-strategy is missing or
    undefined, ZeroLikelihoodError if the view is impossible under the
    profile.
    """
    if view.member is None:
        raise ValueError("member view required")
    _check_range("member", view.member, model.num_members)
    _check_range("time", view.time, model.horizon + 1)
    _check_view_layout(model, structure, view)
    k, t = view.member, view.time
    K = model.num_members
    others = _co_strategies(others_strategies, k, K)
    known = view_known(view)
    stage = _root_stage(model)
    for s in range(t):
        step, children = _member_stage(model, structure, k, others, stage, [known[(s, k, "act")]])
        vals = [known[slot] for slot in _revealed_slots(structure, K, s, k)]
        match = np.flatnonzero(np.all(step.vals == vals, axis=1))
        if not len(match):
            raise ZeroLikelihoodError("view has probability zero under the co-strategy profile")
        stage = _particle_stage(model, s + 1, children.particles(int(match[0])))
    return JointConditional(member=k, time=t, entries=stage.particles(0))


def member_belief(
    model: TeamModel,
    structure: InformationStructure,
    others_strategies: dict,
    view: HistoryView,
) -> Belief:
    """State belief given one member's view under fixed co-strategies.

    Marginal of :func:`member_conditional`; by construction it never
    consults the member's own strategy.
    """
    cond = member_conditional(model, structure, others_strategies, view)
    return cond.state_marginal(model.num_states)


def recombine(
    model: TeamModel,
    structure: InformationStructure,
    member: int,
    belief: Belief,
    others_strategies: dict,
    team_views: HistoryView,
) -> Belief:
    """Lift a member belief back to the team belief.

    Multiplies ``belief`` pointwise by the conditional likelihood of the
    co-members' realized private streams given the state and the member's
    view, then renormalizes.  Scaling ``belief`` by a positive constant
    does not change the output.  With a single member this is the
    identity.  Raises ValueError for a ``member`` outside 0..K-1, a view
    time outside 0..T or a co-strategy whose ``member`` is not its key.
    """
    if team_views.member is not None:
        raise ValueError("team-level views required")
    _check_range("member", member, model.num_members)
    _check_range("time", team_views.time, model.horizon + 1)
    if model.num_members == 1:
        return belief
    k, t = member, team_views.time
    member_view = HistoryView(
        time=t, member=k, common=team_views.common, private=team_views.private[k]
    )
    cond = member_conditional(model, structure, others_strategies, member_view)
    stage = _particle_stage(model, t, cond.entries)  # the conditional as arrays
    # the co-members' private data as the team views give it: (s, j, kind, value)
    private = [(s, j, kind, v) for j in range(model.num_members) if j != k
               for s, kind, v in team_views.private[j]]
    have = _slot_values(stage.obs, stage.act, [datum[:3] for datum in private])
    ok = np.all(have == [datum[3] for datum in private], axis=1)[stage.hist]
    S = model.num_states
    den = np.bincount(stage.x, stage.w, minlength=S)
    num = np.bincount(stage.x[ok], stage.w[ok], minlength=S)  # both in particle order
    like = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    vec = belief.probs * like
    z = float(vec.sum())
    if z == 0.0:
        raise ZeroLikelihoodError("co-member streams impossible given the member belief")
    return Belief(vec / z, t)
