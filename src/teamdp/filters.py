"""Information-state filters.

The team side is a textbook hidden-Markov recursion over the state belief:
``predict`` pushes a belief through the controlled transition kernel,
``correct`` conditions on a joint observation (per-member likelihoods
multiply because observation noises are independent given the state), and
``team_update`` chains the two.  The belief after conditioning on
everything the team has seen does not depend on anybody's strategy, which
is what makes the manager's dynamic program well posed.

The member side is heavier.  Conditioned on one member's view, the state
is entangled with the co-members' unseen private data through their fixed
strategies, so the filter carries a weighted joint conditional over
(state, full history assignment).  One forward step, ``_member_step``,
propagates these particles, branches on unseen co-member data and groups
the children by the view slots newly revealed; the member dynamic program
in :mod:`teamdp.dp` expands its nodes with it, and
:func:`member_conditional` replays it along a view, keeping at each step
the branch the view reveals.  The member's own past actions enter as
recorded values, never through the member's own strategy; the result is
therefore invariant to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .errors import (
    IncompleteHistoryError,
    StrategyUndefinedError,
    UndefinedCoStrategyError,
    ZeroLikelihoodError,
)
from .model import (
    HistoryView,
    InformationStructure,
    TeamModel,
    view_known,
    view_slots,
)

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


def _predict_vec(model: TeamModel, vec: np.ndarray, a: int) -> np.ndarray:
    return vec @ model.transition[:, a, :]


def _likelihood_vec(model: TeamModel, joint_obs) -> np.ndarray:
    like = model.observation_kernels[0][:, joint_obs[0]].copy()
    for k in range(1, model.num_members):
        like *= model.observation_kernels[k][:, joint_obs[k]]
    return like


def predict(model: TeamModel, belief: Belief, joint_action) -> Belief:
    """Push a time-t belief through the transition kernel; the result is
    the pre-observation belief at t+1 (normalized by construction)."""
    vec = _predict_vec(model, belief.probs, model.flat_action(joint_action))
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
    history the pooled views determine.

    Raises IncompleteHistoryError when the structure's union does not
    determine the full joint history (no_sharing, or missing slots).
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
    vec = model.initial_dist.copy()
    for s in range(1, t + 1):
        vec = _predict_vec(model, vec, model.flat_action(acts[s - 1]))
        vec = vec * _likelihood_vec(model, obs[s - 1])
        z = float(vec.sum())
        if z == 0.0:
            raise ZeroLikelihoodError(f"history impossible at time {s}")
        vec = vec / z
    return Belief(vec, t)


# ---------------------------------------------------------------------------
# member-side filter


def _check_view_layout(model, structure, view):
    common, privates = view_slots(
        structure, model.num_members, view.time, view.time, view.member
    )
    have_common = tuple((s, j, kind) for s, j, kind, _ in view.common)
    if have_common != common:
        raise ValueError("view common slots do not match the structure")
    stream = view.private if view.member is not None else None
    if stream is not None:
        have = tuple((s, view.member, kind) for s, kind, _ in stream)
        if have != privates[0]:
            raise ValueError("view private slots do not match the structure")


def _co_action(others: dict, m: int, obs_seq, act_seq, s: int) -> int:
    try:
        return others[m].member_action(obs_seq, act_seq, s)
    except KeyError:
        raise UndefinedCoStrategyError(f"no strategy supplied for co-member {m}") from None
    except StrategyUndefinedError as e:
        raise UndefinedCoStrategyError(str(e)) from e


def _root_particles(model: TeamModel) -> tuple:
    return tuple((x, (), (), float(p)) for x, p in enumerate(model.initial_dist) if p > 0.0)


@cache
def _revealed_slots(structure: InformationStructure, num_members: int, t: int, k: int) -> tuple:
    """Slots that enter member k's view between t and t+1, in layout
    order.  The member's own time-t action is left out: it is the
    decision, not an innovation."""
    c_now, p_now = view_slots(structure, num_members, t, t, k)
    old = set(c_now) | set(p_now[0])
    c_next, p_next = view_slots(structure, num_members, t + 1, t + 1, k)
    return tuple(s for s in c_next + p_next[0] if s not in old and s != (t, k, "act"))


def _member_step(model, structure, k, others, particles, t, own_action):
    """Advance member k's particles one step under own action ``own_action``.

    Returns (immediate cost term, branches) where branches maps the values
    of the newly revealed view slots, in sorted order, to (branch weight,
    normalized child particles); child weights are merged over coinciding
    assignments and listed in canonical order.  This is the one member-side
    forward step: the member DP expands nodes with it and
    :func:`member_conditional` replays it along a view.
    """
    new_slots = _revealed_slots(structure, model.num_members, t, k)
    kerns = model.observation_kernels
    imm = 0.0
    groups: dict[tuple, dict] = {}
    for x, obs_seq, act_seq, w in particles:
        u = tuple(
            own_action if m == k else _co_action(others, m, obs_seq, act_seq, t)
            for m in range(model.num_members)
        )
        a = model.flat_action(u)
        imm += w * float(model.stage_cost[t, x, a])
        act2 = act_seq + (u,)
        row = model.transition[x, a]
        for x2 in range(model.num_states):
            p = float(row[x2])
            if p == 0.0:
                continue
            choices = [
                [
                    (yv, float(kerns[m][x2, yv]))
                    for yv in range(model.observation_sizes[m])
                    if kerns[m][x2, yv] > 0.0
                ]
                for m in range(model.num_members)
            ]
            for combo in product(*choices):
                y = tuple(v for v, _ in combo)
                wy = w * p
                for _, pm in combo:
                    wy *= pm
                obs2 = obs_seq + (y,)
                vals = tuple(
                    obs2[s - 1][j] if kind == "obs" else act2[s][j] for s, j, kind in new_slots
                )
                bucket = groups.setdefault(vals, {})
                pk = (x2, obs2, act2)
                bucket[pk] = bucket.get(pk, 0.0) + wy
    branches = {}
    for vals in sorted(groups):
        plist = sorted(groups[vals].items())
        wc = sum(wt for _, wt in plist)
        branches[vals] = (wc, tuple((x2, o2, a2, wt / wc) for (x2, o2, a2), wt in plist))
    return imm, branches


def member_conditional(
    model: TeamModel,
    structure: InformationStructure,
    others_strategies: dict,
    view: HistoryView,
) -> JointConditional:
    """Joint conditional over (state, history assignment) given one
    member's view, with co-members following ``others_strategies``.

    Replays the member DP's forward step from the root: at each s < t it
    steps with the view's own action at s and keeps the branch whose newly
    revealed slot values match the view, so the result equals the member
    DP's node at this view bit for bit.  Raises UndefinedCoStrategyError
    if a co-strategy is missing or undefined, ZeroLikelihoodError if the
    view is impossible under the profile.
    """
    if view.member is None:
        raise ValueError("member view required")
    _check_view_layout(model, structure, view)
    k, t = view.member, view.time
    K = model.num_members
    others = others_strategies or {}
    for j in range(K):
        if j != k and j not in others:
            raise UndefinedCoStrategyError(f"no strategy supplied for co-member {j}")
    known = view_known(view)
    particles = _root_particles(model)
    for s in range(t):
        own = known.get((s, k, "act"))
        if own is None:
            raise IncompleteHistoryError(f"member {k}'s own action at time {s} is not in the view")
        _, branches = _member_step(model, structure, k, others, particles, s, own)
        vals = tuple(known[slot] for slot in _revealed_slots(structure, K, s, k))
        if vals not in branches:
            raise ZeroLikelihoodError("view has probability zero under the co-strategy profile")
        particles = branches[vals][1]
    return JointConditional(member=k, time=t, entries=particles)


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
    identity.
    """
    if team_views.member is not None:
        raise ValueError("team-level views required")
    if model.num_members == 1:
        return belief
    k, t = member, team_views.time
    member_view = HistoryView(
        time=t, member=k, common=team_views.common, private=team_views.private[k]
    )
    cond = member_conditional(model, structure, others_strategies, member_view)
    targets = {
        j: team_views.private[j] for j in range(model.num_members) if j != k
    }
    num = np.zeros(model.num_states)
    den = np.zeros(model.num_states)
    for x, obs_seq, act_seq, w in cond.entries:
        den[x] += w
        ok = True
        for j, stream in targets.items():
            for s, kind, val in stream:
                have = obs_seq[s - 1][j] if kind == "obs" else act_seq[s][j]
                if have != val:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            num[x] += w
    like = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    vec = belief.probs * like
    z = float(vec.sum())
    if z == 0.0:
        raise ZeroLikelihoodError("co-member streams impossible given the member belief")
    return Belief(vec / z, t)
