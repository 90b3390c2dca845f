"""Finite team decision models and who-knows-what-when bookkeeping.

Conventions used throughout the package:

* time runs t = 0..T where T = ``horizon``; the hidden state is x_0..x_T;
* every member acts at t = 0..T-1, and ``Trajectory.actions[i]`` is the
  joint action taken at time i;
* observations arrive at t = 1..T: y_t is drawn from the observation
  kernels evaluated at x_t.  A trajectory therefore stores T joint
  observations and ``Trajectory.observations[i]`` is the joint observation
  made at time i+1.  There is no observation at t = 0, so the first
  decision is taken under the initial distribution alone;
* all values are stored as integer indices into the label tuples carried
  by the model;
* joint actions are flattened row-major in member order (member K varies
  fastest) wherever a flat index is needed, matching the scenario wire
  format.  Tie-breaking loops instead enumerate joint actions with member 0
  varying fastest; see :func:`tiebreak_joint_actions`.

Information sharing patterns are described by :class:`InformationStructure`
and realized by :func:`extract_views`, which splits a trajectory at time t
into the common pool available to everybody and each member's private
stream.  A view at time t reaches back from t, so index ranges are only
clipped below: no observation before t = 1, no action before t = 0.

Where a slot's value sits in a history is stated here once:
:func:`_value_at` reads it from one history's sequences and
:func:`_slot_values` from histories held as ``(H, t, K)`` arrays.  The
member view keys of such arrays (:func:`_view_keys`, one ``%`` on
:func:`view_key_format` per key) and the slots a member's view gains from
t to t+1 (:func:`_revealed_slots`) are built on them, so the member
dynamic program, the filters and the member tables read views one way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError

__all__ = [
    "TeamModel",
    "InformationStructure",
    "Trajectory",
    "HistoryView",
    "Violation",
    "STRUCTURE_VARIANTS",
    "validate_model",
    "extract_views",
    "view_slots",
    "view_known",
    "history_key",
    "view_key",
    "view_key_format",
    "tiebreak_joint_actions",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_STRATEGY_BUDGET",
]

# default caps: tree nodes per dynamic program (``dp``), and candidate
# strategies per enumeration (``oracle``); defined here so that the command
# line parser reads them without importing either module
DEFAULT_NODE_BUDGET = 200_000
DEFAULT_STRATEGY_BUDGET = 10_000_000

STRUCTURE_VARIANTS = (
    "delayed_sharing",
    "periodic_sharing",
    "delayed_observation_sharing",
    "delayed_control_sharing",
    "no_sharing",
)

# the kinds of datum each delayed variant pools, n_j after member j made it
_DELAYED_SHARES = {
    "delayed_sharing": ("obs", "act"),
    "delayed_observation_sharing": ("obs",),
    "delayed_control_sharing": ("act",),
}

# A slot identifies one datum: (time, member, kind) with kind "obs" or "act".
Slot = tuple[int, int, str]


def _readonly(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TeamModel:
    """A finite-horizon team decision model.

    Parameters
    ----------
    num_members : int
        Number of decision makers K.
    horizon : int
        Number of decision epochs T (decisions at t = 0..T-1).
    states, actions, observations
        Label tuples; ``actions[k]`` and ``observations[k]`` hold member
        k's labels.  Sets are time-invariant.
    initial_dist : array, shape (S,)
        Distribution of x_0.
    transition : array, shape (S, A, S)
        ``transition[x, a, x']`` with ``a`` the flat joint-action index
        (row-major in member order).
    observation_kernels : tuple of arrays, shape (S, Y_k)
        ``observation_kernels[k][x, y]`` is the chance member k observes y
        when the current state is x.  Observation noises are independent
        across members given the state.
    stage_cost : array, shape (T, S, A)
        Per-decision cost c_t(x, u).
    terminal_cost : array, shape (S,)
        Cost charged on x_T.
    """

    num_members: int
    horizon: int
    states: tuple
    actions: tuple[tuple, ...]
    observations: tuple[tuple, ...]
    initial_dist: np.ndarray
    transition: np.ndarray
    observation_kernels: tuple[np.ndarray, ...]
    stage_cost: np.ndarray
    terminal_cost: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "initial_dist", _readonly(self.initial_dist))
        object.__setattr__(self, "transition", _readonly(self.transition))
        object.__setattr__(
            self, "observation_kernels", tuple(_readonly(k) for k in self.observation_kernels)
        )
        object.__setattr__(self, "stage_cost", _readonly(self.stage_cost))
        object.__setattr__(self, "terminal_cost", _readonly(self.terminal_cost))

    @property
    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def action_sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.actions)

    @cached_property
    def observation_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.observations)

    @property
    def num_joint_actions(self) -> int:
        return int(np.prod(self.action_sizes))

    @cached_property
    def joint_actions(self) -> tuple[tuple[int, ...], ...]:
        """All joint actions in wire (flat-index) order: member K fastest."""
        return tuple(product(*(range(n) for n in self.action_sizes)))

    @cached_property
    def joint_observations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(product(*(range(n) for n in self.observation_sizes)))

    def flat_action(self, joint: Sequence[int]) -> int:
        """Flat index of a joint action tuple (wire order)."""
        idx = 0
        for k, u in enumerate(joint):
            idx = idx * self.action_sizes[k] + u
        return idx


def tiebreak_joint_actions(model: TeamModel) -> tuple[tuple[int, ...], ...]:
    """Joint actions in tie-breaking order: member 0 varies fastest.

    Every argmin in the package walks this sequence and keeps the first
    strict minimum, so ties resolve deterministically.
    """
    rev = product(*(range(n) for n in reversed(model.action_sizes)))
    return tuple(tuple(reversed(p)) for p in rev)


def _check_range(what: str, value: int, stop: int) -> None:
    """Raise ValueError unless 0 <= value < stop."""
    if not 0 <= value < stop:
        raise ValueError(f"{what} {value} outside 0..{stop - 1}")


def _check_budget(tree: str, node_budget: int | None, nodes: int) -> None:
    """Raise BudgetExceededError if ``nodes`` exceeds ``node_budget`` (None: no cap)."""
    if node_budget is not None and nodes > node_budget:
        raise BudgetExceededError(
            f"{tree} tree exceeds node budget {node_budget}",
            budget=node_budget,
            observed=node_budget + 1,
        )


def _first_occurrences(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct value of ``codes`` first occurs, in that order,
    and each entry's index into that list."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _likelihood_vec(model: TeamModel, joint_obs) -> np.ndarray:
    like = model.observation_kernels[0][:, joint_obs[0]].copy()
    for k in range(1, model.num_members):
        like *= model.observation_kernels[k][:, joint_obs[k]]
    return like


@dataclass(frozen=True)
class InformationStructure:
    """How observations and actions circulate inside the team.

    Each variant fixes the time at which member j's datum from time s
    enters the common pool; until then it is private to j.

    variant
        One of ``delayed_sharing`` (observations and actions arrive at
        s + n_j), ``delayed_observation_sharing`` (observations arrive at
        s + n_j, actions never), ``delayed_control_sharing`` (actions
        arrive at s + n_j, observations never), ``periodic_sharing``
        (everything arrives in batches, at max(1, ceil(s / w)) * w + 1
        for w = ``period``), ``no_sharing`` (nothing ever arrives).
    delays
        Per-member positive delays n_k, required by the delayed variants.
        The symmetric case has all entries equal.
    period
        Positive batch length, required by ``periodic_sharing``.  For
        t <= period nothing has been pooled yet.
    """

    variant: str
    delays: tuple[int, ...] | None = None
    period: int | None = None

    def __post_init__(self):
        if self.delays is not None:
            object.__setattr__(self, "delays", tuple(int(n) for n in self.delays))
        if self.period is not None:
            object.__setattr__(self, "period", int(self.period))


@dataclass(frozen=True)
class Trajectory:
    """One complete realization: T+1 states, T joint actions, T joint
    observations (``observations[i]`` was made at time i+1)."""

    states: tuple[int, ...]
    observations: tuple[tuple[int, ...], ...]
    actions: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HistoryView:
    """What somebody knows at time ``time``.

    ``common`` holds the pooled data as (time, member, kind, value) tuples
    in arrival order; arrival order makes the common list at t a prefix of
    the common list at t+1.  For a member view (``member`` is an int)
    ``private`` holds that member's own stream as (time, kind, value)
    tuples in chronological order.  For the team-level view (``member`` is
    None) ``private`` is a tuple with one such stream per member.
    """

    time: int
    member: int | None
    common: tuple
    private: tuple


@dataclass(frozen=True)
class Violation:
    """One validation failure, with a path to the offending field."""

    path: str
    message: str


# ---------------------------------------------------------------------------
# validation


def _check_dist(row: np.ndarray, path: str, out: list[Violation]):
    if np.any(row < 0):
        out.append(Violation(path, "negative probability entry"))
    s = float(np.sum(row))
    if not math.isclose(s, 1.0, rel_tol=0.0, abs_tol=1e-12):
        out.append(Violation(path, f"probabilities sum to {s!r}, not 1 within 1e-12"))


def validate_model(model: TeamModel, structure: InformationStructure | None = None) -> list[Violation]:
    """Check every model (and optionally structure) invariant.

    Returns an empty list when the model is well formed; otherwise one
    :class:`Violation` per problem, each carrying a field path.
    """
    out: list[Violation] = []
    K, T, S = model.num_members, model.horizon, model.num_states
    if K < 1:
        out.append(Violation("num_members", "must be >= 1"))
    if T < 1:
        out.append(Violation("horizon", "must be >= 1"))
    if S < 1:
        out.append(Violation("states", "must be nonempty"))
    if len(set(model.states)) != S:
        out.append(Violation("states", "labels must be unique"))
    for group, per in (("actions", model.actions), ("observations", model.observations)):
        if len(per) != K:
            out.append(Violation(group, f"expected {K} member entries, got {len(per)}"))
            continue
        for k, labels in enumerate(per):
            if len(labels) < 1:
                out.append(Violation(f"{group}[{k}]", "must be nonempty"))
            if len(set(labels)) != len(labels):
                out.append(Violation(f"{group}[{k}]", "labels must be unique"))
    if out:
        return out  # shape checks below assume consistent sizes

    A = model.num_joint_actions
    if model.initial_dist.shape != (S,):
        out.append(Violation("initial_dist", f"shape {model.initial_dist.shape}, expected ({S},)"))
    else:
        _check_dist(model.initial_dist, "initial_dist", out)
    if model.transition.shape != (S, A, S):
        out.append(Violation("transition", f"shape {model.transition.shape}, expected {(S, A, S)}"))
    else:
        for x in range(S):
            for a in range(A):
                _check_dist(model.transition[x, a], f"transition[x={x}][u={a}]", out)
    if len(model.observation_kernels) != K:
        out.append(Violation("observation_kernels", f"expected {K} kernels"))
    else:
        for k, kern in enumerate(model.observation_kernels):
            want = (S, model.observation_sizes[k])
            if kern.shape != want:
                out.append(Violation(f"observation_kernels[{k}]", f"shape {kern.shape}, expected {want}"))
            else:
                for x in range(S):
                    _check_dist(kern[x], f"observation_kernels[{k}][x={x}]", out)
    largest = []  # the largest |cost| of each stage, then of the terminal cost
    if model.stage_cost.shape != (T, S, A):
        out.append(Violation("stage_cost", f"shape {model.stage_cost.shape}, expected {(T, S, A)}"))
    elif not np.all(np.isfinite(model.stage_cost)):
        out.append(Violation("stage_cost", "entries must be finite"))
    else:
        largest += np.abs(model.stage_cost).max(axis=(1, 2)).tolist()
    if model.terminal_cost.shape != (S,):
        out.append(Violation("terminal_cost", f"shape {model.terminal_cost.shape}, expected ({S},)"))
    elif not np.all(np.isfinite(model.terminal_cost)):
        out.append(Violation("terminal_cost", "entries must be finite"))
    else:
        largest.append(float(np.abs(model.terminal_cost).max()))
    # every value is an expected sum of one stage cost per stage and a
    # terminal cost, so this sum bounds them all; summed as Python floats,
    # it overflows to inf without a numpy warning
    if len(largest) == T + 1 and not math.isfinite(sum(largest)):
        out.append(
            Violation(
                "stage_cost",
                "costs too large: the largest |stage cost| of each stage plus the "
                "largest |terminal cost| sum past the largest float",
            )
        )

    if structure is not None:
        out.extend(validate_structure(structure, K))
    return out


def validate_structure(structure: InformationStructure, num_members: int) -> list[Violation]:
    out: list[Violation] = []
    v = structure.variant
    if v not in STRUCTURE_VARIANTS:
        out.append(Violation("information_structure.variant", f"unknown variant {v!r}"))
        return out
    if v in _DELAYED_SHARES:
        if structure.delays is None:
            out.append(Violation("information_structure.delays", f"required for {v}"))
        elif len(structure.delays) != num_members:
            out.append(
                Violation("information_structure.delays", f"expected {num_members} entries")
            )
        elif any(n < 1 for n in structure.delays):
            out.append(Violation("information_structure.delays", "delays must be >= 1"))
        if structure.period is not None:
            out.append(Violation("information_structure.period", f"not allowed for {v}"))
    elif v == "periodic_sharing":
        if structure.period is None or structure.period < 1:
            out.append(Violation("information_structure.period", "positive period required"))
        if structure.delays is not None:
            out.append(Violation("information_structure.delays", f"not allowed for {v}"))
    else:  # no_sharing
        if structure.delays is not None or structure.period is not None:
            out.append(Violation("information_structure", "no_sharing takes no parameters"))
    return out


# ---------------------------------------------------------------------------
# view slots


def _arrival(structure: InformationStructure, slot: Slot) -> int | None:
    """Time at which a slot's datum enters the common pool (None: never)."""
    s, j, kind = slot
    v = structure.variant
    if v in _DELAYED_SHARES:
        return s + structure.delays[j] if kind in _DELAYED_SHARES[v] else None
    if v == "periodic_sharing":
        # just after the first period boundary at or past s (w, 2w, ...)
        w = structure.period
        return max(1, math.ceil(s / w)) * w + 1
    if v == "no_sharing":
        return None
    raise ValueError(f"unknown variant {v!r}")


@cache
def view_slots(
    structure: InformationStructure, num_members: int, t: int, member: int | None
) -> tuple[tuple[Slot, ...], tuple[tuple[Slot, ...], ...]]:
    """Slot layout of a view at time t: (common slots, private slot streams).

    Every datum up to time t (observations 1..t, actions 0..t-1) is
    common once its :func:`_arrival` time is at most t, and private to its
    member until then.  The common slots come in arrival order (ties by
    time, observation before action, member); a private stream is in time
    order, observation before action.  For a member view the second
    element has a single stream; for the team-level view (``member`` is
    None) it has one stream per member.  The layout depends only on the
    arguments, so it is computed once per argument tuple and shared (it is
    built from tuples, hence immutable).
    """
    # each member's data in time order, u_0, y_1, u_1, ..., u_{t-1}, y_t: the
    # pairs (y_s, u_s) for s = 0..t less y_0 and u_t, which do not exist
    own = [
        [(s, j, kind) for s in range(t + 1) for kind in ("obs", "act")][1:-1]
        for j in range(num_members)
    ]
    arrival = {slot: _arrival(structure, slot) for stream in own for slot in stream}
    pooled = {slot for slot, a in arrival.items() if a is not None and a <= t}
    common = sorted(pooled, key=lambda slot: (arrival[slot], slot[0], slot[2] == "act", slot[1]))
    members = range(num_members) if member is None else (member,)
    privates = tuple(tuple(slot for slot in own[k] if slot not in pooled) for k in members)
    return tuple(common), privates


@cache
def _revealed_slots(structure: InformationStructure, num_members: int, t: int, k: int) -> tuple:
    """Slots that enter member k's view between t and t+1, in layout
    order.  The member's own time-t action is left out: it is the
    decision, not an innovation."""
    c_now, p_now = view_slots(structure, num_members, t, k)
    old = set(c_now) | set(p_now[0])
    c_next, p_next = view_slots(structure, num_members, t + 1, k)
    return tuple(s for s in c_next + p_next[0] if s not in old and s != (t, k, "act"))


def _value_at(traj_obs, traj_act, slot: Slot) -> int:
    s, j, kind = slot
    if kind == "obs":
        return traj_obs[s - 1][j]
    return traj_act[s][j]


def _slot_values(obs: np.ndarray, act: np.ndarray, slots: Sequence[Slot]) -> np.ndarray:
    """The values of ``slots`` in each history held in ``obs`` and ``act``
    (each ``(H, t, K)``), as ``(H, len(slots))``: y_s of member j is
    ``obs[:, s-1, j]`` and u_s is ``act[:, s, j]``, as :func:`_value_at`
    reads them from sequences."""
    H, t, K = obs.shape
    cols = [(s - 1) * K + j if kind == "obs" else (t + s) * K + j for s, j, kind in slots]
    return np.concatenate([obs.reshape(H, t * K), act.reshape(H, t * K)], axis=1)[:, cols]


def prefix_view(
    structure: InformationStructure,
    num_members: int,
    obs_seq: Sequence[Sequence[int]],
    act_seq: Sequence[Sequence[int]],
    t: int,
    member: int | None,
) -> HistoryView:
    """View at time t assembled from raw history prefixes.

    ``obs_seq[i]`` is the joint observation at time i+1 and ``act_seq[i]``
    the joint action at time i; the prefixes must reach time t (t joint
    observations, t joint actions, fewer only at the horizon boundary).
    """
    common_slots, private_streams = view_slots(structure, num_members, t, member)
    common = tuple(
        (s, j, kind, _value_at(obs_seq, act_seq, (s, j, kind))) for s, j, kind in common_slots
    )
    streams = tuple(
        tuple((s, kind, _value_at(obs_seq, act_seq, (s, j, kind))) for s, j, kind in stream)
        for stream in private_streams
    )
    private = streams[0] if member is not None else streams
    return HistoryView(time=t, member=member, common=common, private=private)


def extract_views(
    structure: InformationStructure, traj: Trajectory, t: int, member: int | None
) -> HistoryView:
    """Split a trajectory at time t into a view.

    ``member`` selects whose view: an int for that member's (common pool +
    own private stream), None for the team-level view (common pool + every
    member's private stream).  Raises ``ValueError`` for a time outside
    0..T or an unknown member index.
    """
    K = len(traj.observations[0]) if traj.observations else len(traj.actions[0])
    _check_range("time", t, len(traj.actions) + 1)
    if member is not None and not 0 <= member < K:
        raise ValueError(f"unknown member index {member}")
    return prefix_view(structure, K, traj.observations, traj.actions, t, member)


def view_known(view: HistoryView) -> dict[Slot, int]:
    """Flatten a view into {(time, member, kind): value}."""
    known: dict[Slot, int] = {}
    for s, j, kind, val in view.common:
        known[(s, j, kind)] = val
    if view.member is not None:
        for s, kind, val in view.private:
            known[(s, view.member, kind)] = val
    else:
        for k, stream in enumerate(view.private):
            for s, kind, val in stream:
                known[(s, k, kind)] = val
    return known


# ---------------------------------------------------------------------------
# canonical keys

def history_key(actions: Sequence[Sequence[int]], observations: Sequence[Sequence[int]]) -> str:
    """Canonical string for a full joint history prefix.

    ``actions[i]`` is the joint action at time i, ``observations[i]`` the
    joint observation at time i+1, interleaved chronologically:
    ``u0=..;y1=..;u1=..``.  The empty history is the empty string.
    """
    parts: list[str] = []
    for i in range(max(len(actions), len(observations))):
        if i < len(actions):
            parts.append(f"u{i}=" + ",".join(str(v) for v in actions[i]))
        if i < len(observations):
            parts.append(f"y{i + 1}=" + ",".join(str(v) for v in observations[i]))
    return ";".join(parts)


def view_key(view: HistoryView) -> str:
    """Canonical string for a view (stable across equal contents)."""
    c = ",".join(f"{kind[0]}{s}^{j}:{v}" for s, j, kind, v in view.common)
    if view.member is not None:
        p = ",".join(f"{kind[0]}{s}:{v}" for s, kind, v in view.private)
        who = str(view.member)
    else:
        p = "|".join(
            ",".join(f"{kind[0]}{s}:{v}" for s, kind, v in stream) for stream in view.private
        )
        who = "team"
    return f"t={view.time};k={who};c[{c}];p[{p}]"


@cache
def view_key_format(
    structure: InformationStructure, num_members: int, t: int, member: int
) -> tuple[str, tuple[Slot, ...]]:
    """Member ``member``'s :func:`view_key` at time t as a ``%`` format.

    Returns the key text with one ``%s`` in place of each slot value (the
    :func:`view_key` of the view whose every value is ``"%s"``) and the
    slots in the order of those placeholders (common, then private).
    ``fmt % values`` equals ``view_key`` of the view holding ``values``
    (each rendered by ``str``), without building the view.
    """
    common, (private,) = view_slots(structure, num_members, t, member)
    view = HistoryView(
        time=t,
        member=member,
        common=tuple((s, j, kind, "%s") for s, j, kind in common),
        private=tuple((s, kind, "%s") for s, _, kind in private),
    )
    return view_key(view), common + private


def _view_keys(structure: InformationStructure, member: int, obs: np.ndarray, act: np.ndarray):
    """Member ``member``'s view keys of the histories held in ``obs`` and
    ``act`` (each ``(N, t, K)``), equal to ``view_key(prefix_view(...))``
    of each: the values are taken by :func:`_slot_values` and each key is
    one ``%`` on :func:`view_key_format`."""
    _, t, K = obs.shape
    fmt, slots = view_key_format(structure, K, t, member)
    return [fmt % row for row in map(tuple, _slot_values(obs, act, slots).tolist())]
