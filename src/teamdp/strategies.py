"""Strategy forms and their evaluation on realized histories.

Every strategy here is deterministic.  Team-scoped strategies expose
``joint_action(obs_seq, act_seq, t)`` and member-scoped ones expose
``member_action(obs_seq, act_seq, t)``, where ``obs_seq[i]`` is the joint
observation at time i+1 and ``act_seq[i]`` the joint action at time i
(the package-wide convention from :mod:`teamdp.model`); every table form
refuses prefixes whose length is not t, whatever its default.  The
member-side fixed forms, :class:`ConstantMemberStrategy` and the member
tables, also answer a whole stage of the member dynamic program at once:
``member_actions(obs, act, t)`` takes the stage's distinct histories as
``(H, t, K)`` arrays and returns the ``(H,)`` actions that ``member_action``
gives history by history, with the same errors and ``fallbacks`` count.
The member DP asks each co-member once per stage through it
(:func:`_co_actions`), and asks a co-strategy without it
(:class:`ManagerProjectionStrategy`, a user class) history by history.
A profile or co-strategy mapping refuses a strategy whose ``member`` is
not its slot.

Forms:

* :class:`CentralizedTableStrategy` - table keyed by the canonical full
  joint history; the class of strategies a single all-seeing controller
  could play.
* :class:`SeparatedTeamStrategy` - the manager solver's output: the
  argmins of its value function, read at the row a full history walks to
  (:meth:`teamdp.dp.ValueFunction.row`), with no key and no table.
* :class:`MemberTableStrategy` / :class:`MemberSeparatedStrategy` - tables
  keyed by the member's own view; the feasible decentralized form.  A
  lookup formats the view key straight from the history prefixes with
  :func:`teamdp.model.view_key_format`, without building the view (a
  stage's keys by slot column of its history arrays), and counts the
  lookups answered by the default action in ``fallbacks``.
* :class:`ConstantMemberStrategy`, :class:`ManagerProjectionStrategy` -
  fixed co-strategies for member-side computations.
* :class:`DecentralizedStrategy` - a profile of member strategies acting
  as one team strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import StrategyUndefinedError, UndefinedCoStrategyError
from .model import InformationStructure, TeamModel, history_key, view_key_format

__all__ = [
    "CentralizedTableStrategy",
    "SeparatedTeamStrategy",
    "MemberTableStrategy",
    "MemberSeparatedStrategy",
    "ConstantMemberStrategy",
    "ManagerProjectionStrategy",
    "DecentralizedStrategy",
]


def _check_members(strategies: Mapping[int, object]) -> None:
    """Raise ValueError for a strategy whose ``member`` attribute is not
    the member whose slot it fills."""
    for slot, strategy in strategies.items():
        member = getattr(strategy, "member", slot)
        if member != slot:
            raise ValueError(f"the strategy for member {slot} is member {member}'s")


def _co_strategies(others: Mapping[int, object] | None, k: int, num_members: int) -> Mapping:
    """Member k's co-strategies, ``others`` (None for none), admitted:
    ValueError as :func:`_check_members` gives it, then
    UndefinedCoStrategyError for the first co-member without one."""
    others = others or {}
    _check_members(others)
    for j in range(num_members):
        if j != k and j not in others:
            raise UndefinedCoStrategyError(f"no strategy supplied for co-member {j}")
    return others


def _co_actions(others: Mapping, k: int, num_members: int, stage) -> dict:
    """Every co-member's action at each distinct history of a member-DP
    stage (``teamdp.filters._MemberStage``), as ``{member: (H,) actions}``,
    from co-strategies admitted by :func:`_co_strategies`.  A co-strategy with ``member_actions`` is asked once for the whole
    stage; the others, and any whose batch call finds a history
    undefined, are asked history by history over ``stage.sequences``,
    histories outer and members inner, so the first undefined (history,
    member) in that order raises UndefinedCoStrategyError as it would
    with every co-strategy asked that way."""
    actions, rest = {}, []
    for m in range(num_members):
        if m == k:
            continue
        batch = getattr(others[m], "member_actions", None)
        if batch is not None:
            try:
                actions[m] = batch(stage.obs, stage.act, stage.time)
                continue
            except StrategyUndefinedError:
                pass
        rest.append(m)
    if rest:
        cols = np.empty((len(rest), len(stage.obs)), dtype=np.intp)
        for h, (obs_seq, act_seq) in enumerate(stage.sequences):
            for i, m in enumerate(rest):
                try:
                    cols[i, h] = others[m].member_action(obs_seq, act_seq, stage.time)
                except StrategyUndefinedError as e:
                    raise UndefinedCoStrategyError(str(e)) from e
        actions.update(zip(rest, cols))
    return actions


class CentralizedTableStrategy:
    """Map from canonical full-history keys to joint actions."""

    variant = "history_table"
    scope = "team"

    def __init__(self, model: TeamModel, table: Mapping[str, tuple[int, ...]],
                 default: tuple[int, ...] | None = None):
        self.model = model
        self.table = dict(table)
        self.default = default

    def joint_action(self, obs_seq, act_seq, t) -> tuple[int, ...]:
        key = history_key(act_seq, obs_seq)
        if len(obs_seq) == len(act_seq) == t and (key in self.table or self.default is not None):
            return self.table.get(key, self.default)
        raise StrategyUndefinedError(f"no action for history {key!r} at t={t}")

    def to_json_dict(self) -> dict:
        """The report form; ``table`` is the strategy's own table, whose
        action tuples the ``json`` module writes as arrays."""
        return {
            "variant": self.variant,
            "scope": self.scope,
            "table": self.table,
            "default": list(self.default) if self.default is not None else None,
        }


@dataclass(eq=False)
class SeparatedTeamStrategy:
    """Joint actions indexed by manager tree nodes (full histories), each a
    deterministic function of the node's team belief: the argmin of the
    row of ``value_function`` (a :class:`teamdp.dp.ValueFunction`) that
    the history walks to.  A history key is spelled only for an error."""

    model: TeamModel
    value_function: object
    variant = "separated_team"
    scope = "team"

    def joint_action(self, obs_seq, act_seq, t) -> tuple[int, ...]:
        vf = self.value_function
        if t < vf.horizon and len(obs_seq) == len(act_seq) == t:
            row = vf.row(self.model, obs_seq, act_seq)
            if row >= 0:
                return vf.actions[vf.argmins[t][row]]
        key = history_key(act_seq, obs_seq)
        raise StrategyUndefinedError(f"no action for history {key!r} at t={t}")

    def to_json_dict(self) -> dict:
        """The report form but the table, which ``teamdp.cli`` writes."""
        return {"variant": self.variant, "scope": self.scope, "default": None}


class MemberTableStrategy:
    """Map from one member's canonical view keys to that member's actions."""

    variant = "history_table"
    scope = "member"

    def __init__(self, model: TeamModel, structure: InformationStructure, member: int,
                 table: Mapping[str, int], default: int | None = None):
        self.model = model
        self.structure = structure
        self.member = member
        self.table = dict(table)
        self.default = default
        self.fallbacks = 0  # lookups answered with ``default``

    def _check_length(self, num_obs: int, num_act: int, t: int) -> None:
        if num_obs != t or num_act != t:
            raise StrategyUndefinedError(f"member {self.member} has no action for {num_obs} "
                                         f"observations and {num_act} actions at t={t}")

    def _undefined(self, key: str) -> StrategyUndefinedError:
        return StrategyUndefinedError(f"member {self.member} has no action for view {key!r}")

    def member_action(self, obs_seq, act_seq, t) -> int:
        self._check_length(len(obs_seq), len(act_seq), t)
        fmt, slots = view_key_format(self.structure, self.model.num_members, t, self.member)
        key = fmt % tuple(
            obs_seq[s - 1][j] if kind == "obs" else act_seq[s][j] for s, j, kind in slots
        )
        try:
            return self.table[key]
        except KeyError:
            if self.default is not None:
                self.fallbacks += 1
                return self.default
            raise self._undefined(key) from None

    def member_actions(self, obs: np.ndarray, act: np.ndarray, t: int) -> np.ndarray:
        """``member_action`` of every history held in ``obs`` and ``act``
        (each ``(H, t, K)``), keys formatted by slot column; raises for
        the first history without an action."""
        self._check_length(obs.shape[1], act.shape[1], t)
        from .dp import _view_keys

        keys, table = _view_keys(self.structure, self.member, obs, act), self.table
        missing = [key for key in keys if key not in table]
        if missing:
            if self.default is None:
                raise self._undefined(missing[0])
            self.fallbacks += len(missing)
        return np.array([table.get(key, self.default) for key in keys], dtype=np.intp)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "scope": self.scope,
            "member": self.member,
            "table": {k: int(v) for k, v in self.table.items()},
            "default": self.default,
        }


class MemberSeparatedStrategy(MemberTableStrategy):
    """Member solver output: actions indexed by member belief nodes, i.e.
    realized (common pool, private stream) views with the member's
    conditional state belief attached.

    ``node_beliefs`` maps view keys to state beliefs; it may also be a
    function of no arguments that returns that mapping, which is then
    called on the first read of ``node_beliefs`` (the member solver
    passes one, as only a report reads the beliefs)."""

    variant = "member_separated"

    def __init__(self, model, structure, member, table, node_beliefs=None, default=None):
        super().__init__(model, structure, member, table, default=default)
        self._node_beliefs = node_beliefs if callable(node_beliefs) else dict(node_beliefs or {})

    @property
    def node_beliefs(self) -> dict:
        if callable(self._node_beliefs):
            self._node_beliefs = self._node_beliefs()
        return self._node_beliefs

    def to_json_dict(self) -> dict:
        d = super().to_json_dict()
        if self.node_beliefs:
            d["node_beliefs"] = {k: b.tolist() for k, b in self.node_beliefs.items()}
        return d


@dataclass
class ConstantMemberStrategy:
    """Always play the same action (a handy fixed co-strategy)."""

    member: int
    action: int
    variant = "constant"
    scope = "member"

    def member_action(self, obs_seq, act_seq, t) -> int:
        return self.action

    def member_actions(self, obs: np.ndarray, act: np.ndarray, t: int) -> np.ndarray:
        return np.full(len(obs), self.action, dtype=np.intp)

    def to_json_dict(self) -> dict:
        return {"variant": self.variant, "scope": self.scope, "member": self.member,
                "action": self.action}


class ManagerProjectionStrategy:
    """Member k's component of a team strategy's joint action.

    Note this is full-history measurable, not view measurable: the joint
    action at the team node reached by the realized full history is
    projected onto member k.  It is the fixed co-strategy used when
    checking member solutions against the manager's.
    """

    variant = "manager_projection"
    scope = "member"

    def __init__(self, member: int, team_strategy):
        self.member = member
        self.team_strategy = team_strategy

    def member_action(self, obs_seq, act_seq, t) -> int:
        return self.team_strategy.joint_action(obs_seq, act_seq, t)[self.member]

    def to_json_dict(self) -> dict:
        return {"variant": self.variant, "scope": self.scope, "member": self.member}


class DecentralizedStrategy:
    """A profile of member strategies, viewed as one team strategy.
    Raises ValueError unless there is one strategy per member, in member
    order."""

    variant = "history_table"
    scope = "profile"

    def __init__(self, model: TeamModel, structure: InformationStructure, members: Sequence):
        if len(members) != model.num_members:
            raise ValueError("need one strategy per member")
        _check_members(dict(enumerate(members)))
        self.model = model
        self.structure = structure
        self.members = tuple(members)

    def joint_action(self, obs_seq, act_seq, t) -> tuple[int, ...]:
        return tuple(m.member_action(obs_seq, act_seq, t) for m in self.members)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "scope": self.scope,
            "members": [m.to_json_dict() for m in self.members],
        }
