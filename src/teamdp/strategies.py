"""Strategy forms and their evaluation on realized histories.

Every strategy here is deterministic.  Team-scoped strategies expose
``joint_action(obs_seq, act_seq, t)`` and member-scoped ones expose
``member_action(obs_seq, act_seq, t)``, where ``obs_seq[i]`` is the joint
observation at time i+1 and ``act_seq[i]`` the joint action at time i
(the package-wide convention from :mod:`teamdp.model`); every table form
refuses prefixes whose length is not t, whatever its default.

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
  :func:`teamdp.model.view_key_format`, without building the view, and
  counts the lookups answered by the default action in ``fallbacks``.
* :class:`ConstantMemberStrategy`, :class:`ManagerProjectionStrategy` -
  fixed co-strategies for member-side computations.
* :class:`DecentralizedStrategy` - a profile of member strategies acting
  as one team strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import StrategyUndefinedError
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

    def member_action(self, obs_seq, act_seq, t) -> int:
        if len(obs_seq) != t or len(act_seq) != t:
            raise StrategyUndefinedError(f"member {self.member} has no action for {len(obs_seq)} "
                                         f"observations and {len(act_seq)} actions at t={t}")
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
            raise StrategyUndefinedError(
                f"member {self.member} has no action for view {key!r}"
            ) from None

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
    conditional state belief attached."""

    variant = "member_separated"

    def __init__(self, model, structure, member, table, node_beliefs=None, default=None):
        super().__init__(model, structure, member, table, default=default)
        self.node_beliefs = dict(node_beliefs or {})

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
    """A profile of member strategies, viewed as one team strategy."""

    variant = "history_table"
    scope = "profile"

    def __init__(self, model: TeamModel, structure: InformationStructure, members: Sequence):
        if len(members) != model.num_members:
            raise ValueError("need one strategy per member")
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
