"""Strategy forms and their evaluation on realized histories.

Every strategy here is deterministic.  Team-scoped strategies expose
``joint_action(obs_seq, act_seq, t)`` and member-scoped ones expose
``member_action(obs_seq, act_seq, t)``, where ``obs_seq[i]`` is the joint
observation at time i+1 and ``act_seq[i]`` the joint action at time i
(the package-wide convention from :mod:`teamdp.model`).

Forms:

* :class:`CentralizedTableStrategy` - table keyed by the canonical full
  joint history; the class of strategies a single all-seeing controller
  could play.
* :class:`SeparatedTeamStrategy` - the manager solver's output: a table
  keyed by full-history tree nodes, each carrying the team belief the
  action was computed from.
* :class:`MemberTableStrategy` / :class:`MemberSeparatedStrategy` - tables
  keyed by the member's own view; the feasible decentralized form.
* :class:`ConstantMemberStrategy`, :class:`ManagerProjectionStrategy` -
  fixed co-strategies for member-side computations.
* :class:`DecentralizedStrategy` - a profile of member strategies acting
  as one team strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import StrategyUndefinedError
from .model import InformationStructure, TeamModel, history_key, prefix_view, view_key

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
        try:
            return self.table[key]
        except KeyError:
            if self.default is not None:
                return self.default
            raise StrategyUndefinedError(f"no action for history {key!r} at t={t}") from None

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "scope": self.scope,
            "table": {k: list(v) for k, v in sorted(self.table.items())},
            "default": list(self.default) if self.default is not None else None,
        }


class SeparatedTeamStrategy(CentralizedTableStrategy):
    """Joint actions indexed by manager tree nodes (full histories), each a
    deterministic function of the node's team belief."""

    variant = "separated_team"

    def __init__(self, model: TeamModel, structure: InformationStructure,
                 table: Mapping[str, tuple[int, ...]],
                 node_beliefs: Mapping[str, np.ndarray] | None = None):
        super().__init__(model, table)
        self.structure = structure
        self.node_beliefs = dict(node_beliefs or {})

    def to_json_dict(self) -> dict:
        d = super().to_json_dict()
        if self.node_beliefs:
            d["node_beliefs"] = {k: b.tolist() for k, b in sorted(self.node_beliefs.items())}
        return d


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
        self.fallback_keys: list[str] = []

    def member_action(self, obs_seq, act_seq, t) -> int:
        view = prefix_view(self.structure, self.model.num_members, obs_seq, act_seq, t, self.member)
        key = view_key(view)
        try:
            return self.table[key]
        except KeyError:
            if self.default is not None:
                self.fallback_keys.append(key)
                return self.default
            raise StrategyUndefinedError(
                f"member {self.member} has no action for view {key!r}"
            ) from None

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "scope": self.scope,
            "member": self.member,
            "table": {k: int(v) for k, v in sorted(self.table.items())},
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
            d["node_beliefs"] = {k: b.tolist() for k, b in sorted(self.node_beliefs.items())}
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
