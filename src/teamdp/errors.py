"""Exception types shared across the package."""


class TeamDPError(Exception):
    """Base class for all package-specific errors."""


class ZeroLikelihoodError(TeamDPError):
    """A conditioning step has normalizer zero (the data is impossible
    under the model / strategy profile)."""


class IncompleteHistoryError(TeamDPError):
    """The pooled views do not determine the full joint history, so a
    team-level posterior cannot be formed."""


class UndefinedCoStrategyError(TeamDPError):
    """A co-member strategy is missing, or undefined at a view that the
    member filter or member solver needs to evaluate."""


class StrategyUndefinedError(TeamDPError):
    """A strategy has no action for a history reached with positive
    probability during evaluation."""


class BudgetExceededError(TeamDPError):
    """A configured resource cap (node count or candidate-strategy count)
    was exceeded."""

    def __init__(self, message: str, budget: int | None = None, observed: int | None = None):
        super().__init__(message)
        self.budget = budget
        self.observed = observed


class InvariantError(TeamDPError):
    """An internal invariant of a solver does not hold: a defect in the
    package, not in its input."""


class ScenarioFormatError(TeamDPError):
    """A scenario document is malformed (unparseable, missing fields, or
    structurally invalid)."""
