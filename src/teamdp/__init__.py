"""Exact desk-scale solvers and verification oracles for sequential team
decision problems where members share information with delays, in periodic
batches, partially (observations or actions only), or not at all.

The package computes information states by exact filtering, solves the
pooled-information (manager) and per-member dynamic programs on reachable
trees, cross-checks everything against brute-force enumeration oracles,
and reproduces a closed-form two-member Gaussian example.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    IncompleteHistoryError,
    InvariantError,
    ScenarioFormatError,
    StrategyUndefinedError,
    TeamDPError,
    UndefinedCoStrategyError,
    ZeroLikelihoodError,
)
from .model import (
    HistoryView,
    InformationStructure,
    STRUCTURE_VARIANTS,
    TeamModel,
    Trajectory,
    Violation,
    extract_views,
    history_key,
    prefix_view,
    validate_model,
    view_key,
    view_known,
    view_slots,
)
from .filters import (
    Belief,
    JointConditional,
    correct,
    member_belief,
    member_conditional,
    predict,
    recombine,
    team_belief_from_history,
    team_update,
)
from .strategies import (
    CentralizedTableStrategy,
    ConstantMemberStrategy,
    DecentralizedStrategy,
    ManagerProjectionStrategy,
    MemberSeparatedStrategy,
    MemberTableStrategy,
    SeparatedTeamStrategy,
)
from .oracle import (
    DEFAULT_STRATEGY_BUDGET,
    EnumerationResult,
    WeightedOutcome,
    enumerate_centralized,
    enumerate_decentralized,
    enumerate_outcomes,
    exact_cost,
    exact_cost_to_go,
    exact_posterior,
)
from .dp import (
    ComparisonReport,
    DEFAULT_NODE_BUDGET,
    ManagerSolution,
    MemberSolution,
    ValueFunction,
    backup,
    compare_solutions,
    evaluate_member_value,
    evaluate_value,
    solve_manager,
    solve_member,
)
from .sim import CostEstimate, SimConfig, estimate_cost, rollout
from .gaussian import (
    GaussianInstance,
    GaussianSolution,
    LinearStrategy,
    closed_form,
    dp_walkthrough,
    expected_cost,
    linear_search,
    mc_estimate,
)
from .scenario import load_scenario, load_schema, scenario_from_dict, scenario_to_dict
