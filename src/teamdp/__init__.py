"""Exact desk-scale solvers and verification oracles for sequential team
decision problems where members share information with delays, in periodic
batches, partially (observations or actions only), or not at all.

The package computes information states by exact filtering, solves the
pooled-information (manager) and per-member dynamic programs on reachable
trees, cross-checks everything against brute-force enumeration oracles,
and reproduces a closed-form two-member Gaussian example.

Submodules are imported on first use (PEP 562): ``teamdp.<name>`` and
``from teamdp import <name>`` import the submodule that defines the name,
so a program pays only for the parts it touches.  ``from teamdp import *``
imports them all.

Importing the package tells OpenBLAS to start no worker pool: while numpy
is not loaded yet, it sets ``OPENBLAS_NUM_THREADS=1`` unless the
environment already sets it.  At its load OpenBLAS starts one worker
thread per further CPU, and those threads take the CPU from the import,
while teamdp's only BLAS call, a belief times one action's transition
matrix, is far too small to use them.  The package itself loads no numpy,
so the setting comes before numpy's load unless the program imported
numpy first, in which case the environment is left as it is.
"""

from importlib import import_module as _import_module
from os import environ as _environ
from sys import modules as _modules

if "numpy" not in _modules:
    _environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# the names the package exports, by the submodule that defines them
_EXPORTS = {
    "errors": (
        "BudgetExceededError",
        "IncompleteHistoryError",
        "InvariantError",
        "ScenarioFormatError",
        "StrategyUndefinedError",
        "TeamDPError",
        "UndefinedCoStrategyError",
        "ZeroLikelihoodError",
    ),
    "model": (
        "DEFAULT_NODE_BUDGET",
        "DEFAULT_STRATEGY_BUDGET",
        "HistoryView",
        "InformationStructure",
        "STRUCTURE_VARIANTS",
        "TeamModel",
        "Trajectory",
        "Violation",
        "extract_views",
        "history_key",
        "prefix_view",
        "validate_model",
        "view_key",
        "view_known",
        "view_slots",
    ),
    "filters": (
        "Belief",
        "JointConditional",
        "correct",
        "member_belief",
        "member_conditional",
        "predict",
        "recombine",
        "team_belief_from_history",
        "team_update",
    ),
    "strategies": (
        "CentralizedTableStrategy",
        "ConstantMemberStrategy",
        "DecentralizedStrategy",
        "ManagerProjectionStrategy",
        "MemberSeparatedStrategy",
        "MemberTableStrategy",
        "SeparatedTeamStrategy",
    ),
    "oracle": (
        "EnumerationResult",
        "WeightedOutcome",
        "enumerate_centralized",
        "enumerate_decentralized",
        "enumerate_outcomes",
        "exact_cost",
        "exact_cost_to_go",
        "exact_posterior",
    ),
    "dp": (
        "ComparisonReport",
        "ManagerSolution",
        "MemberSolution",
        "ValueFunction",
        "backup",
        "compare_solutions",
        "evaluate_member_value",
        "evaluate_value",
        "solve_manager",
        "solve_member",
    ),
    "sim": ("CostEstimate", "SimConfig", "estimate_cost", "rollout"),
    "gaussian": (
        "GaussianInstance",
        "GaussianSolution",
        "LinearStrategy",
        "closed_form",
        "dp_walkthrough",
        "expected_cost",
        "linear_search",
        "mc_estimate",
    ),
    "scenario": ("load_scenario", "load_schema", "scenario_from_dict", "scenario_to_dict"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SUBMODULE]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
