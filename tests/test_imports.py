"""What importing the package and running a subcommand loads, checked in
fresh interpreters: the package imports its submodules on first use, and
each subcommand imports only the modules it runs."""

import json
import subprocess
import sys

import pytest

import teamdp

# every public name of the package: the names its submodules export and
# the submodules themselves
PACKAGE_NAMES = [
    "Belief", "BudgetExceededError", "CentralizedTableStrategy", "ComparisonReport",
    "ConstantMemberStrategy", "CostEstimate", "DEFAULT_NODE_BUDGET", "DEFAULT_STRATEGY_BUDGET",
    "DecentralizedStrategy", "EnumerationResult", "GaussianInstance", "GaussianSolution",
    "HistoryView", "IncompleteHistoryError", "InformationStructure", "InvariantError",
    "JointConditional", "LinearStrategy", "ManagerProjectionStrategy", "ManagerSolution",
    "MemberSeparatedStrategy", "MemberSolution", "MemberTableStrategy", "STRUCTURE_VARIANTS",
    "ScenarioFormatError", "SeparatedTeamStrategy", "SimConfig", "StrategyUndefinedError",
    "TeamDPError", "TeamModel", "Trajectory", "UndefinedCoStrategyError", "ValueFunction",
    "Violation", "WeightedOutcome", "ZeroLikelihoodError", "backup", "closed_form",
    "compare_solutions", "correct", "dp", "dp_walkthrough", "enumerate_centralized",
    "enumerate_decentralized", "enumerate_outcomes", "errors", "estimate_cost",
    "evaluate_member_value", "evaluate_value", "exact_cost", "exact_cost_to_go",
    "exact_posterior", "expected_cost", "extract_views", "filters", "gaussian", "history_key",
    "linear_search", "load_scenario", "load_schema", "mc_estimate", "member_belief",
    "member_conditional", "model", "oracle", "predict", "prefix_view", "recombine", "rollout",
    "scenario", "scenario_from_dict", "scenario_to_dict", "sim", "solve_manager", "solve_member",
    "strategies", "team_belief_from_history", "team_update", "validate_model", "view_key",
    "view_known", "view_slots",
]


def _fresh(code: str, *argv: str):
    """Run ``code`` in a fresh interpreter; return its exit code and the
    JSON it prints last on stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=False
    )
    return proc.returncode, json.loads(proc.stderr.splitlines()[-1])


_NAMES = """
import json, sys
import teamdp
public = lambda names: sorted(n for n in names if not n.startswith("_"))
first = public(dir(teamdp))
star = {}
exec("from teamdp import *", star)
print(json.dumps([first, public(star), public(dir(teamdp))]), file=sys.stderr)
"""


def test_package_names_are_unchanged():
    code, (first, star, after) = _fresh(_NAMES)
    assert code == 0
    assert first == star == after == sorted(PACKAGE_NAMES)


def test_every_package_name_resolves():
    from teamdp.dp import solve_manager

    for name in PACKAGE_NAMES:
        value = getattr(teamdp, name)
        if name.islower() and f"teamdp.{name}" in sys.modules:
            assert value is sys.modules[f"teamdp.{name}"]
    assert teamdp.solve_manager is solve_manager
    assert teamdp.DEFAULT_NODE_BUDGET == teamdp.dp.DEFAULT_NODE_BUDGET == 200_000
    assert teamdp.DEFAULT_STRATEGY_BUDGET == teamdp.oracle.DEFAULT_STRATEGY_BUDGET == 10_000_000
    with pytest.raises(AttributeError, match="no_such_name"):
        teamdp.no_such_name


_RUN = """
import json, sys
from teamdp.cli import run
code = run(sys.argv[1:])
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


# modules for starting processes, which the value-function renderers do
# without: any of them would add to the start-up of every subcommand
_POOLS = {"multiprocessing", "concurrent.futures", "subprocess"}


@pytest.mark.parametrize(
    "command, absent",
    [
        (
            "validate",
            {"jsonschema", "teamdp.dp", "teamdp.oracle", "teamdp.sim", "teamdp.gaussian", *_POOLS},
        ),
        ("compare", {"jsonschema", "teamdp.sim", "teamdp.gaussian"}),
        ("simulate", {"jsonschema", "teamdp.gaussian"}),
        (
            "gaussian-example",
            {
                "jsonschema", "teamdp.dp", "teamdp.oracle", "teamdp.sim", "teamdp.filters",
                "teamdp.strategies",
            },
        ),
        (
            "solve-manager --format csv",
            {"jsonschema", "teamdp.oracle", "teamdp.sim", "teamdp.gaussian", *_POOLS},
        ),
        ("solve-manager", {"jsonschema", "teamdp.oracle", "teamdp.sim", "teamdp.gaussian", *_POOLS}),
    ],
)
def test_subcommand_imports_only_what_it_runs(toy2, tmp_path, command, absent):
    from teamdp import scenario_to_dict

    command, *options = command.split()
    if command == "gaussian-example":
        args = ["--samples", "100", "--grid", "0:2:0.5,0:1:0.5,-1:0:0.5"]
    else:
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(scenario_to_dict(*toy2)))
        args = ["--scenario", str(path)]
    out = tmp_path / "report.json"
    code, modules = _fresh(_RUN, command, *args, *options, "--out", str(out))
    assert code == 0
    if options:
        assert f'metadata.command,"{command}"' in out.read_text().splitlines()
    else:
        assert json.loads(out.read_text())["metadata"]["command"] == command
    assert "teamdp.model" in modules
    assert absent & set(modules) == set()
