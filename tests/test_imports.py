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


# modules for starting processes, which no subcommand starts: any of them
# would add to the start-up of every subcommand
_POOLS = {"multiprocessing", "concurrent.futures", "subprocess"}


# the digit kernel, which only a written value function runs
_DIGITS = "teamdp.floattext"


# OpenSSL's hash modules, which map libcrypto: the scenario digest comes
# from the interpreter's own SHA-256.  gaussian-example is the exception:
# it imports numpy.random, which brings them in through secrets and hmac
_OPENSSL = {"_hashlib", "hashlib"}


@pytest.mark.parametrize(
    "command, absent",
    [
        (
            "validate",
            {
                "jsonschema", "teamdp.dp", "teamdp.oracle", "teamdp.sim", "teamdp.gaussian",
                _DIGITS, *_POOLS, *_OPENSSL,
            },
        ),
        ("compare", {"jsonschema", "teamdp.sim", "teamdp.gaussian", _DIGITS, *_OPENSSL}),
        ("simulate", {"jsonschema", "teamdp.gaussian", "teamdp.filters", _DIGITS, *_OPENSSL}),
        (
            "gaussian-example",
            {
                "jsonschema", "teamdp.dp", "teamdp.oracle", "teamdp.sim", "teamdp.filters",
                "teamdp.strategies", _DIGITS,
            },
        ),
        (
            "solve-manager --format csv",
            {
                "jsonschema", "teamdp.oracle", "teamdp.sim", "teamdp.gaussian", "teamdp.filters",
                *_POOLS, *_OPENSSL,
            },
        ),
        (
            "solve-manager",
            {
                "jsonschema", "teamdp.oracle", "teamdp.sim", "teamdp.gaussian", "teamdp.filters",
                *_POOLS, *_OPENSSL,
            },
        ),
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
    assert (_DIGITS in modules) == (command == "solve-manager")


@pytest.mark.parametrize("hidden", [(), ("_sha2",), ("_sha2", "_sha256")])
def test_scenario_digest_without_the_lean_modules(monkeypatch, hidden):
    """The scenario digest is hashlib's SHA-256 whichever module gives
    it: the interpreter's own (``_sha2`` or ``_sha256``) or, with both
    hidden, hashlib."""
    import hashlib

    from teamdp.cli import _scenario_digest

    for name in hidden:
        monkeypatch.setitem(sys.modules, name, None)
    for raw in (b"", b'{"name": "toy"}', bytes(range(256)) * 1000):
        assert _scenario_digest(raw) == hashlib.sha256(raw).hexdigest()


# what the entry point or a library import leaves: the OpenBLAS setting
# and, once numpy is loaded, the thread count (None without /proc)
_BLAS = """
import json, os, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
if sys.argv[1] != "unset":
    os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
exec(sys.argv[2])
numpy_loaded = "numpy" in sys.modules
import numpy
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), numpy_loaded, threads]), file=sys.stderr)
"""


def test_entry_point_starts_no_blas_pool():
    """``teamdp.__main__`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy
    loads, so the process holds one thread."""
    code, (value, numpy_loaded, threads) = _fresh(_BLAS, "unset", "import teamdp.__main__")
    assert code == 0
    assert value == "1"
    assert numpy_loaded
    if threads is None:
        pytest.skip("needs /proc to count threads")
    assert threads == 1


def test_entry_point_keeps_a_preset_blas_thread_count():
    code, (value, _, _) = _fresh(_BLAS, "2", "import teamdp.__main__")
    assert code == 0
    assert value == "2"


_LIBRARY_IMPORTS = ["import teamdp", "import teamdp.cli", "from teamdp import solve_manager"]


@pytest.mark.parametrize("statement", _LIBRARY_IMPORTS)
def test_library_imports_start_no_blas_pool(statement):
    """Library use sets ``OPENBLAS_NUM_THREADS=1`` as the command does,
    so the process holds one thread once numpy loads; the package itself
    loads no numpy, so the setting comes first."""
    code, (value, numpy_loaded, threads) = _fresh(_BLAS, "unset", statement)
    assert code == 0
    assert value == "1"
    assert numpy_loaded is (statement != "import teamdp")
    if threads is None:
        pytest.skip("needs /proc to count threads")
    assert threads == 1


@pytest.mark.parametrize("statement", _LIBRARY_IMPORTS)
def test_library_imports_keep_a_preset_blas_thread_count(statement):
    code, (value, _, _) = _fresh(_BLAS, "2", statement)
    assert code == 0
    assert value == "2"


def test_numpy_imported_first_leaves_the_environment_alone():
    """With numpy loaded before teamdp, the setting would come too late
    to matter, so the package leaves the environment as it is."""
    code, (value, numpy_loaded, _) = _fresh(_BLAS, "unset", "import numpy, teamdp, teamdp.dp")
    assert code == 0
    assert value is None
    assert numpy_loaded
