"""Command-line interface tests: every subcommand, the full exit-code
contract, report schema conformance, and byte-level determinism."""

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest
from conftest import (
    SCENARIO_DOCUMENTS,
    manager_histories,
    manager_stages,
    mutated_scenarios,
    random_model,
    value_function_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import teamdp.cli
from teamdp import (
    CentralizedTableStrategy,
    InformationStructure,
    StrategyUndefinedError,
    load_schema,
    scenario_to_dict,
    solve_manager,
)
from teamdp.model import history_key
from teamdp.cli import (
    _BLOCK_ROWS,
    MAX_GRID_POINTS,
    MAX_SAMPLES,
    _cmd_solve_manager,
    _emit,
    _encode,
    _flatten,
    run,
)

WALL_TIME = re.compile(r'^\s*"wall_time_s": [0-9.eE+-]+,?\n', re.MULTILINE)


@pytest.fixture
def scenario_path(toy2, tmp_path):
    model, structure = toy2
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(scenario_to_dict(model, structure, name="toy")))
    return str(path)


@pytest.fixture
def bad_numbers_path(toy2, tmp_path):
    model, structure = toy2
    doc = scenario_to_dict(model, structure)
    doc["initial_dist"] = [0.9, 0.9]  # schema-valid, probabilistically not
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    text = capsys.readouterr().out
    report = json.loads(text)
    jsonschema.validate(report, load_schema("report"))
    return code, report, text


# ---------------------------------------------------------------------------
# happy paths


def test_validate_ok(capsys, scenario_path):
    code, report, _ = invoke(capsys, ["validate", "--scenario", scenario_path])
    assert code == 0
    assert report["results"] == {"valid": True, "violations": []}
    assert report["metadata"]["command"] == "validate"
    with open(scenario_path, "rb") as f:
        assert report["metadata"]["scenario_sha256"] == hashlib.sha256(f.read()).hexdigest()


def test_solve_manager(capsys, scenario_path):
    code, report, _ = invoke(capsys, ["solve-manager", "--scenario", scenario_path])
    assert code == 0
    assert report["results"]["root_value"] == pytest.approx(1.14664, abs=1e-9)
    assert report["diagnostics"]["node_counts"] == [1, 16, 256]


def test_solve_member(capsys, scenario_path):
    code, report, _ = invoke(
        capsys, ["solve-member", "--scenario", scenario_path, "--member", "0"]
    )
    assert code == 0
    assert report["results"]["member"] == 0
    assert report["results"]["root_value"] >= report["results"]["manager_root_value"] - 1e-12


def test_beliefs_live_once_per_report(capsys, scenario_path):
    """A solve-manager report holds each team belief once, under the value
    function; a solve-member report keeps the member's node beliefs with
    its strategy, the only place they appear."""
    _, report, _ = invoke(capsys, ["solve-manager", "--scenario", scenario_path])
    strategy = report["results"]["strategy"]
    stages = report["results"]["value_function"]["stages"]
    assert strategy["variant"] == "separated_team"
    assert "node_beliefs" not in strategy
    assert strategy["table"]
    for key in strategy["table"]:
        t = len(re.findall(r"u\d+=", key))
        assert len(stages[t][key]["belief"]) == 2
    _, report, _ = invoke(
        capsys, ["solve-member", "--scenario", scenario_path, "--member", "0"]
    )
    strategy = report["results"]["strategy"]
    assert strategy["variant"] == "member_separated"
    assert set(strategy["table"]) <= set(strategy["node_beliefs"])


def test_oracles(capsys, scenario_path):
    code, report, _ = invoke(capsys, ["oracle-centralized", "--scenario", scenario_path])
    assert code == 0
    assert report["results"]["num_strategies"] == 1024
    assert report["results"]["optimal_cost"] == pytest.approx(1.14664, abs=1e-12)
    code, report, _ = invoke(capsys, ["oracle-decentralized", "--scenario", scenario_path])
    assert code == 0
    assert report["results"]["num_strategies"] == 64
    assert report["results"]["optimal_cost"] == pytest.approx(1.15432, abs=1e-12)


def test_compare(capsys, scenario_path):
    code, report, _ = invoke(capsys, ["compare", "--scenario", scenario_path])
    assert code == 0
    r = report["results"]
    assert r["manager_root_value"] <= r["decentralized_optimal_cost"] + 1e-12
    assert len(r["members"]) == 2


def test_simulate(capsys, scenario_path):
    code, report, _ = invoke(
        capsys,
        ["simulate", "--scenario", scenario_path, "--samples", "500", "--seed", "3"],
    )
    assert code == 0
    r = report["results"]
    assert r["estimate"]["samples"] == 500
    assert r["within_three_std_errors"] is True
    assert report["metadata"]["arguments"]["seed"] == 3


def test_gaussian_example(capsys):
    code, report, _ = invoke(
        capsys,
        ["gaussian-example", "--samples", "20000", "--grid", "0:2:0.05,0:1:0.05,-1:0:0.05"],
    )
    assert code == 0
    r = report["results"]
    assert r["closed_form"]["first_gain"] == 0.5  # default covariance -0.5
    assert r["closed_form"]["pooled_gain"] == 0.5
    assert r["closed_form"]["correction_gain"] == -0.25
    assert r["closed_form"]["optimal_cost"] == 0.1875
    assert r["companion_sign"]["first_gain"] == 1.5
    assert r["companion_sign"]["optimal_cost"] == 0.1875
    assert r["monte_carlo"]["within_three_std_errors"] is True
    assert abs(r["grid_search"]["gap_to_closed_form"]) <= 1e-3
    assert len(r["walkthrough"]) == 3


# ---------------------------------------------------------------------------
# exit-code contract


def test_exit_validation_on_bad_numbers(capsys, bad_numbers_path):
    code, report, _ = invoke(capsys, ["validate", "--scenario", bad_numbers_path])
    assert code == 2
    assert report["results"]["valid"] is False
    assert report["results"]["violations"]


def test_exit_validation_on_undefined_problem(capsys, toy2, tmp_path):
    from teamdp import InformationStructure

    model, _ = toy2
    doc = scenario_to_dict(model, InformationStructure("no_sharing"))
    path = tmp_path / "nos.json"
    path.write_text(json.dumps(doc))
    code, report, _ = invoke(capsys, ["solve-manager", "--scenario", str(path)])
    assert code == 2
    assert report["error"]["type"] == "IncompleteHistoryError"


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("command", ["validate", "solve-manager"])
def test_exit_validation_on_overflowing_costs(toy2, tmp_path, command):
    """Stage costs that are each finite but whose sum over the stages is
    not would make every value Infinity: one strict-JSON report, exit 2
    and nothing on stderr (no numpy overflow warning)."""
    model = random_model(1, horizon=2)
    model = dataclasses.replace(model, stage_cost=np.full_like(model.stage_cost, 1e308))
    path = tmp_path / "huge_costs.json"
    path.write_text(json.dumps(scenario_to_dict(model, toy2[1])))
    proc = subprocess.run(
        [sys.executable, "-m", "teamdp", command, "--scenario", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = json.loads(proc.stdout, parse_constant=_refuse_constant)
    jsonschema.validate(report, load_schema("report"))
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert report["results"]["valid"] is False
    assert [v["path"] for v in report["results"]["violations"]] == ["stage_cost"]


def test_exit_budget(capsys, scenario_path):
    code, report, _ = invoke(
        capsys, ["solve-manager", "--scenario", scenario_path, "--node-budget", "1"]
    )
    assert code == 3
    assert report["error"]["type"] == "BudgetExceededError"
    assert report["error"]["budget"] == 1
    assert report["error"]["observed"] > 1


def test_exit_malformed(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, report, _ = invoke(capsys, ["validate", "--scenario", str(path)])
    assert code == 4
    assert report["error"]["type"] == "ScenarioFormatError"
    path2 = tmp_path / "missing_fields.json"
    path2.write_text(json.dumps({"num_members": 2}))
    code, report, _ = invoke(capsys, ["validate", "--scenario", str(path2)])
    assert code == 4


@pytest.mark.parametrize("command", ["validate", "solve-manager"])
@pytest.mark.parametrize(
    "raw",
    [
        b'{"name": "\xe9"}',  # Latin-1, not UTF-8
        b"\xff",
        b"\xff\xfe\x00",  # taken for UTF-16 by its first bytes
        b"[" * 2000 + b"]" * 2000,  # nested deeper than the parser recurses
        b'{"num_members": ' + b"9" * 5000 + b"}",  # past the int digit limit
    ],
    ids=["latin1", "ff", "utf16_prefix", "deep_nesting", "long_int"],
)
def test_exit_malformed_on_unparsable_bytes(capsys, tmp_path, command, raw):
    """Bytes that json.loads cannot turn into a document give one report,
    exit 4 and nothing on stderr."""
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code = run([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    jsonschema.validate(report, load_schema("report"))
    assert code == 4
    assert report["error"]["type"] == "ScenarioFormatError"
    assert captured.err == ""


def test_exit_usage(capsys, scenario_path):
    code, report, _ = invoke(capsys, ["validate"])  # missing --scenario
    assert code == 64
    assert report["error"]["type"] == "UsageError"
    code, _, _ = invoke(capsys, ["no-such-command"])
    assert code == 64
    code, report, _ = invoke(
        capsys, ["solve-member", "--scenario", scenario_path, "--member", "7"]
    )
    assert code == 64


@pytest.mark.parametrize(
    "argv, head",
    [(["--help"], "usage: teamdp [-h]"), (["solve-manager", "-h"], "usage: teamdp solve-manager")],
)
def test_help_is_a_report(capsys, argv, head):
    """-h and --help, of the command or of a subcommand, return 0 with
    one report that holds argparse's help text."""
    code, report, _ = invoke(capsys, argv)
    assert code == 0
    assert report["metadata"]["command"] == "help"
    assert report["results"]["usage"].startswith(head)
    assert "show this help message" in report["results"]["usage"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_help_to_a_full_stdout_is_a_usage_error():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "teamdp", "--help"], stdout=full, stderr=subprocess.PIPE
        )
    assert proc.returncode == 64
    assert proc.stderr.startswith(b"usage error: cannot write stdout:")


@pytest.mark.parametrize(
    "argv",
    [
        ["gaussian-example", "--covariance", "1.0"],
        ["gaussian-example", "--covariance", "-1.5"],
        ["gaussian-example", "--covariance", "nan"],
        ["simulate", "--scenario", "SCENARIO", "--samples", "0"],
        ["gaussian-example", "--samples", "0"],
        ["solve-manager", "--scenario", "SCENARIO", "--node-budget", "-5"],
        ["oracle-decentralized", "--scenario", "SCENARIO", "--node-budget", "0"],
    ],
)
def test_exit_usage_on_bad_numeric_arguments(capsys, scenario_path, argv):
    argv = [scenario_path if a == "SCENARIO" else a for a in argv]
    code, report, _ = invoke(capsys, argv)
    assert code == 64
    assert report["error"]["type"] == "UsageError"
    assert report["error"]["message"].startswith(f"argument {argv[-2]}:")


@pytest.mark.parametrize("command", ["simulate", "gaussian-example"])
@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**13])
def test_exit_usage_on_too_many_samples(capsys, scenario_path, command, samples):
    """A sample count over the cap is refused while parsing, before any
    array is made: one report, exit 64."""
    argv = [command, "--samples", str(samples)]
    if command == "simulate":
        argv += ["--scenario", scenario_path]
    code, report, _ = invoke(capsys, argv)
    assert code == 64
    assert report["error"]["type"] == "UsageError"
    assert report["error"]["message"] == (
        f"argument --samples: must be <= {MAX_SAMPLES}, got {samples}"
    )


def test_exit_usage_on_negative_gaussian_seed(capsys):
    code, report, _ = invoke(capsys, ["gaussian-example", "--seed", "-1"])
    assert code == 64
    assert report["error"]["type"] == "UsageError"
    assert report["error"]["message"] == "argument --seed: must be >= 0, got -1"


def test_simulate_reduces_a_negative_seed(capsys, scenario_path):
    """simulate seeds sample i with (seed + i) mod 2**64, so seed -1 runs
    samples 2**64 - 1, 0, 1, ... and is reported as given."""
    argv = ["simulate", "--scenario", scenario_path, "--samples", "50"]
    code, report, _ = invoke(capsys, [*argv, "--seed", "-1"])
    assert code == 0
    assert report["metadata"]["seed"] == report["results"]["estimate"]["seed"] == -1
    _, wrapped, _ = invoke(capsys, [*argv, "--seed", str(2**64 - 1)])
    assert report["results"]["estimate"]["mean"] == wrapped["results"]["estimate"]["mean"]
    assert report["results"]["estimate"]["std_error"] == wrapped["results"]["estimate"]["std_error"]


@pytest.mark.parametrize(
    "grid, message",
    [
        (
            "0:1:1e-5,0:1:1e-5,0:1:1e-5",
            f"{100001**3} points, more than the limit of {MAX_GRID_POINTS}",
        ),
        (
            "0:1:1e-3,0:1:1e-3,0:1:1e-3",
            f"{1001**3} points, more than the limit of {MAX_GRID_POINTS}",
        ),
        ("nan:1:0.1,0:1:0.1,0:1:0.1", "need finite numbers"),
        ("0:inf:0.1,0:1:0.1,0:1:0.1", "need finite numbers"),
        # (hi - lo) / step overflows to inf
        ("0:1e308:1e-308,0:1:0.1,0:1:0.1", f"more points than the limit of {MAX_GRID_POINTS}"),
        ("-1e308:1e308:1,0:1:0.1,0:1:0.1", f"more points than the limit of {MAX_GRID_POINTS}"),
        ("0:1:5e-324,0:1:0.1,0:1:0.1", f"more points than the limit of {MAX_GRID_POINTS}"),
    ],
)
def test_exit_usage_on_unbounded_grid(capsys, grid, message):
    code, report, _ = invoke(capsys, ["gaussian-example", f"--grid={grid}"])
    assert code == 64
    assert report["error"]["type"] == "UsageError"
    assert message in report["error"]["message"]


def test_exit_validation_on_member_tree_invariant(capsys, scenario_path, monkeypatch):
    # every member view gets the same key, so two children collide
    monkeypatch.setattr("teamdp.dp.view_key_format", lambda *layout: ("same", ()))
    code, report, _ = invoke(
        capsys, ["solve-member", "--scenario", scenario_path, "--member", "0"]
    )
    assert code == 2
    assert report["error"]["type"] == "InvariantError"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_exit_validation_on_a_key_suffix_json_escapes(capsys, scenario_path, monkeypatch, fmt):
    """The JSON writer puts history keys between quotes as they are, so a
    branch suffix that JSON would escape, here a '"' in the last stage's
    table only, is refused before any of the report is written: exit 2
    and one error report."""
    suffixes = teamdp.cli._branch_suffixes

    def quoted(vf, t):
        texts = suffixes(vf, t)
        return texts if t < vf.horizon - 1 else texts[:-1] + [texts[-1] + '"']

    monkeypatch.setattr(teamdp.cli, "_branch_suffixes", quoted)
    code = run(["solve-manager", "--scenario", scenario_path, "--format", fmt])
    text = capsys.readouterr().out
    assert code == 2
    if fmt == "json":
        report = json.loads(text)
        jsonschema.validate(report, load_schema("report"))
        assert report["error"]["type"] == "InvariantError"
        assert report["results"] == {}
    else:
        assert "error.type,\"InvariantError\"\n" in text
        assert "stages[" not in text


# ---------------------------------------------------------------------------
# the report writer


def _encoded(obj) -> str:
    chunks = []
    _encode(obj, chunks.append)
    return "".join(chunks)


def _first_difference(text: str, expected: str):
    """(line number, line, expected line) where two texts first differ, or
    None; a megabyte-long string diff would take pytest minutes."""
    pairs = itertools.zip_longest(text.splitlines(), expected.splitlines())
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


# every character, including control characters and lone surrogates
_text = st.text(st.characters(exclude_categories=()), max_size=8)
_floats = st.floats() | st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")])
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | _floats
    | _floats.map(np.float64)
    | _text
)
# numeric lists: plain floats with nan and inf among them, ints with
# bools, and every mix of the two
_numeric_lists = (
    st.lists(_floats, min_size=1, max_size=6)
    | st.lists(st.integers(-3, 3) | st.booleans(), min_size=1, max_size=6)
    | st.lists(
        _floats | _floats.map(np.float64) | st.integers() | st.booleans(),
        min_size=1,
        max_size=6,
    )
)
_keyed = st.one_of(
    st.dictionaries(st.integers() | st.floats(allow_nan=False), _scalars, max_size=4),
    st.dictionaries(st.booleans(), _scalars, max_size=2),
    st.dictionaries(st.none(), _scalars, max_size=1),
)
# value functions the writer splices into the encoder's text, solved once:
# a zero-entry model's, whose pruned branches leave gaps in the row order,
# and a horizon-1 model's
_DELAYED = InformationStructure("delayed_sharing", delays=(1, 1))
_SPLICED = [
    solve_manager(model, _DELAYED).value_function
    for model in (
        random_model(310, num_states=3, horizon=2, positive=False),
        random_model(331, horizon=1),
    )
]
# value functions sit as dict values and list items, at any depth, and
# after a first key or item as well as after a separator
_documents = st.recursive(
    _scalars | _numeric_lists | _keyed | st.sampled_from(_SPLICED),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(_text, children, max_size=5),
    max_leaves=40,
)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(_documents)
def test_encode_matches_json_dumps(obj):
    """The writer gives json.dumps' text, each value function in it
    written as json.dumps writes its reference form at its place."""
    expected = json.dumps(obj, indent=2, sort_keys=True, default=value_function_reference)
    assert _first_difference(_encoded(obj), expected) is None


@pytest.mark.parametrize(
    "obj",
    [
        [0.5, float("nan")],
        [-0.0, float("inf"), -float("inf")],
        [0.5, np.float64(0.25)],
        [1, True, False, 10**40],
        [True, 1],
        [1.5, 2, True],
        [2, 1.5],
        {"\u00e9\n\x00\ud800": ["\u2603\t\"\\"], "": {}, "a": []},
        {3: 1, 2.5: [], -1: None, 10**30: True},
        (),
        {},
    ],
)
def test_encode_matches_json_dumps_on_edge_cases(obj):
    assert _encoded(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj", [{1, 2}, {"a": [frozenset()]}, np.int64(1), [b"bytes"], {(1, 2): 0}, object()]
)
def test_encode_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _encoded(obj)


# models whose value functions the stage writer must write as json.dumps
# writes their reference form, each with a text that reference must hold
_VALUE_FUNCTION_MODELS = {
    "toy2": (lambda toy2: toy2[0], ""),
    # pruned branches leave gaps in the row order
    "zero_entry": (lambda toy2: random_model(310, num_states=3, horizon=3, positive=False), ""),
    # "y1=10" sorts before "y1=2"
    "eleven_obs": (
        lambda toy2: random_model(330, num_states=2, horizon=2, obs_sizes=(11, 2)),
        "y1=10,1",
    ),
    # the last member's labels run to 10, so the parent key "u0=0,0;y1=0,1"
    # is a proper prefix of the parent key "u0=0,0;y1=0,10", and its
    # children sort after theirs
    "last_eleven_obs": (
        lambda toy2: random_model(333, horizon=2, obs_sizes=(2, 11)),
        '"u0=0,0;y1=0,1;u1=0,0;y2=0,0"',
    ),
    "horizon_1": (lambda toy2: random_model(331, horizon=1), ""),
    # unvalidated: no decision stage, so the strategy table is empty
    "horizon_0": (
        lambda toy2: dataclasses.replace(toy2[0], horizon=0, stage_cost=toy2[0].stage_cost[:0]),
        '"stages": [\n    {\n      "": {\n        "argmin": null,',
    ),
    # K = 3 argmin columns and 12 joint actions: stages of 1, 96 and 9,216
    # rows
    "three_members": (
        lambda toy2: random_model(340, num_members=3, action_sizes=(2, 3, 2), horizon=2),
        '"u0=1,2,1;y1=1,1,1;u1=1,2,1;y2=1,1,1"',
    ),
    # K = 1 and S = 1: one argmin column and one belief column
    "one_state": (
        lambda toy2: random_model(341, num_members=1, num_states=1, horizon=2),
        '"u0=1;y1=1;u1=1;y2=1": {\n        "argmin": null,\n'
        '        "belief": [\n          1.0\n        ],',
    ),
    # stage 3 has 13,824 rows, more than one block
    "past_block": (lambda toy2: random_model(332, horizon=3, obs_sizes=(2, 3)), ""),
    # unvalidated: non-finite terminal costs spread through every stage
    "inf": (
        lambda toy2: dataclasses.replace(toy2[0], terminal_cost=np.array([np.inf, 1.0])),
        "Infinity",
    ),
    "-inf": (
        lambda toy2: dataclasses.replace(toy2[0], terminal_cost=np.array([-np.inf, 1.0])),
        "-Infinity",
    ),
    "nan": (
        lambda toy2: dataclasses.replace(toy2[0], terminal_cost=np.array([np.nan, 1.0])),
        "NaN",
    ),
    # unvalidated: all-zero observation kernel, so no branch has positive
    # weight and stages 1 and 2 are empty
    "empty_stages": (
        lambda toy2: dataclasses.replace(
            toy2[0], observation_kernels=(np.zeros((2, 2)), toy2[0].observation_kernels[1])
        ),
        "{}",
    ),
    # repr writes the root belief 1e-05 in exponent notation
    "tiny_belief": (
        lambda toy2: dataclasses.replace(toy2[0], initial_dist=np.array([1e-5, 1 - 1e-5])),
        "1e-05",
    ),
    # values from 1e16 up are written in exponent notation, some below it
    # in fixed notation
    "huge_value": (
        lambda toy2: dataclasses.replace(toy2[0], terminal_cost=np.array([1e17, 1.0])),
        "e+16",
    ),
    "negative": (
        lambda toy2: dataclasses.replace(
            toy2[0], stage_cost=-toy2[0].stage_cost, terminal_cost=np.array([0.0, -1.0])
        ),
        '"value": -0.',
    ),
}


def _flattened(obj) -> str:
    chunks = []
    _flatten("", obj, chunks.append)
    return "".join(chunks)


@pytest.mark.parametrize("case", list(_VALUE_FUNCTION_MODELS))
def test_value_function_writer_matches_json_dumps(toy2, case):
    build, must_hold = _VALUE_FUNCTION_MODELS[case]
    vf = solve_manager(build(toy2), toy2[1]).value_function
    ref = value_function_reference(vf)
    expected = json.dumps(ref, indent=2, sort_keys=True)
    assert must_hold in expected
    assert _first_difference(_encoded(vf), expected) is None
    nested = json.dumps({"results": {"value_function": ref}}, indent=2, sort_keys=True)
    assert _first_difference(_encoded({"results": {"value_function": vf}}), nested) is None
    csv = _flattened({"results": {"value_function": ref}})
    assert _first_difference(_flattened({"results": {"value_function": vf}}), csv) is None
    if case == "past_block":
        assert len(vf.horizon_stage()[1]) > _BLOCK_ROWS


# the value-function cases and a dense and two pruned T = 3 models
_HORIZON_MODELS = {
    **{case: build for case, (build, _) in _VALUE_FUNCTION_MODELS.items()},
    "dense": lambda toy2: random_model(320, num_states=3, horizon=3),
    "pruned": lambda toy2: random_model(310, num_states=3, horizon=3, positive=False),
    "pruned2": lambda toy2: random_model(311, num_states=3, horizon=3, positive=False),
}


@pytest.mark.parametrize("case", list(_HORIZON_MODELS))
def test_horizon_stage_regenerates_the_solved_horizon(toy2, monkeypatch, case):
    """The value function holds stages 0..T-1 and builds the horizon
    again on request: ``horizon_stage`` of one stage-(T-1) row, three,
    every row and every row shuffled gives, by bytes, those rows'
    children among ``_stage``'s children of the whole last stage, and
    their ``_state_sum`` terminal values, which are the values the solve
    folds block by block whatever its node block.  At horizon 0 the root
    is the horizon and is held."""
    import teamdp.dp
    from teamdp.dp import _solve_tree, _stage, _state_sum

    model = _HORIZON_MODELS[case](toy2)
    vf = solve_manager(model, toy2[1]).value_function
    T = model.horizon
    if not T:
        assert len(vf.beliefs) == len(vf.values) == 1
        with pytest.raises(ValueError, match="horizon 0"):
            vf.horizon_stage()
        return
    assert len(vf.beliefs) == len(vf.values) == len(vf.index) == T
    parents = vf.beliefs[T - 1]
    _, _, index, children = _stage(model, parents, T - 1)
    terminal = _state_sum(children, model.terminal_cost)
    for block in (teamdp.dp._NODE_BLOCK, 1, 3):
        monkeypatch.setattr(teamdp.dp, "_NODE_BLOCK", block)
        folded = _solve_tree(model, model.initial_dist, 0)[2][T]
        assert folded.tobytes() == terminal.tobytes()
    monkeypatch.undo()
    N = len(parents)
    shuffled = np.random.default_rng(T).permutation(N)
    for rows in (shuffled[:1], shuffled[:3], None, shuffled):
        beliefs, values = vf.horizon_stage(rows)
        want = index[slice(None) if rows is None else rows].reshape(-1)
        want = want[want >= 0]
        assert beliefs.shape == (len(want), model.num_states)
        assert beliefs.tobytes() == children[want].tobytes()
        assert values.tobytes() == terminal[want].tobytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_peak_is_blocks_above_the_solution(toy2, fmt):
    """Writing a T = 4 solution (69,905 rows, 65,536 at the horizon)
    peaks, as tracemalloc counts it, a few blocks above what the solve and
    its key check retain, since the horizon is built again for each group
    of parents and no stage is sorted whole: 1.98 MB (JSON) and 2.47 MB
    (CSV) measured, against 2.67 and 3.20 MB when the writer read a held
    horizon through one sort of the whole stage."""
    model = random_model(41, num_states=3, horizon=4, obs_sizes=(2, 2))
    tracemalloc.start()
    try:
        results, diagnostics, _ = _cmd_solve_manager(
            model, toy2[1], argparse.Namespace(node_budget=10**6)
        )
        report = {"metadata": {"command": "solve-manager"}, "results": results}
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _emit(report, argparse.Namespace(format=fmt), _Sink())
        peak = tracemalloc.get_traced_memory()[1] - retained
    finally:
        tracemalloc.stop()
    assert peak < {"json": 2.2, "csv": 2.8}[fmt] * 10**6


@pytest.mark.parametrize("case", list(_VALUE_FUNCTION_MODELS))
def test_value_function_writers_raise_no_warning(toy2, case):
    """The digit kernel's uint64 products wrap silently, and no other
    step of either writer warns."""
    build, _ = _VALUE_FUNCTION_MODELS[case]
    vf = solve_manager(build(toy2), toy2[1]).value_function
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _encoded({"results": {"value_function": vf}})
        _flattened({"results": {"value_function": vf}})


def test_nothing_but_a_key_read_builds_the_horizon_keys(capsys, scenario_path, toy2, monkeypatch):
    """Only the report writer spells history keys, and never a horizon
    key.  Both writers and the solve-manager subcommand write what they
    wrote with ``cli._child_keys`` failing on the last decision stage's
    branches; compare_solutions and the compare, simulate and solve-member
    subcommands write what they wrote with the writer's key builder and
    ``strategies.history_key`` failing, so no manager action is looked up
    by a key."""
    from teamdp import compare_solutions

    vf = solve_manager(*toy2).value_function
    ref = value_function_reference(vf)
    want = [_encoded(vf), _flattened({"value_function": vf})]
    assert want == [
        json.dumps(ref, indent=2, sort_keys=True),
        _flattened({"value_function": ref}),
    ]
    compared = compare_solutions(*toy2)
    writers = [["solve-manager"], ["solve-manager", "--format", "csv"]]
    others = [["compare"], ["simulate", "--samples", "50"], ["solve-member", "--member", "1"]]

    def timeless():  # the report's lines but for the run time, either format
        lines = capsys.readouterr().out.splitlines(keepends=True)
        return [line for line in lines if "wall_time_s" not in line]

    texts = []
    for argv in writers + others:
        assert run([*argv, "--scenario", scenario_path]) == 0
        texts.append(timeless())

    child_keys = teamdp.cli._child_keys
    last = f";u{toy2[0].horizon - 1}="

    def fail(keys, index, suffixes):
        if suffixes[0].startswith(last):
            raise AssertionError("the horizon keys were built")
        return child_keys(keys, index, suffixes)

    monkeypatch.setattr(teamdp.cli, "_child_keys", fail)
    teamdp.cli._keys.cache_clear()
    assert [_encoded(vf), _flattened({"value_function": vf})] == want
    for argv, text in zip(writers, texts):
        assert run([*argv, "--scenario", scenario_path]) == 0
        assert timeless() == text
    assert len(vf.horizon_stage()[1]) == 256
    with pytest.raises(AssertionError, match="horizon keys"):
        teamdp.cli._child_keys(["u0=0,0;y1=0,0"], vf.index[-1], teamdp.cli._branch_suffixes(vf, 1))

    def no_key(*args):
        raise AssertionError("a history key was built")

    monkeypatch.setattr(teamdp.cli, "_branch_suffixes", no_key)
    monkeypatch.setattr("teamdp.strategies.history_key", no_key)
    teamdp.cli._keys.cache_clear()
    assert compare_solutions(*toy2) == compared
    for argv, text in zip(others, texts[len(writers) :]):
        assert run([*argv, "--scenario", scenario_path]) == 0
        assert timeless() == text


def test_solve_manager_writes_nothing_on_stderr(capsys, toy2, tmp_path):
    """A run of the command on a value function of more than one block,
    to a stdout pipe and to --out, writes the whole report before the
    process ends at once: exit 0, the in-process bytes but for the run
    time, and nothing on stderr."""
    argv = ["solve-manager", "--scenario", _past_block_scenario(toy2, tmp_path)]
    assert run(argv) == 0
    want = WALL_TIME.sub("", capsys.readouterr().out)
    out = tmp_path / "report.json"
    # stdout buffered, as it is where PYTHONUNBUFFERED is not set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for options in ([], ["--out", str(out)]):
        proc = subprocess.run(
            [sys.executable, "-m", "teamdp", *argv, *options],
            capture_output=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stderr == b""
        text = (out.read_bytes() if options else proc.stdout).decode()
        json.loads(text)
        assert text.endswith("}\n")
        assert WALL_TIME.sub("", text) == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_solve_manager_keeps_no_keys_after_its_report(capsys, scenario_path, fmt):
    """Once its report is written, an in-process solve-manager run keeps
    neither its value function nor its keys in the writer's key cache."""
    assert run(["solve-manager", "--scenario", scenario_path, "--format", fmt]) == 0
    assert "value_function" in capsys.readouterr().out
    assert teamdp.cli._keys.cache_info().currsize == 0


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch) -> list:
    """Returns the pids of the processes forked from then on."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


# a CSV prefix of multi-byte characters, a lone surrogate, a "%" and a
# NUL, so that every block holds text that UTF-8 writes in more than one
# byte, and template bytes that no field holds, which the row kernel
# must keep
_WIDE_PREFIX = "\u2603\u00e9%\ud800\x00" * 8


# rows per block where a case's value function is cut smaller than
# _BLOCK_ROWS, so that it is more than one block
_SMALL_BLOCKS = {"zero_entry": 64, "huge_value": 1}


def _block_notations(vf, rows: int) -> set:
    """Whether repr writes every float of a block in fixed notation, for
    each block of ``rows`` rows of ``vf`` in its sorted row order."""
    from teamdp import floattext

    found = set()
    for t, stage in enumerate(manager_stages(vf)):
        keys = list(stage)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        beliefs, values = (
            (vf.beliefs[t], vf.values[t]) if t < len(vf.values) else vf.horizon_stage()
        )
        for lo in range(0, len(order), rows):
            block = order[lo : lo + rows]
            b, v = beliefs[block], values[block]
            found.add(floattext.fixed(b) and floattext.fixed(v))
    return found


# the number of processes that render a report table: the ``teamdp``
# process alone, which forks none
_RENDERER_PROCESSES = [1]


@pytest.mark.parametrize("processes", _RENDERER_PROCESSES)
@pytest.mark.parametrize(
    "case", ["past_block", "zero_entry", "huge_value", "last_eleven_obs", "three_members"]
)
def test_renderer_processes_give_the_same_bytes(toy2, monkeypatch, case, processes):
    """Both formats of a value function of several blocks, each rendered
    and written in turn by this process, are the reference's bytes, and
    no renderer is forked.  last_eleven_obs's stage 2 has 7,744 rows,
    with parent keys that are prefixes of others, and three_members's
    9,216, with three argmin columns.  zero_entry's 1,765 rows, pruned branches leaving gaps in the row order, are cut
    into 64-row blocks, so that they are more than one block's rows;
    huge_value's 273 rows are cut into 1-row blocks, of which repr writes
    48 in fixed notation and the others with a value in exponent
    notation, so that digit and repr blocks mix in one stage."""
    build, _ = _VALUE_FUNCTION_MODELS[case]
    vf = solve_manager(build(toy2), toy2[1]).value_function
    if case in _SMALL_BLOCKS:
        monkeypatch.setattr(teamdp.cli, "_BLOCK_ROWS", _SMALL_BLOCKS[case])
    if case == "huge_value":
        assert _block_notations(vf, _SMALL_BLOCKS[case]) == {True, False}
    forked = _count_forks(monkeypatch)
    ref = value_function_reference(vf)
    expected = json.dumps(ref, indent=2, sort_keys=True)
    assert _first_difference(_encoded(vf), expected) is None
    csv = _flattened({_WIDE_PREFIX: ref})
    assert _first_difference(_flattened({_WIDE_PREFIX: vf}), csv) is None
    assert len(forked) == processes - 1
    _assert_no_child_left()


@pytest.mark.parametrize("processes", _RENDERER_PROCESSES)
@pytest.mark.parametrize("case", list(_VALUE_FUNCTION_MODELS))
def test_strategy_table_matches_json_dumps(toy2, monkeypatch, case, processes):
    """solve-manager writes its strategy table from the value function's
    decision keys and argmins, sorted over all stages, with the bytes the
    json module and ``_flatten`` write for the keyed reference's dict of
    every decision node's argmin, in blocks as the defaults cut them and
    in blocks of at most 3 keys and 64 bytes of key text, rendered by
    this process with no renderer forked.  last_eleven_obs has parent keys that are prefixes of others, and
    three_members three action components."""
    build, _ = _VALUE_FUNCTION_MODELS[case]
    model = build(toy2)
    results, _, _ = _cmd_solve_manager(model, toy2[1], argparse.Namespace(node_budget=10**6))
    sol = solve_manager(model, toy2[1])
    stages = manager_stages(sol.value_function)[: model.horizon]
    table = {key: node.argmin for stage in stages for key, node in stage.items()}
    expected = {"strategy": {**sol.strategy.to_json_dict(), "table": table}}
    written = {"strategy": results["strategy"]}
    forked = _count_forks(monkeypatch)
    for cut in ({}, {"_BLOCK_ROWS": 3, "_BLOCK_BYTES": 64}):
        for name, value in cut.items():
            monkeypatch.setattr(teamdp.cli, name, value)
        text = json.dumps(expected, indent=2, sort_keys=True)
        assert _first_difference(_encoded(written), text) is None
        assert _first_difference(_flattened(written), _flattened(expected)) is None
    assert len(forked) == processes - 1
    _assert_no_child_left()


def _answer(strategy, obs_seq, act_seq, t):
    """A team strategy's joint action at a history, or its refusal's text."""
    try:
        return strategy.joint_action(obs_seq, act_seq, t)
    except StrategyUndefinedError as e:
        return str(e)


@pytest.mark.parametrize("case", list(_VALUE_FUNCTION_MODELS))
def test_separated_strategy_answers_as_a_keyed_table(toy2, case):
    """The manager strategy's walk answers as a table keyed by
    ``model.history_key`` of every decision node's history: on the tree,
    with one label of an on-tree prefix changed to another in its range,
    past it or below zero, and at the horizon, each gives the same joint
    action or refuses with the same text.  A prefix whose length is not
    t is refused too."""
    model = _VALUE_FUNCTION_MODELS[case][0](toy2)
    mgr = solve_manager(model, toy2[1])
    vf, T = mgr.value_function, model.horizon
    table = {
        key: node.argmin for stage in manager_stages(vf)[:T] for key, node in stage.items()
    }
    keyed = CentralizedTableStrategy(model, table)
    stages = [stage for stage in manager_histories(vf) if stage]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        stage = data.draw(st.sampled_from(stages))
        obs_seq, act_seq = data.draw(st.sampled_from(stage))
        t = len(act_seq)
        change = data.draw(st.sampled_from(["none", "in_range", "past", "negative"]))
        if t and change != "none":
            s, k = data.draw(st.integers(0, t - 1)), data.draw(st.integers(0, model.num_members - 1))
            on_obs = data.draw(st.booleans())
            labels = obs_seq if on_obs else act_seq
            size = (model.observation_sizes if on_obs else model.action_sizes)[k]
            label = data.draw(
                {
                    "in_range": st.integers(0, size - 1),
                    "past": st.integers(size, size + 2),
                    "negative": st.integers(-3, -1),
                }[change]
            )
            changed = labels[s][:k] + (label,) + labels[s][k + 1 :]
            changed = labels[:s] + (changed,) + labels[s + 1 :]
            obs_seq, act_seq = (changed, act_seq) if on_obs else (obs_seq, changed)
        got = _answer(mgr.strategy, obs_seq, act_seq, t)
        assert got == _answer(keyed, obs_seq, act_seq, t)
        assert (t == T) <= isinstance(got, str)
        refusal = f"no action for history {history_key(act_seq, obs_seq)!r} at t={t + 1}"
        assert _answer(mgr.strategy, obs_seq, act_seq, t + 1) == refusal

    check()


def test_solve_manager_builds_its_keys_once(capsys, toy2, tmp_path, monkeypatch):
    """solve-manager spells each decision stage's keys once per report,
    in either format: on a T = 3 tree the child-key builder runs twice
    (stage 0's key is ""), for the key check and both tables."""
    argv = ["solve-manager", "--scenario", _past_block_scenario(toy2, tmp_path)]
    child_keys = teamdp.cli._child_keys
    calls = []

    def counted(keys, index, suffixes):
        calls.append(suffixes[0])
        return child_keys(keys, index, suffixes)

    monkeypatch.setattr(teamdp.cli, "_child_keys", counted)
    for fmt in ("json", "csv"):
        calls.clear()
        assert run([*argv, "--format", fmt]) == 0
        assert [suffix.partition("=")[0] for suffix in calls] == ["u0", ";u1"]
    capsys.readouterr()


class _Sink:
    """An output that keeps only the length and line count of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text: str) -> None:
        self.writes.append((len(text), text.count("\n")))


def test_csv_value_function_is_written_block_by_block(toy2):
    """The CSV of a value function larger than one block goes out one
    block at a time, so the memory it takes stays below its own size."""
    vf = solve_manager(random_model(332, horizon=3, obs_sizes=(2, 3)), toy2[1]).value_function
    report = {"metadata": {"command": "solve-manager"}, "results": {"value_function": vf}}
    sink = _Sink()
    tracemalloc.start()
    try:
        _emit(report, argparse.Namespace(format="csv"), sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = sum(size for size, _ in sink.writes)
    # one line per leaf: the argmin components, the belief and the value
    leaves = len(vf.actions[0]) + vf.beliefs[0].shape[1] + 1
    assert len(sink.writes) > 1
    assert max(lines for _, lines in sink.writes) <= _BLOCK_ROWS * leaves
    assert peak < written


@pytest.mark.slow
def test_json_report_is_written_chunk_by_chunk():
    """The JSON report of a long chain (K = 1, S = 1, T = 1,000: 13.8 MB,
    history keys up to 14 KB) goes out one encoder chunk or value-function
    block at a time, so no write holds two history keys and the memory it
    takes stays below a tenth of its own size (a writer that buffers the
    strategy table peaks above the whole report)."""
    model = random_model(
        0, num_members=1, num_states=1, horizon=1000, obs_sizes=(1,), action_sizes=(1,)
    )
    structure = InformationStructure("delayed_sharing", delays=(1,))
    results, diagnostics, _ = _cmd_solve_manager(
        model, structure, argparse.Namespace(node_budget=2000)
    )
    report = {
        "metadata": {"command": "solve-manager"},
        "results": results,
        "diagnostics": diagnostics,
    }
    longest_key = max(map(len, manager_stages(results["value_function"])[-1]))
    sink = _Sink()
    tracemalloc.start()
    try:
        _emit(report, argparse.Namespace(format="json"), sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = sum(size for size, _ in sink.writes)
    assert written > 10**7
    assert len(sink.writes) > 2 * model.horizon  # a table entry and a stage each
    assert max(size for size, _ in sink.writes) < 2 * longest_key
    assert peak < written / 10


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--scenario", "SCENARIO"],
        ["solve-manager", "--scenario", "SCENARIO"],
        ["solve-member", "--scenario", "SCENARIO", "--member", "1"],
        ["oracle-centralized", "--scenario", "SCENARIO"],
        ["oracle-decentralized", "--scenario", "SCENARIO"],
        ["compare", "--scenario", "SCENARIO"],
        ["simulate", "--scenario", "SCENARIO", "--samples", "50"],
        ["gaussian-example", "--samples", "100", "--grid", "0:2:0.5,0:1:0.5,-1:0:0.5"],
        ["validate", "--scenario", "BAD"],
        ["solve-manager", "--scenario", "BAD"],
        ["solve-manager", "--scenario", "SCENARIO", "--node-budget", "3"],
        ["validate", "--scenario", "MISSING"],
        ["validate"],
        ["no-such-command"],
        ["gaussian-example", "--grid", "0:1"],
    ],
)
def test_reports_are_written_as_json_dumps_writes_them(
    capsys, scenario_path, bad_numbers_path, tmp_path, argv
):
    paths = {"SCENARIO": scenario_path, "BAD": bad_numbers_path, "MISSING": str(tmp_path / "x")}
    _, report, text = invoke(capsys, [paths.get(a, a) for a in argv])
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# determinism and plumbing


def test_reports_byte_identical_up_to_wall_time(capsys, scenario_path):
    _, _, first = invoke(capsys, ["solve-manager", "--scenario", scenario_path])
    _, _, second = invoke(capsys, ["solve-manager", "--scenario", scenario_path])
    assert WALL_TIME.search(first)
    assert WALL_TIME.sub("", first) == WALL_TIME.sub("", second)


def test_out_file_matches_stdout(capsys, scenario_path, tmp_path):
    _, _, stdout_text = invoke(capsys, ["validate", "--scenario", scenario_path])
    out = tmp_path / "report.json"
    code = run(["validate", "--scenario", scenario_path, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert WALL_TIME.sub("", out.read_text()) == WALL_TIME.sub("", stdout_text)


# lines left out of a pinned report: the run time and the scenario path
_UNPINNED = re.compile(
    r'^(\s*"wall_time_s": |\s*"scenario": '
    r"|diagnostics\.wall_time_s,|metadata\.arguments\.scenario,)"
)

# sha256 of the pinned lines of solve-manager reports, taken from the
# reports written before the value function was emitted from its stage
# arrays, and of compare reports, taken from the reports written before
# compare_solutions joined the member and manager stage arrays
_PINNED_REPORTS = {
    ("solve-manager", "toy2", "json"): "7f63df11cf5d5fe5c65c68a81bc22309a0e82eca717f3a6ca7e0f40f008486e1",
    ("solve-manager", "toy2", "csv"): "eaaf724b259c5d5ef41c0a27cc691e2feb3e60625b552d2ccbfb8e6834b2f08f",
    ("solve-manager", "zero_entry", "json"): "f8c609d24038b1b4c54961c67884858a547602edd0f3e07a7bfd1fba7390a605",
    ("solve-manager", "zero_entry", "csv"): "241963d2172c9d37ef302cdb31dc76813af0e912d54354e7710c30d744bc12e1",
    ("compare", "toy2", "json"): "55a38d5fd625f9339d09def2974f0d3054edfd4b1da31d6f03a8d4f54c5e95b3",
    ("compare", "toy2", "csv"): "18258d3997091f80b56d485090ea83d80d50ff6f226796a3d30a8a9ee1ed67d0",
    ("compare", "zero_entry", "json"): "fbb0f55d82951f007f7d798b1a007a7ca9bb589988ec809eccc11521324f83d7",
    ("compare", "zero_entry", "csv"): "ec40f3cbc2dfc00622b1f9b56a0d00dc205c1fefd7139dd14d1dcdbe585140d2",
}


# test ids: toy2-json for solve-manager, compare-toy2-json for compare
_PINNED_IDS = [
    "-".join(case[1:] if case[0] == "solve-manager" else case) for case in sorted(_PINNED_REPORTS)
]


@pytest.mark.parametrize("command, instance, fmt", sorted(_PINNED_REPORTS), ids=_PINNED_IDS)
def test_solve_manager_report_bytes_are_pinned(
    capsys, scenario_path, toy2, tmp_path, command, instance, fmt
):
    """The bytes of solve-manager and compare reports, both formats, but
    for the run time and the scenario path."""
    path = scenario_path
    if instance == "zero_entry":
        model = random_model(310, num_states=3, horizon=2, positive=False)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(scenario_to_dict(model, toy2[1])))
    assert run([command, "--scenario", str(path), "--format", fmt]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    pinned = "".join(line for line in lines if not _UNPINNED.match(line))
    assert len(lines) - pinned.count("\n") == 2
    assert hashlib.sha256(pinned.encode()).hexdigest() == _PINNED_REPORTS[command, instance, fmt]


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_out_is_a_usage_error(capsys, scenario_path, tmp_path, target):
    """An --out that cannot be opened is refused before the scenario is
    read: one report on stdout, one usage line on stderr, exit 64."""
    out = tmp_path / "missing" / "r.json" if target == "missing_directory" else tmp_path
    code = run(["solve-manager", "--scenario", scenario_path, "--out", str(out)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    jsonschema.validate(report, load_schema("report"))
    assert code == 64
    assert report["error"]["type"] == "UsageError"
    assert report["error"]["message"].startswith("cannot open --out: ")
    assert report["metadata"]["scenario_sha256"] is None
    assert captured.err == f"usage error: {report['error']['message']}\n"
    assert not (tmp_path / "missing").exists()


class _FullDisk(io.StringIO):
    """An --out file on a full disk: ``write`` or ``close`` fails with ENOSPC."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def _full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text: str) -> int:
        if self.failing == "write":
            self._full()
        return super().write(text)

    def close(self) -> None:
        super().close()
        if self.failing == "close":
            self._full()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("failing", ["write", "close"])
def test_failed_out_write_is_a_usage_error(
    capsys, monkeypatch, scenario_path, tmp_path, fmt, failing
):
    """An --out whose write or close fails gives one usage-error report
    on stdout, one usage line on stderr and exit 64."""
    monkeypatch.setattr("teamdp.cli.open", lambda path, mode: _FullDisk(failing), raising=False)
    out = str(tmp_path / "r.txt")
    code = run(["solve-manager", "--scenario", scenario_path, "--out", out, "--format", fmt])
    captured = capsys.readouterr()
    message = f"cannot write --out: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert code == 64
    assert captured.err == f"usage error: {message}\n"
    if fmt == "json":
        report = json.loads(captured.out)
        jsonschema.validate(report, load_schema("report"))
        assert report["error"] == {"type": "UsageError", "message": message}
    else:
        lines = captured.out.splitlines()
        assert lines[0] == "key,value"
        assert 'error.type,"UsageError"' in lines
        assert f"error.message,{json.dumps(message)}" in lines


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_out_on_a_full_device_is_a_usage_error(capsys, scenario_path):
    code = run(["solve-manager", "--scenario", scenario_path, "--out", "/dev/full"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 64
    assert report["error"]["message"].startswith("cannot write --out: ")
    assert captured.err == f"usage error: {report['error']['message']}\n"


def _unwritable_stdout(target: str):
    """A write end for a child's stdout that fails, and the reason the
    child should give: /dev/full, or a pipe whose read end is closed
    before the child starts, so every write fails, with no race."""
    if target == "full_device":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs the /dev/full device")
        return os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end, errno.EPIPE


def _past_block_scenario(toy2, tmp_path) -> str:
    """A scenario whose value function is more than one block: stage 3
    has 13,824 rows."""
    path = tmp_path / "past_block.json"
    model = random_model(332, horizon=3, obs_sizes=(2, 3))
    path.write_text(json.dumps(scenario_to_dict(model, toy2[1])))
    return str(path)


@pytest.mark.parametrize("report", ["normal", "unparsable", "out_error", "multi_block"])
@pytest.mark.parametrize("target", ["full_device", "closed_pipe"])
def test_unwritable_stdout_is_a_usage_error(toy2, scenario_path, tmp_path, target, report):
    """A stdout that cannot be written gives exit 64 and one usage line
    on stderr, with no traceback and no process left behind, whether the
    report is the normal one, the usage-error report of an argv that does
    not parse, that of an --out that cannot be opened, or a solve-manager
    report whose value function is more than one block."""
    argv = {
        "normal": ["validate", "--scenario", scenario_path],
        "unparsable": ["no-such-command"],
        "out_error": ["validate", "--scenario", scenario_path, "--out", str(tmp_path / "no" / "r")],
        "multi_block": ["solve-manager", "--scenario", _past_block_scenario(toy2, tmp_path)],
    }[report]
    stdout, err = _unwritable_stdout(target)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "teamdp", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 64
    assert proc.stderr == f"usage error: cannot write stdout: [Errno {err}] {os.strerror(err)}\n"
    _assert_no_child_left()


def test_stdout_closed_mid_value_function_is_a_usage_error(toy2, tmp_path):
    """A reader that goes away while the value function is being written
    gives exit 64 and one usage line on stderr, and the stderr pipe
    reaches its end."""
    argv = ["solve-manager", "--scenario", _past_block_scenario(toy2, tmp_path)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "teamdp", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        head = proc.stdout.read(2**20)  # of 4.1 MB; the value function starts at 46 KB
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert b'"value_function": {' in head
    assert proc.returncode == 64
    err = errno.EPIPE
    assert stderr.decode() == f"usage error: cannot write stdout: [Errno {err}] {os.strerror(err)}\n"
    _assert_no_child_left()


@pytest.mark.parametrize(
    "command, stream, stdout, code",
    [
        ("validate", "stdout_closed", "pipe", 64),
        ("validate --out", "stdout_closed", "pipe", 0),
        ("validate", "stderr_closed", "pipe", 0),
        ("no-such-command", "stderr_closed", "pipe", 64),
        ("no-such-command", "stderr_read_only", "pipe", 64),
        ("validate", "stderr_closed", "full_device", 64),
        ("validate", "stderr_read_only", "full_device", 64),
    ],
)
def test_closed_standard_streams_keep_the_exit_contract(
    scenario_path, tmp_path, command, stream, stdout, code
):
    """A standard stream closed before the command starts.  A closed
    stdout is one that cannot be written (exit 64, one usage line on
    stderr) unless the report goes to --out.  A stderr that is closed, or
    open for reading only, is not written to and changes no exit code,
    also when stdout fails.  Where stdout is open it holds exactly one
    JSON report."""
    out = tmp_path / "report.json"
    argv = {
        "validate": ["validate", "--scenario", scenario_path],
        "validate --out": ["validate", "--scenario", scenario_path, "--out", str(out)],
        "no-such-command": ["no-such-command"],
    }[command]
    closed = {"stdout_closed": 1, "stderr_closed": 2}.get(stream)
    stderr = os.open(os.devnull, os.O_RDONLY) if stream == "stderr_read_only" else subprocess.PIPE
    target = _unwritable_stdout(stdout)[0] if stdout == "full_device" else subprocess.PIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "teamdp", *argv],
            stdout=target,
            stderr=stderr,
            preexec_fn=None if closed is None else lambda: os.close(closed),
            timeout=120,
        )
    finally:
        for fd in (target, stderr):
            if fd != subprocess.PIPE:
                os.close(fd)
    assert proc.returncode == code
    if closed == 1:
        err = errno.EBADF
        told = f"usage error: cannot write stdout: [Errno {err}] {os.strerror(err)}\n"
        assert proc.stderr.decode() == (told if code == 64 else "")
        assert proc.stdout == b""
    elif stdout == "pipe":
        json.loads(proc.stdout)  # one report and nothing else
    if command == "validate --out":
        assert json.loads(out.read_text())["results"]["valid"] is True


@pytest.mark.parametrize("spelling", ["same", "dotted", "hard_link"])
def test_out_naming_the_scenario_is_a_usage_error(capsys, scenario_path, tmp_path, spelling):
    """An --out that names the --scenario file, however spelled, is
    refused before it is opened, so the scenario is left as it was."""
    with open(scenario_path, "rb") as f:
        before = f.read()
    out = scenario_path
    if spelling == "dotted":
        out = os.path.join(os.path.dirname(scenario_path), ".", os.path.basename(scenario_path))
    elif spelling == "hard_link":
        out = str(tmp_path / "alias.json")
        os.link(scenario_path, out)
    code = run(["validate", "--scenario", scenario_path, "--out", out])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    jsonschema.validate(report, load_schema("report"))
    assert code == 64
    assert report["error"] == {"type": "UsageError", "message": "--out names the --scenario file"}
    assert report["metadata"]["scenario_sha256"] is None
    assert captured.err == "usage error: --out names the --scenario file\n"
    with open(scenario_path, "rb") as f:
        assert f.read() == before


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(mutated_scenarios() | st.sampled_from([[], "x", None, 3, [SCENARIO_DOCUMENTS[0]]]))
def test_validate_on_mutated_scenarios(fuzz_dir, doc):
    """Every mutated scenario gives one schema-valid report, a contracted
    exit code, and nothing on stderr."""
    path = fuzz_dir / "mutated.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["validate", "--scenario", str(path)])
    report = json.loads(out.getvalue())
    jsonschema.validate(report, load_schema("report"))
    assert code in (0, 2, 4)
    assert err.getvalue() == ""
    if code == 4:
        assert report["error"]["type"] == "ScenarioFormatError"
    else:
        assert report["results"]["valid"] is (code == 0)


def test_csv_format(capsys, scenario_path):
    code = run(["gaussian-example", "--samples", "100", "--grid", "0:2:0.5,0:1:0.5,-1:0:0.5"])
    capsys.readouterr()
    code = run(
        [
            "gaussian-example",
            "--samples",
            "100",
            "--grid",
            "0:2:0.5,0:1:0.5,-1:0:0.5",
            "--format",
            "csv",
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert text.startswith("covariance,first_gain,cost\n")
    assert len(text.splitlines()) == 1 + 2 * 5  # header + both signs x 5 grid points
    code = run(["validate", "--scenario", scenario_path, "--format", "csv"])
    text = capsys.readouterr().out
    assert code == 0
    assert text.startswith("key,value\n")
    assert "results.valid,true" in text


def test_module_entry_point(scenario_path):
    proc = subprocess.run(
        [sys.executable, "-m", "teamdp", "validate", "--scenario", scenario_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["valid"] is True
