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
    manager_stages,
    mutated_scenarios,
    random_model,
    value_function_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import teamdp.cli
from teamdp import InformationStructure, load_schema, scenario_to_dict, solve_manager
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
    import teamdp.dp

    suffixes = teamdp.dp._branch_suffixes

    def quoted(model, t):
        texts = suffixes(model, t)
        return texts if t < model.horizon - 1 else texts[:-1] + [texts[-1] + '"']

    monkeypatch.setattr(teamdp.dp, "_branch_suffixes", quoted)
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
        assert max(map(len, vf.values)) > _BLOCK_ROWS


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
    """Both writers, compare_solutions, and the solve-manager, simulate
    and solve-member subcommands build no horizon key: with
    ``dp._child_keys`` failing on the last decision stage's branches they
    write what they wrote without it, and the keyed reference, which
    builds the horizon keys, fails."""
    import teamdp.dp
    from teamdp import compare_solutions

    vf = solve_manager(*toy2).value_function
    ref = value_function_reference(vf)
    want = [_encoded(vf), _flattened({"value_function": vf}), compare_solutions(*toy2)]
    assert want[:2] == [
        json.dumps(ref, indent=2, sort_keys=True),
        _flattened({"value_function": ref}),
    ]
    argvs = [
        ["solve-manager"],
        ["solve-manager", "--format", "csv"],
        ["simulate", "--samples", "50"],
        ["solve-member", "--member", "1"],
    ]

    def timeless():  # the report's lines but for the run time, either format
        lines = capsys.readouterr().out.splitlines(keepends=True)
        return [line for line in lines if "wall_time_s" not in line]

    texts = []
    for argv in argvs:
        assert run([*argv, "--scenario", scenario_path]) == 0
        texts.append(timeless())

    child_keys = teamdp.dp._child_keys
    last = f";u{toy2[0].horizon - 1}="

    def fail(keys, index, suffixes):
        if suffixes[0].startswith(last):
            raise AssertionError("the horizon keys were built")
        return child_keys(keys, index, suffixes)

    monkeypatch.setattr(teamdp.dp, "_child_keys", fail)
    assert [_encoded(vf), _flattened({"value_function": vf}), compare_solutions(*toy2)] == want
    for argv, text in zip(argvs, texts):
        assert run([*argv, "--scenario", scenario_path]) == 0
        assert timeless() == text
    assert len(vf.values[-1]) == 256
    with pytest.raises(AssertionError, match="horizon keys"):
        manager_stages(vf)


def test_solve_manager_writes_nothing_on_stderr(toy2, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "teamdp", "solve-manager", "--scenario",
         _past_block_scenario(toy2, tmp_path), "--out", str(tmp_path / "report.json")],
        capture_output=True, check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""


def _use_renderers(monkeypatch, processes: int) -> list:
    """Make the CPU count ``processes``, so that ``processes`` processes
    render a value function of more than one block; returns the pids of
    the renderers forked from then on."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)), raising=False)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a CSV prefix of multi-byte characters, a lone surrogate and a "%", so
# that frames cut characters wherever they are read
_WIDE_PREFIX = "\u2603\u00e9%\ud800" * 8


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
        for lo in range(0, len(order), rows):
            block = order[lo : lo + rows]
            b, v = vf.beliefs[t][block], vf.values[t][block]
            found.add(floattext.fixed(b) and floattext.fixed(v))
    return found


@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("case", ["past_block", "zero_entry", "huge_value", "last_eleven_obs"])
def test_renderer_processes_give_the_same_bytes(toy2, monkeypatch, case, processes):
    """Both formats of a value function are the same bytes whatever the
    number of renderer processes.  last_eleven_obs's stage 2 has 7,744
    rows, with parent keys that are prefixes of others.  zero_entry's
    1,765 rows, pruned branches leaving gaps in the row order, are cut
    into 64-row blocks, so that they are more than one block's rows and
    go to renderers too; huge_value's 273 rows are cut into 1-row blocks, of which repr
    writes 48 in fixed notation and the others with a value in exponent
    notation, so that digit and repr blocks mix across renderers."""
    build, _ = _VALUE_FUNCTION_MODELS[case]
    vf = solve_manager(build(toy2), toy2[1]).value_function
    if case in _SMALL_BLOCKS:
        monkeypatch.setattr(teamdp.cli, "_BLOCK_ROWS", _SMALL_BLOCKS[case])
    if case == "huge_value":
        assert _block_notations(vf, _SMALL_BLOCKS[case]) == {True, False}
    forked = _use_renderers(monkeypatch, processes)
    ref = value_function_reference(vf)
    expected = json.dumps(ref, indent=2, sort_keys=True)
    assert _first_difference(_encoded(vf), expected) is None
    csv = _flattened({_WIDE_PREFIX: ref})
    assert _first_difference(_flattened({_WIDE_PREFIX: vf}), csv) is None
    assert len(forked) == 2 * (processes - 1)
    _assert_no_child_left()


@pytest.mark.parametrize("death", ["after_first_frame", "mid_frame"])
def test_a_dead_renderer_leaves_the_bytes_unchanged(toy2, monkeypatch, death):
    """Renderers that die after their first frame, or 1,000 bytes into
    it, leave the bytes as they were: this process renders that block and
    every later one itself, and reaps every renderer."""
    vf = solve_manager(random_model(332, horizon=3, obs_sizes=(2, 3)), toy2[1]).value_function
    forked = _use_renderers(monkeypatch, 3)
    send = teamdp.cli._send

    def send_then_die(fd, data):
        if death == "after_first_frame":
            send(fd, data)
        else:
            os.write(fd, len(data).to_bytes(8, "little") + data[:1000])
        os._exit(0)

    monkeypatch.setattr(teamdp.cli, "_send", send_then_die)
    ref = value_function_reference(vf)
    expected = json.dumps(ref, indent=2, sort_keys=True)
    assert _first_difference(_encoded(vf), expected) is None
    csv = _flattened({"value_function": ref})
    assert _first_difference(_flattened({"value_function": vf}), csv) is None
    assert len(forked) == 4
    _assert_no_child_left()


@pytest.mark.parametrize(
    "error",
    [OSError(errno.EPIPE, os.strerror(errno.EPIPE)), ValueError("I/O operation on closed file.")],
    ids=["broken_pipe", "closed_file"],
)
def test_a_failed_write_reaps_every_renderer(toy2, monkeypatch, error):
    """A write that fails while renderers run, each blocked on a full
    pipe by then, raises its error once every renderer is reaped."""
    vf = solve_manager(random_model(332, horizon=3, obs_sizes=(2, 3)), toy2[1]).value_function
    forked = _use_renderers(monkeypatch, 3)
    blocks = []

    def write(text):
        if len(text) > 10**5:  # a block of stage 2 or 3
            blocks.append(len(text))
            if len(blocks) == 2:
                raise error

    with pytest.raises(type(error)):
        _encode(vf, write)
    assert len(forked) == 2
    _assert_no_child_left()


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
    """A reader that goes away while the value function is being written,
    renderers running, gives exit 64 and one usage line on stderr; the
    stderr pipe reaches its end, so no renderer outlives the run."""
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
