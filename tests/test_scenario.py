"""Scenario document round-trips and failure modes, and the schema check
against ``jsonschema``."""

import copy
import json

import numpy as np
import pytest
from conftest import SCENARIO_DOCUMENTS, mutated_scenarios
from hypothesis import given, settings
from jsonschema import Draft202012Validator

from teamdp import (
    InvariantError,
    ScenarioFormatError,
    load_scenario,
    load_schema,
    scenario_from_dict,
    scenario_to_dict,
    validate_model,
)
from teamdp.scenario import _schema_errors


def test_round_trip_preserves_everything(toy2, tmp_path):
    model, structure = toy2
    doc = scenario_to_dict(model, structure, name="toy", description="round trip probe")
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    model2, structure2 = load_scenario(path)
    assert structure2 == structure
    assert model2.states == model.states
    assert model2.actions == model.actions
    assert model2.observations == model.observations
    np.testing.assert_array_equal(model2.initial_dist, model.initial_dist)
    np.testing.assert_array_equal(model2.transition, model.transition)
    np.testing.assert_array_equal(model2.stage_cost, model.stage_cost)
    np.testing.assert_array_equal(model2.terminal_cost, model.terminal_cost)
    for a, b in zip(model2.observation_kernels, model.observation_kernels):
        np.testing.assert_array_equal(a, b)
    validate_model(model2)
    # a second serialization is byte-identical
    assert json.dumps(scenario_to_dict(model2, structure2, name="toy", description="round trip probe"), sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_all_structure_variants_round_trip(toy2):
    from teamdp import InformationStructure

    model, _ = toy2
    variants = [
        InformationStructure("delayed_sharing", delays=(1, 2)),
        InformationStructure("periodic_sharing", period=2),
        InformationStructure("delayed_observation_sharing", delays=(1, 1)),
        InformationStructure("delayed_control_sharing", delays=(2, 1)),
        InformationStructure("no_sharing"),
    ]
    for structure in variants:
        doc = scenario_to_dict(model, structure)
        _, structure2 = scenario_from_dict(doc)
        assert structure2 == structure


def test_missing_field_is_reported_with_its_path(toy2):
    model, structure = toy2
    doc = scenario_to_dict(model, structure)
    del doc["transition"]
    with pytest.raises(ScenarioFormatError, match="schema violation"):
        scenario_from_dict(doc)


def test_unknown_field_rejected(toy2):
    model, structure = toy2
    doc = scenario_to_dict(model, structure)
    doc["discount"] = 0.9
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_unknown_variant_rejected(toy2):
    model, structure = toy2
    doc = scenario_to_dict(model, structure)
    doc["information_structure"] = {"variant": "telepathy"}
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_ragged_arrays_rejected(toy2):
    model, structure = toy2
    doc = scenario_to_dict(model, structure)
    doc["transition"][0][0] = [1.0]  # row with the wrong length
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ScenarioFormatError):
        load_scenario(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        load_scenario(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioFormatError):
        load_scenario(arr)


# ---------------------------------------------------------------------------
# the schema check against jsonschema, its reference


_REFERENCE = Draft202012Validator(load_schema("scenario"))


def _reference_errors(doc) -> list:
    return [(tuple(e.absolute_path), e.message) for e in _REFERENCE.iter_errors(doc)]


def _reference_text(doc):
    """The ScenarioFormatError text of jsonschema's first error by path,
    or None for a document jsonschema accepts."""
    errors = sorted(_REFERENCE.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    where = "/".join(map(str, errors[0].absolute_path)) or "<root>"
    return f"scenario schema violation at {where}: {errors[0].message}"


def _schema_text(doc):
    try:
        scenario_from_dict(doc)
    except ScenarioFormatError as e:
        if str(e).startswith("scenario schema violation"):
            return str(e)
    return None


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(mutated_scenarios())
def test_schema_check_matches_jsonschema(doc):
    assert list(_schema_errors(doc, load_schema("scenario"))) == _reference_errors(doc)
    assert _schema_text(doc) == _reference_text(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("transition"),
        lambda d: d.update(discount=0.9, alpha=1),
        lambda d: d["information_structure"].pop("variant"),
        lambda d: d["information_structure"].update(delays=[1, 1], extra=True, more=None),
        lambda d: d.update(horizon=True),
        lambda d: d.update(horizon=2.0),
        lambda d: d.update(num_members=0.5),
        lambda d: d["initial_dist"].__setitem__(0, True),
        lambda d: d["initial_dist"].__setitem__(0, float("nan")),
        lambda d: d.update(terminal_cost=[]),
        lambda d: d.update(states=[]),
        lambda d: d["information_structure"].update(variant="telepathy"),
        lambda d: d["information_structure"].update(delays=[1.5, 0]),
        lambda d: d["information_structure"].update(delays=[1.0, 2]),
        lambda d: d["information_structure"].update(period=0),
        lambda d: d["actions"].__setitem__(1, [None, [1]]),
        lambda d: d.update(name=1, description=None),
        lambda d: None,
    ],
)
def test_schema_check_matches_jsonschema_on_edge_cases(edit):
    doc = copy.deepcopy(SCENARIO_DOCUMENTS[0])
    edit(doc)
    assert list(_schema_errors(doc, load_schema("scenario"))) == _reference_errors(doc)
    assert _schema_text(doc) == _reference_text(doc)


@pytest.mark.parametrize("doc", [[], [SCENARIO_DOCUMENTS[0]], "x", None, 3, 2.5, True])
def test_schema_check_of_a_non_object(doc):
    text = _reference_text(doc)
    assert text.startswith("scenario schema violation at <root>: ")
    with pytest.raises(ScenarioFormatError) as e:
        scenario_from_dict(doc)
    assert str(e.value) == text


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "maxItems": 3},
        {"properties": {"a": {"items": {"pattern": "x"}}}},
        {"$defs": {"v": {"uniqueItems": True}}},
        {"additionalProperties": {"type": "string"}},
        {"$ref": "other.json#/v"},
        {"items": {"type": ["string", "boolean"]}},
    ],
)
def test_schema_check_refuses_unknown_keywords(schema):
    # refused before any instance is looked at, even where none reaches
    with pytest.raises(InvariantError, match="unsupported schema keywords"):
        _schema_errors({}, schema)
