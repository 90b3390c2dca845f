"""Scenario files: one JSON document describing a team model and its
information structure.

Layout (see ``schemas/scenario.schema.json`` for the authoritative
schema):

* ``states`` is a flat label list; ``actions`` and ``observations`` hold
  one label list per member;
* ``transition`` is indexed ``[x][joint_u][x']`` with the joint action
  flattened row-major in member order (member K varies fastest);
* ``observation_kernels`` is indexed ``[member][x][y]``;
* ``stage_cost`` is indexed ``[t][x][joint_u]``; ``terminal_cost`` by x;
* ``information_structure`` carries ``variant`` plus ``delays`` (delayed
  variants) or ``period`` (periodic sharing).

Structural problems (bad JSON, schema violations, ragged arrays) raise
:class:`ScenarioFormatError`; numeric invariants such as rows summing to
one are the business of :func:`teamdp.model.validate_model`.

The schema check is a small interpreter of the shipped schema file, which
stays the single source of truth.  It knows exactly the keywords that file
uses (``type`` over ``object``, ``array``, ``string``, ``number`` and
``integer``, ``required``, ``additionalProperties: false``,
``properties``, ``items``, ``minItems``, ``minimum``, ``enum`` and local
``$ref``), skips the annotations ``$schema``, ``$id``, ``$defs`` and
``title``, and refuses a schema holding anything else.  Like a JSON
Schema 2020-12 validator it walks each schema's keywords in file order, so
its violations come in the order ``jsonschema`` yields them, with
``jsonschema``'s message texts and type rules (a bool is not a number; an
integral float such as ``1.0`` is an integer).  The violation reported is
the first one with the smallest instance path.  ``jsonschema`` itself is
needed only by the tests, which hold the two to the same texts.
"""

from __future__ import annotations

import json
import numbers
from importlib import resources

import numpy as np

from .errors import InvariantError, ScenarioFormatError
from .model import InformationStructure, TeamModel

__all__ = [
    "load_schema",
    "load_scenario",
    "read_scenario",
    "scenario_from_bytes",
    "scenario_from_dict",
    "scenario_to_dict",
]

_SCHEMAS = {}


def load_schema(name: str) -> dict:
    """Load a schema shipped with the package ("scenario" or "report")."""
    if name not in _SCHEMAS:
        path = resources.files("teamdp").joinpath("schemas", f"{name}.schema.json")
        _SCHEMAS[name] = json.loads(path.read_text())
    return _SCHEMAS[name]


# ---------------------------------------------------------------------------
# the schema check


def _is_number(o) -> bool:
    return not isinstance(o, bool) and isinstance(o, numbers.Number)


_TYPES = {
    "object": lambda o: isinstance(o, dict),
    "array": lambda o: isinstance(o, list),
    "string": lambda o: isinstance(o, str),
    "number": _is_number,
    "integer": lambda o: (isinstance(o, int) and not isinstance(o, bool))
    or (isinstance(o, float) and o.is_integer()),
}


def _type_names(types) -> list:
    return [types] if isinstance(types, str) else types


def _type(instance, types, schema, root, path):
    types = _type_names(types)
    if not any(_TYPES[t](instance) for t in types):
        yield path, f"{instance!r} is not of type {', '.join(map(repr, types))}"


def _required(instance, names, schema, root, path):
    if isinstance(instance, dict):
        for name in names:
            if name not in instance:
                yield path, f"{name!r} is a required property"


def _additional_properties(instance, allowed, schema, root, path):
    if isinstance(instance, dict):
        extras = sorted((k for k in instance if k not in schema.get("properties", {})), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(map(repr, extras))
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _properties(instance, properties, schema, root, path):
    if isinstance(instance, dict):
        for name, subschema in properties.items():
            if name in instance:
                yield from _errors(instance[name], subschema, root, path + (name,))


def _items(instance, subschema, schema, root, path):
    if isinstance(instance, list):
        for i, item in enumerate(instance):
            yield from _errors(item, subschema, root, path + (i,))


def _min_items(instance, least, schema, root, path):
    if isinstance(instance, list) and len(instance) < least:
        yield path, f"{instance!r} {'should be non-empty' if least == 1 else 'is too short'}"


def _minimum(instance, least, schema, root, path):
    if _is_number(instance) and instance < least:
        yield path, f"{instance!r} is less than the minimum of {least!r}"


def _enum(instance, choices, schema, root, path):
    if instance not in choices:
        yield path, f"{instance!r} is not one of {choices!r}"


def _ref(instance, ref, schema, root, path):
    target = root
    for part in ref[2:].split("/"):
        target = target[part]
    yield from _errors(instance, target, root, path)


_KEYWORDS = {
    "type": _type,
    "required": _required,
    "additionalProperties": _additional_properties,
    "properties": _properties,
    "items": _items,
    "minItems": _min_items,
    "minimum": _minimum,
    "enum": _enum,
    "$ref": _ref,
}
_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "title"})


def _errors(instance, schema, root, path):
    for keyword, value in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is not None:
            yield from check(instance, value, schema, root, path)


def _unsupported(schema):
    """Keywords in ``schema`` and its subschemas that ``_errors`` cannot
    check, each with the value it holds."""
    for keyword, value in schema.items():
        if keyword in ("properties", "$defs"):
            for subschema in value.values():
                yield from _unsupported(subschema)
        elif keyword == "items":
            yield from _unsupported(value)
        elif (
            (keyword == "type" and not set(_type_names(value)) <= _TYPES.keys())
            or (keyword == "additionalProperties" and value is not False)
            or (keyword == "$ref" and not value.startswith("#/"))
            or (keyword not in _KEYWORDS and keyword not in _ANNOTATIONS)
        ):
            yield keyword, value


def _schema_errors(instance, schema: dict):
    """(instance path, message) of each way ``instance`` breaks ``schema``,
    in the order ``jsonschema``'s Draft 2020-12 validator yields them.
    Raises InvariantError, before checking anything, for a schema that
    holds a keyword this interpreter does not know."""
    unsupported = list(_unsupported(schema))
    if unsupported:
        raise InvariantError(f"unsupported schema keywords: {unsupported}")
    return _errors(instance, schema, schema, ())


# ---------------------------------------------------------------------------
# scenario documents


def scenario_from_dict(doc: dict) -> tuple[TeamModel, InformationStructure]:
    """Build the model and structure from a parsed scenario document.

    Raises ScenarioFormatError when the document does not match the
    scenario schema or its arrays are ragged.
    """
    errors = sorted(_schema_errors(doc, load_schema("scenario")), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        where = "/".join(map(str, path)) or "<root>"
        raise ScenarioFormatError(f"scenario schema violation at {where}: {message}")
    try:
        model = TeamModel(
            num_members=int(doc["num_members"]),
            horizon=int(doc["horizon"]),
            states=tuple(doc["states"]),
            actions=tuple(tuple(a) for a in doc["actions"]),
            observations=tuple(tuple(o) for o in doc["observations"]),
            initial_dist=np.asarray(doc["initial_dist"], dtype=float),
            transition=np.asarray(doc["transition"], dtype=float),
            observation_kernels=tuple(
                np.asarray(k, dtype=float) for k in doc["observation_kernels"]
            ),
            stage_cost=np.asarray(doc["stage_cost"], dtype=float),
            terminal_cost=np.asarray(doc["terminal_cost"], dtype=float),
        )
    except (ValueError, TypeError) as e:
        raise ScenarioFormatError(f"malformed scenario arrays: {e}") from e
    s = doc["information_structure"]
    structure = InformationStructure(
        variant=s["variant"],
        delays=tuple(s["delays"]) if "delays" in s else None,
        period=s.get("period"),
    )
    return model, structure


def read_scenario(path) -> bytes:
    """The bytes of a scenario file; ScenarioFormatError when it cannot be
    read."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {e}") from e


def scenario_from_bytes(raw: bytes, path) -> tuple[TeamModel, InformationStructure]:
    """Parse the bytes of the scenario file ``path`` (named in error
    messages).

    Raises ScenarioFormatError for invalid JSON (including bytes that do
    not decode, nesting too deep to parse and integers too long to
    convert) or schema violations.
    """
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise ScenarioFormatError(f"scenario file {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"scenario file {path} must hold a JSON object")
    return scenario_from_dict(doc)


def load_scenario(path) -> tuple[TeamModel, InformationStructure]:
    """Read and parse a scenario file.

    Raises ScenarioFormatError for unreadable files, invalid JSON, or
    schema violations.
    """
    return scenario_from_bytes(read_scenario(path), path)


def scenario_to_dict(
    model: TeamModel,
    structure: InformationStructure,
    name: str | None = None,
    description: str | None = None,
) -> dict:
    """Serialize a model and structure back into the scenario layout."""
    doc: dict = {}
    if name is not None:
        doc["name"] = name
    if description is not None:
        doc["description"] = description
    doc.update(
        {
            "num_members": model.num_members,
            "horizon": model.horizon,
            "states": list(model.states),
            "actions": [list(a) for a in model.actions],
            "observations": [list(o) for o in model.observations],
            "initial_dist": [float(p) for p in model.initial_dist],
            "transition": model.transition.tolist(),
            "observation_kernels": [k.tolist() for k in model.observation_kernels],
            "stage_cost": model.stage_cost.tolist(),
            "terminal_cost": [float(v) for v in model.terminal_cost],
            "information_structure": _structure_dict(structure),
        }
    )
    return doc


def _structure_dict(structure: InformationStructure) -> dict:
    d: dict = {"variant": structure.variant}
    if structure.delays is not None:
        d["delays"] = list(structure.delays)
    if structure.period is not None:
        d["period"] = structure.period
    return d
