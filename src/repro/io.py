"""JSON serialization for schemes and states.

Formats (used by the CLI and handy for fixtures):

Scheme::

    {
      "relations": {
        "R1": {"attributes": ["H", "R", "C"], "keys": [["H", "R"]]},
        "R4": {"attributes": "CSG", "keys": ["CS"]}
      }
    }

``attributes`` and each key accept either a list of attribute names or
the paper's compact single-character string.  ``keys`` may be omitted
for an all-key relation.

State::

    {"R1": [{"H": "9am", "R": "DC128", "C": "CS445"}], "R4": []}
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, Union

from repro.foundations.attrs import attrs, sorted_attrs
from repro.foundations.errors import SchemaError, StateError
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.relation_scheme import RelationScheme
from repro.state.database_state import DatabaseState

PathLike = Union[str, Path]


def dump_json_atomic(data: Any, path: PathLike) -> None:
    """Write ``data`` as JSON so that a crash leaves either the old file
    or the new one, never a torn mixture: write to a sibling temp file,
    fsync it, then ``os.replace`` over the destination.

    The durable store's snapshots depend on this guarantee; the plain
    ``dump_scheme`` / ``dump_state`` helpers use it too so every file
    this module produces is crash-clean."""
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def load_json(path: PathLike) -> Any:
    with open(path) as handle:
        return json.load(handle)


# -- schemes ----------------------------------------------------------------


def scheme_to_dict(scheme: DatabaseScheme) -> dict[str, Any]:
    """Serialize a scheme to the JSON structure above."""
    return {
        "relations": {
            member.name: {
                "attributes": sorted_attrs(member.attributes),
                "keys": [sorted_attrs(key) for key in member.keys],
            }
            for member in scheme.relations
        }
    }


def scheme_from_dict(data: Mapping[str, Any]) -> DatabaseScheme:
    """Deserialize a scheme; raises :class:`SchemaError` on malformed
    input."""
    if not isinstance(data, Mapping) or "relations" not in data:
        raise SchemaError("scheme JSON must be an object with 'relations'")
    relations = data["relations"]
    if not isinstance(relations, Mapping) or not relations:
        raise SchemaError("'relations' must be a non-empty object")
    members = []
    for name, spec in relations.items():
        if isinstance(spec, str):
            members.append(RelationScheme(name, attrs(spec)))
            continue
        if not isinstance(spec, Mapping) or "attributes" not in spec:
            raise SchemaError(
                f"relation {name!r} needs an 'attributes' field"
            )
        keys = spec.get("keys")
        members.append(
            RelationScheme(
                name,
                attrs(spec["attributes"]),
                None if keys is None else [attrs(key) for key in keys],
            )
        )
    return DatabaseScheme(members)


def load_scheme(path: PathLike) -> DatabaseScheme:
    """Load a scheme from a JSON file."""
    with open(path) as handle:
        return scheme_from_dict(json.load(handle))


def dump_scheme(scheme: DatabaseScheme, path: PathLike) -> None:
    """Write a scheme to a JSON file (atomically)."""
    dump_json_atomic(scheme_to_dict(scheme), path)


# -- states -------------------------------------------------------------------


def _value_key(value: Any) -> tuple:
    if isinstance(value, (int, float)):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if value is None:
        return (2, None)
    return (3, value)


def row_key(values: Iterable[Any]) -> tuple:
    """The sort key for a row of values, one column after another.

    Each value ranks by kind — numbers, then strings, then ``None`` —
    and then by value, so a column holding both ints and strings still
    sorts.  Wherever plain ``sorted`` can compare the values, the order
    is the same as its order."""
    return tuple(_value_key(value) for value in values)


def sorted_rows(rows: Iterable[Sequence[Any]]) -> list:
    """``rows`` as a list in :func:`row_key` order.

    Plain ``sorted`` is tried first: it costs a small fraction of the
    key, and when it can compare every pair of rows it meets, each of
    those comparisons agrees with :func:`row_key`, so it returns the
    same list.  Only a ``TypeError`` (an int meeting a string in one
    column) falls back to the key."""
    rows = list(rows)
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=row_key)


def state_to_dict(state: DatabaseState) -> dict[str, Any]:
    """Serialize a state to ``{relation: [tuple, ...]}``, each
    relation's rows in :func:`row_key` order over sorted attributes."""
    return {
        name: sorted(
            (dict(values) for values in relation),
            key=lambda row: row_key(row[attr] for attr in sorted(row)),
        )
        for name, relation in state
    }


def state_from_dict(
    scheme: DatabaseScheme, data: Mapping[str, Any]
) -> DatabaseState:
    """Deserialize a state over ``scheme``."""
    if not isinstance(data, Mapping):
        raise StateError("state JSON must be an object")
    return DatabaseState(scheme, data)


def load_state(scheme: DatabaseScheme, path: PathLike) -> DatabaseState:
    """Load a state (over a known scheme) from a JSON file."""
    with open(path) as handle:
        return state_from_dict(scheme, json.load(handle))


def dump_state(state: DatabaseState, path: PathLike) -> None:
    """Write a state to a JSON file (atomically)."""
    dump_json_atomic(state_to_dict(state), path)
