"""One loader for the JSON objects the CLI reads into dataclasses:
``records.json`` entries, distill configs and backend specs."""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, fields

from .corpus import DatasetError

# annotation text (the modules postpone annotations) -> (JSON types, wording)
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "bool": ((bool,), "a boolean"),
    "float": ((int, float), "a number"),
    "tuple[str, ...]": ((list,), "a list of strings"),
}


@functools.cache
def _rules(cls: type) -> tuple[dict, dict, tuple, tuple]:
    """Per field its JSON types and their wording; the list and required fields."""
    types = {f.name: _JSON_TYPES[f.type][0] for f in fields(cls)}
    wording = {f.name: _JSON_TYPES[f.type][1] for f in fields(cls)}
    lists = tuple(key for key, allowed in types.items() if list in allowed)
    required = tuple(f.name for f in fields(cls) if f.default is MISSING)
    return types, wording, lists, required


def from_json(cls: type, data, kind: str):
    """Build a ``cls`` from one parsed JSON value. Each field's annotation
    picks the JSON values it takes from ``_JSON_TYPES``: JSON ``true`` is not
    an integer, a number may be an integer, and a list of strings becomes a
    tuple, in ``data`` itself. Fields without a default are required. Any
    malformed input raises :class:`DatasetError` naming ``kind`` and the key."""
    types, wording, lists, required = _rules(cls)
    if type(data) is not dict:
        raise DatasetError(f"{kind} must be a JSON object, not {json.dumps(data)[:40]}")
    try:
        for key, value in data.items():
            if type(value) not in types[key]:
                raise _mistyped(kind, key, wording[key], value)
        for key in lists:
            value = data.get(key)
            if type(value) is list:
                if not all(map(str.__instancecheck__, value)):  # map: no generator per value
                    raise _mistyped(kind, key, wording[key], value)
                data[key] = tuple(value)
        return cls(**data)
    except KeyError:
        unknown = ", ".join(sorted(set(data) - types.keys()))
        raise DatasetError(f"{kind} has unknown keys: {unknown}") from None
    except TypeError:  # every key is known and well typed, so a required one is missing
        missing = ", ".join(key for key in required if key not in data)
        raise DatasetError(f"{kind} is missing required keys: {missing}") from None


def _mistyped(kind: str, key: str, wording: str, value) -> DatasetError:
    return DatasetError(f"{kind} key {key!r} must be {wording}, not {json.dumps(value)[:40]}")


def to_json(obj) -> dict:
    """The inverse of :func:`from_json`, for ``json.dump`` (which writes tuples as lists)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}
