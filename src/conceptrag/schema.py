"""One loader for the JSON objects the CLI reads into NamedTuples:
``records.json`` entries, distill configs and backend specs."""

from __future__ import annotations

import functools
import json

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
def _rules(cls: type) -> tuple[dict, dict, tuple, tuple, tuple]:
    """Per field its JSON types and their wording; the list and required fields; the defaults."""
    # a checked type subclasses the NamedTuple of its fields, which keeps a
    # postponed annotation as a typing.ForwardRef
    hints = cls.__annotations__ or cls.__base__.__annotations__
    texts = {name: getattr(hint, "__forward_arg__", hint) for name, hint in hints.items()}
    types = {name: _JSON_TYPES[text][0] for name, text in texts.items()}
    wording = {name: _JSON_TYPES[text][1] for name, text in texts.items()}
    lists = tuple(key for key, allowed in types.items() if list in allowed)
    defaults = tuple(map(cls._field_defaults.get, cls._fields))
    required = getattr(cls, "_required", ()) or tuple(
        name for name in cls._fields if name not in cls._field_defaults)
    return types, wording, lists, required, defaults


def from_json(cls: type, data, kind: str):
    """Build a ``cls`` from one parsed JSON value. Each field's annotation
    picks the JSON values it takes from ``_JSON_TYPES``: JSON ``true`` is not
    an integer, a number may be an integer, and a list of strings becomes a
    tuple, in ``data`` itself. The fields named in ``cls._required``, else
    those without a default, are required. Any malformed input raises
    :class:`DatasetError` naming ``kind`` and the key."""
    types, wording, lists, required, defaults = _rules(cls)
    if type(data) is not dict:
        raise DatasetError(f"{kind} must be a JSON object, not {json.dumps(data)[:40]}")
    try:
        for key, value in data.items():
            if type(value) not in types[key]:
                raise _mistyped(kind, key, wording[key], value)
    except KeyError:
        unknown = ", ".join(sorted(set(data) - types.keys()))
        raise DatasetError(f"{kind} has unknown keys: {unknown}") from None
    for key in lists:
        value = data.get(key)
        if type(value) is list:
            if not all(map(str.__instancecheck__, value)):  # map: no generator per value
                raise _mistyped(kind, key, wording[key], value)
            data[key] = tuple(value)
    missing = [key for key in required if key not in data]
    if missing:
        raise DatasetError(f"{kind} is missing required keys: {', '.join(missing)}")
    values = map(data.get, cls._fields, defaults)
    # a plain NamedTuple's __new__ checks nothing: build the tuple directly
    return tuple.__new__(cls, values) if cls.__base__ is tuple else cls(*values)


def _mistyped(kind: str, key: str, wording: str, value) -> DatasetError:
    return DatasetError(f"{kind} key {key!r} must be {wording}, not {json.dumps(value)[:40]}")


def to_json(obj) -> dict:
    """The inverse of :func:`from_json`, for ``json.dump``, which would write
    the NamedTuple itself as a list (and writes its tuple values as lists)."""
    return obj._asdict()
