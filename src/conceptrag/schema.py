"""One loader for the JSON objects the CLI reads into NamedTuples:
``records.json`` entries, distill configs and backend specs."""

from __future__ import annotations

import functools
import json
from itertools import chain, repeat

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


class _Missing:
    """The type of the value a block's column holds where a record lacks the key."""


_MISSING = _Missing()


@functools.cache
def _rules(cls: type) -> tuple[dict, dict, tuple, tuple, tuple]:
    """Per field its JSON types, with :class:`_Missing` where the key is optional,
    and their wording; the list and required fields; the defaults."""
    # a checked type subclasses the NamedTuple of its fields, which keeps a
    # postponed annotation as a typing.ForwardRef
    hints = cls.__annotations__ or cls.__base__.__annotations__
    texts = {name: getattr(hint, "__forward_arg__", hint) for name, hint in hints.items()}
    required = getattr(cls, "_required", ()) or tuple(
        name for name in cls._fields if name not in cls._field_defaults)
    types = {name: frozenset((*_JSON_TYPES[text][0], *(() if name in required else (_Missing,))))
             for name, text in texts.items()}
    wording = {name: _JSON_TYPES[text][1] for name, text in texts.items()}
    lists = tuple(key for key, allowed in types.items() if list in allowed)
    defaults = tuple(map(cls._field_defaults.get, cls._fields))
    return types, wording, lists, required, defaults


def _raise_fault(cls: type, data, kind: str) -> None:
    """Raise the first fault of one item, key by key: the wording for a block
    in which :func:`from_json_block` found one."""
    types, wording, lists, required, _ = _rules(cls)
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
        value = data.get(key, ())
        if not all(map(str.__instancecheck__, value)):
            raise _mistyped(kind, key, wording[key], value)
    missing = [key for key in required if key not in data]
    if missing:
        raise DatasetError(f"{kind} is missing required keys: {', '.join(missing)}")


def _mistyped(kind: str, key: str, wording: str, value) -> DatasetError:
    return DatasetError(f"{kind} key {key!r} must be {wording}, not {json.dumps(value)[:40]}")


def from_json_block(cls: type, items: list, kind: str) -> list:
    """Build a ``cls`` from each parsed JSON value in ``items``, checking the
    whole block at once, one key across every item. Each field's annotation
    picks the JSON values it takes from ``_JSON_TYPES``: JSON ``true`` is not
    an integer, a number may be an integer, and a list of strings becomes a
    tuple. The fields named in ``cls._required``, else those without a
    default, are required. A block with any fault is read again item by item,
    so the first fault in ``items`` raises :class:`DatasetError`, naming
    ``kind`` and the key; a checked type's own checks run once the block passes."""
    types, _, lists, _, defaults = _rules(cls)
    columns, found = [], 0  # found: the items' keys that are fields
    if set(map(type, items)) <= {dict}:
        for name, default in zip(cls._fields, defaults):
            column = list(map(dict.get, items, repeat(name), repeat(_MISSING)))
            seen = set(map(type, column))
            if not seen <= types[name]:
                break
            found += len(column)
            if _Missing in seen:
                found -= column.count(_MISSING)
                column = list(map(dict.get, items, repeat(name), repeat(default)))
            if name in lists:
                if not set(map(type, chain.from_iterable(column))) <= {str}:
                    break
                column = list(map(tuple, column))
            columns.append(column)
    # an item with a key that is no field has more keys than were found; on JSON
    # input each block condition fails exactly where a per-key check raises
    if len(columns) < len(cls._fields) or found != sum(map(len, items)):
        for data in items:
            _raise_fault(cls, data, kind)
    # a plain NamedTuple's __new__ checks nothing: build each tuple directly
    if cls.__base__ is tuple:
        return list(map(tuple.__new__, repeat(cls), zip(*columns)))
    return list(map(cls, *columns))


def from_json(cls: type, data, kind: str):
    """Build a ``cls`` from one parsed JSON value: :func:`from_json_block` over ``[data]``."""
    return from_json_block(cls, [data], kind)[0]


def to_json(obj) -> dict:
    """The inverse of :func:`from_json`, for ``json.dump``, which would write
    the NamedTuple itself as a list (and writes its tuple values as lists)."""
    return obj._asdict()
