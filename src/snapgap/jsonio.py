"""JSON files: records as plain data, read and written.

`plain(value)` is the one JSON form of a record: a dataclass is the dict of
its fields, a tuple or list a list, a numpy array its `.tolist()`, and a
dict's values are mapped in turn. Decision rules, isotonic maps, metric and
importance reports, labeling thresholds and rules, ensemble
hyperparameters, standardizations, run settings and synthetic specs are
written through it; the ones a scorer file holds are read back by their
dataclass constructors. No JSON document holds flagged rows: they are CSV
files, and a manifest holds each one's name, row count and sha256 (see
`pipeline`).

Every JSON file is the text of `json.dump(obj, fh, sort_keys=True,
indent=2)` and a final newline, in UTF-8. A manifest or scorer file read back
is checked against a shape (`read_shape`) before any record is built from it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError


def plain(value):
    """`value` as JSON data: dataclasses become dicts of their fields, tuples
    and lists become lists, numpy arrays their `.tolist()`, and dict values
    are mapped in turn."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def load_json(path):
    """The JSON document in the UTF-8 file `path`."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(obj, path) -> None:
    """JSON data `obj` as indented JSON with sorted keys, and a final
    newline, in the UTF-8 file `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class Each:
    """An object whose every value has `shape`, and every key passes `key`."""

    shape: object
    key: type = str


@dataclass(frozen=True)
class OrError:
    """An object holding "error", or one of `shape`."""

    shape: object


NUMBER = (int, float)
NUMBER_OR_NULL = (int, float, type(None))
_TYPE_NAMES = {
    NUMBER: "a number", NUMBER_OR_NULL: "a number or null", str: "a string", int: "an integer",
    int | None: "an integer or null", list: "a list",
}


def read_shape(value, shape, where: str):
    """`value`, checked to have `shape`, or a `ValidationError` naming from
    `where` its first part that has not. A shape is a type or tuple of
    types; a string, the one value allowed; a dict of keys and their shapes,
    every one of which must be there; a one-item list, for a list of items of
    that shape; `Each` or `OrError`."""

    def fail(what: str):
        return ValidationError(f"{where}: expected {what}")

    if isinstance(shape, OrError):
        if isinstance(value, dict) and "error" in value:
            return value
        shape = shape.shape
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise fail("a list")
        return [read_shape(item, shape[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if isinstance(shape, (dict, Each)):
        if not isinstance(value, dict):
            raise fail("an object")
        if isinstance(shape, Each):
            for key in value:
                try:
                    shape.key(key)
                except ValueError:
                    raise fail(f"keys that read as {shape.key.__name__}, not {key!r}") from None
            return {key: read_shape(item, shape.shape, f"{where}.{key}") for key, item in value.items()}
        out = dict(value)
        for key, item_shape in shape.items():
            if key not in value:
                raise fail(f"a key {key!r}")
            out[key] = read_shape(value[key], item_shape, f"{where}.{key}")
        return out
    if isinstance(shape, str):
        if value != shape:
            raise fail(repr(shape))
        return value
    if not isinstance(value, shape):
        raise fail(_TYPE_NAMES[shape])
    return value
