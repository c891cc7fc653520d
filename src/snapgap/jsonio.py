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
indent=2)` and a final newline, in UTF-8.
"""
from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np


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
