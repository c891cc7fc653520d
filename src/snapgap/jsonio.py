"""JSON files: records as plain data, read and written, and the canonical
text that digests hash.

`plain(value)` is the one JSON form of a record: a dataclass is the dict of
its fields, a tuple or list a list, a numpy array its `.tolist()`, and a
dict's values are mapped in turn. Decision rules, isotonic maps, metric and
importance reports, labeling thresholds and rules, ensemble
hyperparameters, standardizations, run settings and synthetic specs are
written through it; the ones a scorer file holds are read back by their
dataclass constructors. The node lists of fitted trees are not: `plain`
would leave their NaN thresholds and values as NaN, not null, and its
per-element walk of a 100-tree, 39k-node forest took 0.20 s, against
0.011 s for the column-at-a-time lists of `models.io` (2-core Xeon VM).
No JSON document holds flagged rows: they are CSV files, and a manifest
holds each one's name, row count and sha256 (see `pipeline`).

One walker writes every JSON value the program writes or hashes, in one of
two layouts. `write_json(obj, fh)` writes exactly the text of
`json.dump(plain(obj), fh, sort_keys=True, indent=2)`. `write_canonical(obj,
write)` gives the text of `json.dumps(plain(obj), sort_keys=True,
separators=(",", ":"), allow_nan=False)` in pieces, for a digest to hash as
they come. The layouts differ in the indent each level adds (none in the
compact one), in the separator after a key, and in strictness: in the
canonical layout a non-finite float raises `ValueError` wherever it stands,
as a value or a dict key, as under `allow_nan=False`.

The standard library encodes indented JSON with its pure-Python encoder,
because the C encoder does not indent; on a large manifest that costs
several times the C encoding. Here the C encoder lays out every dict or
list whose values are all scalars in one `json.dumps` call: the line break
and indentation of a container's items are part of the item separator it
is given, `("," + "\\n" + pad, ": ")`, which is just `","` when compact.
Every other container is walked, one item at a time, and every piece goes
to `write` as it is encoded, so the whole document never exists as one
string.
"""
from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

_SCALARS = frozenset({str, int, float, bool, type(None)})


class _Layout(NamedTuple):
    """How `_walk` lays out a document."""

    indent: str  # added to the line break and indent for each level down
    colon: str  # between a key and its value
    allow_nan: bool  # False: strict, a non-finite float raises ValueError


_INDENTED = _Layout("  ", ": ", allow_nan=True)
_CANONICAL = _Layout("", ":", allow_nan=False)


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


def write_json(obj, fh) -> None:
    """Write JSON data `obj` to the text stream `fh` exactly as `json.dump(plain(obj), fh, sort_keys=True, indent=2)`
    would."""
    _walk(obj, fh.write, "\n", _INDENTED)


def write_canonical(obj, write: Callable[[str], object]) -> None:
    """Pass the text of `json.dumps(plain(obj), sort_keys=True,
    separators=(",", ":"), allow_nan=False)` to `write` in pieces, for JSON
    data `obj`. A non-finite float, as a value or a key, raises
    `ValueError`, as there."""
    _walk(obj, write, "", _CANONICAL)


def save_json(obj, path) -> None:
    """`obj` as indented JSON with sorted keys, and a final newline, in the
    UTF-8 file `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json(obj, fh)
        fh.write("\n")


def _key(key, layout: _Layout) -> str:
    """A dict key as `json.dump` writes it: int, float, bool and None keys
    become their JSON text, and every key is a quoted string. A non-finite
    float key raises `ValueError` in the strict layout."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = json.dumps(key, allow_nan=layout.allow_nan)
    return encode_basestring_ascii(key)


def _walk(obj, write: Callable[[str], object], newline: str, layout: _Layout) -> None:
    """Pass the text of `obj` to `write` in `layout`, where `newline` is a
    line break and the indent of the line `obj` starts on (empty in the
    compact layout)."""
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        write(json.dumps(obj, allow_nan=layout.allow_nan))
        return
    values = obj.values() if is_dict else obj
    if not values:
        write("{}" if is_dict else "[]")
        return
    inner = newline + layout.indent
    comma = "," + inner
    if set(map(type, values)) <= _SCALARS:
        text = json.dumps(
            obj, sort_keys=True, separators=(comma, layout.colon), allow_nan=layout.allow_nan
        )
        write(f"{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}")
    elif not is_dict:
        write("[")
        for i, value in enumerate(obj):
            write(comma if i else inner)
            _walk(value, write, inner, layout)
        write(newline + "]")
    else:
        write("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            write(f"{comma if i else inner}{_key(key, layout)}{layout.colon}")
            _walk(value, write, inner, layout)
        write(newline + "}")

