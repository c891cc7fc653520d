"""JSON files: records as plain data, read and written, and the canonical
text that digests hash.

`plain(value)` is the one JSON form of a record: a dataclass is the dict of
its fields, a tuple or list a list, a numpy array its `.tolist()`, a
`RowTable` the list of its rows, and a dict's values are mapped in turn.
Decision rules, isotonic maps, metric and importance reports, labeling
thresholds and rules, ensemble hyperparameters, standardizations, run
settings and synthetic specs are written through it; the ones a scorer file
holds are read back by their dataclass constructors. The node lists of
fitted trees are not: `plain` would leave their NaN thresholds and values as
NaN, not null, and its per-element walk of a 100-tree, 39k-node forest took
0.20 s, against 0.011 s for the column-at-a-time lists of `models.io`
(2-core Xeon VM).

A `RowTable` holds rows of scalars, such as a manifest's flagged
`[zip, year, p]` rows, as aligned numpy columns. Its rows travel between
processes as a few arrays, not as one small list per row, and they are
rendered from the columns: each distinct value of a column is rendered once
(a float by `float.__repr__`, an int by `int.__repr__`, a string as the
JSON encoder writes it), and numpy lays the row texts and their separators
end to end for one `str.join`. Floats are told apart by their bits, so
`-0.0` keeps its sign.

One walker writes every JSON value the program writes or hashes, in one of
two layouts. `write_json(obj, fh)` writes exactly the text of
`json.dump(plain(obj), fh, sort_keys=True, indent=2)` for JSON data that
may hold row tables. `write_canonical(obj, write)` gives the text of
`json.dumps(plain(obj), sort_keys=True, separators=(",", ":"),
allow_nan=False)` in pieces, for a digest to hash as they come. The
layouts differ in the indent each level adds (none in the compact one), in
the separator after a key, and in strictness: in the canonical layout a
non-finite float raises `ValueError` wherever it stands, as a value, a
dict key or a row-table cell, as under `allow_nan=False`.

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
from itertools import repeat
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


class RowTable:
    """Rows of scalars as aligned 1-D numpy columns: str cells in an object
    array, int cells in an integer array and float cells in a float array.
    `plain(table)` is the list of its rows, each a list, and a table equals
    another with the same columns, dtypes and values."""

    __slots__ = ("columns",)

    def __init__(self, *columns):
        self.columns = tuple(map(np.asarray, columns))
        if not self.columns or {c.shape for c in self.columns} != {self.columns[0].shape}:
            raise ValueError("a row table needs one or more columns of one length")
        if self.columns[0].ndim != 1 or any(c.dtype.kind not in "Oiuf" for c in self.columns):
            raise TypeError("row table columns are 1-D object, integer or float arrays")

    def __len__(self) -> int:
        return len(self.columns[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RowTable):
            return NotImplemented
        return len(self.columns) == len(other.columns) and all(
            a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(self.columns, other.columns)
        )

    def __reduce__(self):
        return RowTable, self.columns

    def rows(self) -> list[list]:
        """The rows, each a list of Python scalars."""
        return list(map(list, zip(*(c.tolist() for c in self.columns))))

    def finite(self) -> bool:
        """Whether every float cell is finite."""
        return all(np.isfinite(c).all() for c in self.columns if c.dtype.kind == "f")

    def text(
        self,
        begin: str,
        sep: str,
        end: str,
        between: str,
        encode: Callable[[list[str]], list[str]],
    ) -> str:
        """The rows as one string: each is `begin`, its cells joined by
        `sep`, and `end`, and `between` joins the rows. `encode(values)`
        gives the texts of a column's distinct strings; an int or float
        cell is its `repr`."""
        n, width = len(self), 2 * len(self.columns) + 1
        parts = [sep] * (n * width)
        parts[::width] = [begin] * n
        parts[width - 1 :: width] = [end + between] * n
        for j, column in enumerate(self.columns):
            parts[2 * j + 1 :: width] = _cell_texts(column, encode)
        if parts:
            parts[-1] = end
        return "".join(parts)


def _cell_texts(column: np.ndarray, encode: Callable[[list[str]], list[str]]) -> list[str]:
    """The text of each cell of `column`, each distinct value rendered once."""
    if column.dtype.kind == "O":
        cells = column.tolist()
        distinct = list(set(cells))
        if not all(map(isinstance, distinct, repeat(str))):
            raise TypeError("row table object columns hold str cells")
        texts = dict(zip(distinct, encode(distinct)))
        return list(map(texts.__getitem__, cells))
    # Floats are told apart by their bits, so -0.0 and 0.0 stay distinct.
    keys = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = list(map(repr, distinct.view(column.dtype).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


def _json_strings(values: list[str]) -> list[str]:
    return list(map(encode_basestring_ascii, values))


def plain(value):
    """`value` as JSON data: dataclasses become dicts of their fields, tuples
    and lists become lists, numpy arrays their `.tolist()`, row tables the
    lists of their rows, and dict values are mapped in turn."""
    if isinstance(value, RowTable):
        return value.rows()
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
    """Write JSON data `obj`, which may hold row tables, to the text stream
    `fh` exactly as `json.dump(plain(obj), fh, sort_keys=True, indent=2)`
    would."""
    _walk(obj, fh.write, "\n", _INDENTED)


def write_canonical(obj, write: Callable[[str], object]) -> None:
    """Pass the text of `json.dumps(plain(obj), sort_keys=True,
    separators=(",", ":"), allow_nan=False)` to `write` in pieces, for JSON
    data `obj` that may hold row tables. A non-finite float, as a value, a
    key or a row-table cell, raises `ValueError`, as there."""
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
    if isinstance(obj, RowTable):
        if len(obj) and obj.finite():
            inner = newline + layout.indent
            row = inner + layout.indent
            text = obj.text("[" + row, "," + row, inner + "]", "," + inner, _json_strings)
            write(f"[{inner}{text}{newline}]")
            return
        obj = obj.rows()  # NaN and Infinity as json.dump writes them, or the strict ValueError
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

