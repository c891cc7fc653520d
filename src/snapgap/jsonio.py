"""Indented JSON files, written by the C encoder.

`write_json(obj, fh)` writes exactly the text of
`json.dump(obj, fh, sort_keys=True, indent=2)`. The standard library
encodes indented JSON with its pure-Python encoder, because the C encoder
does not indent; on a large manifest that costs several times the C
encoding. Here the C encoder lays the lines out itself: the indentation of
a container's items is part of the item separator it is given,
`("," + "\\n" + pad, ": ")`.

- A dict or list whose values are all scalars is one `json.dumps` call.
- So is a list of non-empty rows of scalars, such as a manifest's flagged
  `[zip, year, p]` rows. The encoder then separates rows and row items
  alike, and one `str.replace` rewrites each seam between two rows into the
  closing and opening lines it has under `indent=2`. A seam is the only
  place where `],` and a line break meet `[`: the encoder escapes line
  breaks inside strings, and inside a row a separator sits between two
  scalars.
- Every other container is walked here, one item at a time.

Every piece goes to `fh` as it is encoded, so the whole document never
exists as one string.
"""
from __future__ import annotations

import json
from itertools import chain

INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
_ARRAYS = frozenset({list, tuple})


def write_json(obj, fh) -> None:
    """Write `obj` to the text stream `fh` exactly as
    `json.dump(obj, fh, sort_keys=True, indent=2)` would."""
    _write(obj, fh, "\n")


def save_json(obj, path) -> None:
    """`obj` as indented JSON with sorted keys, and a final newline, in the
    UTF-8 file `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json(obj, fh)
        fh.write("\n")


def _key(key) -> str:
    """A dict key as `json.dump` writes it: int, float, bool and None keys
    become their JSON text, and every key is a quoted string."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = json.dumps(key)
    return json.dumps(key)


def _write(obj, fh, newline: str) -> None:
    """`obj`, where `newline` is a line break and the indent of the line
    `obj` starts on."""
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        fh.write(json.dumps(obj))
        return
    values = obj.values() if is_dict else obj
    if not values:
        fh.write("{}" if is_dict else "[]")
        return
    inner = newline + INDENT
    types = set(map(type, values))
    if types <= _SCALARS:
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        fh.write(f"{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}")
    elif (
        not is_dict
        and types <= _ARRAYS
        and all(values)
        and set(map(type, chain.from_iterable(values))) <= _SCALARS
    ):
        row = inner + INDENT
        text = json.dumps(obj, separators=("," + row, ": "))
        body = text[2:-2].replace(f"],{row}[", f"{inner}],{inner}[{row}")
        fh.write(f"[{inner}[{row}{body}{inner}]{newline}]")
    elif not is_dict:
        fh.write("[")
        for i, value in enumerate(obj):
            fh.write("," + inner if i else inner)
            _write(value, fh, inner)
        fh.write(newline + "]")
    else:
        fh.write("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            fh.write(f"{',' if i else ''}{inner}{_key(key)}: ")
            _write(value, fh, inner)
        fh.write(newline + "}")
