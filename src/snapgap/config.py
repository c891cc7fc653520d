"""Run settings: one YAML mapping, any key overridable with `--set key=value`.

Each key is a parameter of the code that uses it, and its name, default and
type are written there, once:

- top level: the fields of `pipeline.BacktestConfig` other than `label`, and
  the fields of `labeling.LabelConfig` (`poverty_floor`, `hi_q`, `lo_q`,
  `use_capped_uptake`), the rule that backtests and the synthetic generator
  both label by;
- `schema`: the parameter of that name of `ingest.parse_panel`, which
  checks that it maps known fields before it reads a panel;
- `synth.*`: the fields of `synth.SyntheticSpec` other than `seed` (the
  top-level `seed`) and `label` (the top-level labeling keys);
- each candidate in `grids.<family>`: the parameters that family's fit takes
  from a grid, `models.selection.GRID_PARAMETERS`.

Only the keys given are passed on, so a key left out takes the default of
its dataclass or function. A key that none of these declares is an error,
and so is a value that is not of the declared type:

- an int is a YAML int, not a bool, a float or a quoted number;
- a float is a YAML int or float, and is stored as a float; it must be
  finite, since no manifest can hold a non-finite number;
- a bool is a YAML bool;
- a string is a YAML string, and a literal (`feature_subsets: all`) that
  string;
- null is allowed where the type allows None (`max_depth: null`);
- a tuple is a YAML list, and a dict a YAML mapping, of such values;
- a year pair is a list of two years, `[2014, 2018]`, or a string,
  `"2014-2018"`.

Every error is a `ValidationError` that names the key, dotted, with list
positions in brackets (`grids.logistic[0].C`). The records the keys build
check themselves: `BacktestConfig` and `SyntheticSpec` reject values out of
range when built, such as `folds: 1`, a negative seed or a grid candidate
its fit would reject. The CLI builds the settings before a command does any
work, and exits 2 on one.
"""
from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path
from types import NoneType, UnionType
from typing import Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import yaml

from .errors import IoFailure, ValidationError
from .ingest import parse_panel
from .labeling import LabelConfig
from .models.selection import GRID_PARAMETERS
from .pipeline import BacktestConfig
from .synth import SyntheticSpec


class Settings(NamedTuple):
    """Everything a merged config sets, each part for the code that takes it."""

    backtest: BacktestConfig
    synth: SyntheticSpec
    read: dict  # keyword arguments of `ingest.parse_panel`


def _declared(cls, *skip: str) -> dict[str, object]:
    """Name -> type of the fields of dataclass `cls`, but `skip`."""
    types = get_type_hints(cls)
    return {f.name: types[f.name] for f in fields(cls) if f.name not in skip}


_LABEL_KEYS = _declared(LabelConfig)
_READ_KEYS = {"schema": get_type_hints(parse_panel)["schema"]}
_BACKTEST_KEYS = _declared(BacktestConfig, "label")
_TOP_KEYS = {**_BACKTEST_KEYS, **_LABEL_KEYS, **_READ_KEYS}
_SYNTH_KEYS = _declared(SyntheticSpec, "seed", "label")
_YEAR_PAIR = tuple[int, int]


def _describe(tp) -> str:
    if tp is NoneType:
        return "null"
    if tp == _YEAR_PAIR:
        return "a year pair ([2014, 2018] or '2014-2018')"
    if isinstance(tp, type):
        return tp.__name__
    if get_origin(tp) is Literal:
        return " or ".join(map(repr, get_args(tp)))
    if get_origin(tp) in (Union, UnionType):
        return " or ".join(map(_describe, get_args(tp)))
    return str(tp).replace("tuple", "list")  # a YAML list stands for a tuple


def _convert(value, tp, key: str):
    """`value` as declared type `tp`; a `ValidationError` naming `key` when
    it is not of that type."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if value is None and NoneType in args:
            return None
        options = [option for option in args if option is not NoneType]
        if len(options) == 1:
            return _convert(value, options[0], key)
        for option in options:
            try:
                return _convert(value, option, key)
            except ValidationError:
                pass
    elif origin is Literal:
        if value in args:
            return value
    elif tp == _YEAR_PAIR and isinstance(value, str):
        parts = value.replace("-", " ").split()
        if len(parts) == 2 and all(p.isascii() and p.isdigit() for p in parts):
            return int(parts[0]), int(parts[1])
    elif origin is tuple:
        if isinstance(value, list):
            if len(args) == 2 and args[1] is Ellipsis:
                return tuple(_convert(v, args[0], f"{key}[{i}]") for i, v in enumerate(value))
            if len(value) == len(args):
                return tuple(_convert(v, t, f"{key}[{i}]") for i, (v, t) in enumerate(zip(value, args)))
    elif origin is list:
        if isinstance(value, list):
            return [_convert(v, args[0], f"{key}[{i}]") for i, v in enumerate(value)]
    elif origin is dict:
        if isinstance(value, dict):
            return {
                _convert(k, args[0], key): _convert(v, args[1], f"{key}.{k}")
                for k, v in value.items()
            }
    elif tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int past the float range
                number = math.inf
            if not math.isfinite(number):
                raise ValidationError(f"{key} must be finite, got {value!r}")
            return number
    elif tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif isinstance(value, tp):  # bool, str, a bare dict
        return value
    raise ValidationError(f"{key} must be {_describe(tp)}, got {value!r}")


def _checked(declared: dict[str, object], given: dict, prefix: str = "") -> dict:
    """The `given` keys, each value converted to its declared type."""
    out = {}
    for key, value in given.items():
        if key not in declared:
            raise ValidationError(f"unknown key {prefix + str(key)!r}")
        out[key] = _convert(value, declared[key], prefix + key)
    return out


def _checked_grids(grids: dict) -> dict:
    """Each family's candidates, every key a parameter of the family's fit."""
    out = {}
    for family, candidates in grids.items():
        if family not in GRID_PARAMETERS:
            raise ValidationError(f"unknown key {'grids.' + family!r}")
        out[family] = [
            _checked(GRID_PARAMETERS[family], params, f"grids.{family}[{i}].")
            for i, params in enumerate(candidates)
        ]
    return out


def settings_from(config: dict) -> Settings:
    """The settings of a merged config mapping, every key checked and each
    record checked as it is built."""
    given = dict(config)
    synth = _convert(given.pop("synth", {}), dict, "synth")
    top = _checked(_TOP_KEYS, given)
    if top.get("grids") is not None:
        top["grids"] = _checked_grids(top["grids"])
    label = LabelConfig(**{k: v for k, v in top.items() if k in _LABEL_KEYS})
    backtest = BacktestConfig(label=label, **{k: v for k, v in top.items() if k in _BACKTEST_KEYS})
    seed = {"seed": top["seed"]} if "seed" in top else {}
    spec = SyntheticSpec(label=label, **seed, **_checked(_SYNTH_KEYS, synth, "synth."))
    return Settings(backtest, spec, {k: v for k, v in top.items() if k in _READ_KEYS})


def load_config(path) -> dict:
    try:
        with open(Path(path), "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"config {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must be a mapping at top level")
    return data


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply `key=value` strings (values parsed as YAML) on top of a config.

    Dotted keys address nested sections, e.g. `synth.n_zips=500`.
    """
    out = dict(config)
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ValidationError(f"cannot parse override value {raw!r}: {exc}") from exc
        target = out
        parts = key.strip().split(".")
        for part in parts[:-1]:
            nxt = target.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
            nxt = dict(nxt)
            target[part] = nxt
            target = nxt
        target[parts[-1]] = value
    return out
