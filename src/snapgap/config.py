"""Declarative run configuration: one YAML file, every key CLI-overridable."""
from __future__ import annotations

from pathlib import Path

import yaml

from .errors import IoFailure, ValidationError
from .labeling import LabelConfig
from .models import FAMILIES
from .pipeline import BacktestConfig
from .synth import SyntheticSpec


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


def _year_pair(value, key: str) -> tuple[int, int]:
    if isinstance(value, str):
        parts = value.replace("-", " ").split()
        if len(parts) != 2:
            raise ValidationError(f"{key} must be two years, got {value!r}")
        return int(parts[0]), int(parts[1])
    try:
        lo, hi = value
        return int(lo), int(hi)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key} must be two years, got {value!r}") from exc


def label_config_from(config: dict, stratified: bool = False) -> LabelConfig:
    return LabelConfig(
        poverty_floor=float(config.get("poverty_floor", 0.15)),
        hi_q=float(config.get("hi_q", 0.70)),
        lo_q=float(config.get("lo_q", 0.10)),
        stratify_by_area=stratified,
        use_capped_uptake=bool(config.get("use_capped_uptake", True)),
    )


def backtest_config_from(config: dict) -> BacktestConfig:
    subsets = config.get("feature_subsets")
    if subsets in (None, "all"):
        feature_subsets = None
    else:
        feature_subsets = tuple(tuple(s) for s in subsets)
    families = tuple(config.get("families", FAMILIES))
    area_mode = config.get("area_mode", "pooled")
    return BacktestConfig(
        p1_years=_year_pair(config.get("p1_years", (2014, 2018)), "p1_years"),
        p2_years=_year_pair(config.get("p2_years", (2019, 2023)), "p2_years"),
        label=label_config_from(config, stratified=area_mode == "stratified"),
        feature_subsets=feature_subsets,
        families=families,
        grids=config.get("grids"),
        folds=int(config.get("folds", 5)),
        seed=int(config.get("seed", 0)),
        area_mode=area_mode,
        threshold_mode=config.get("threshold_mode", "refit"),
        decision=config.get("decision", "prevalence"),
        selection=config.get("selection", "cv"),
        hidden_tail=float(config.get("hidden_tail", 0.05)),
        reliability_bins=int(config.get("reliability_bins", 10)),
        importance_repeats=int(config.get("importance_repeats", 10)),
    )


def synthetic_spec_from(config: dict) -> SyntheticSpec:
    synth = config.get("synth", {})
    target = synth.get("target_prevalence", 0.031)
    if isinstance(target, (list, tuple)):
        target = (float(target[0]), float(target[1]))
    else:
        target = float(target)
    spec_kwargs = {
        "n_zips": int(synth.get("n_zips", 1000)),
        "years": _year_pair(synth.get("years", (2014, 2023)), "synth.years"),
        "true_coefficients": {
            str(k): float(v) for k, v in (synth.get("true_coefficients") or {}).items()
        },
        "target_prevalence": target,
        "anomaly_rate": float(synth.get("anomaly_rate", 0.0)),
        "seed": int(config.get("seed", synth.get("seed", 0))),
        "poverty_floor": float(config.get("poverty_floor", 0.15)),
        "hi_q": float(config.get("hi_q", 0.70)),
        "lo_q": float(config.get("lo_q", 0.10)),
    }
    if synth.get("area_mix"):
        spec_kwargs["area_mix"] = {str(k): float(v) for k, v in synth["area_mix"].items()}
    return SyntheticSpec(**spec_kwargs)
