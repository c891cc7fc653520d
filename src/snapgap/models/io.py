"""Versioned JSON serialization for fitted models and calibrated scorers."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..calibration import (
    DecisionRule,
    IsotonicMap,
    apply_isotonic,
    isotonic_from_dict,
    isotonic_to_dict,
    rule_from_dict,
    rule_to_dict,
)
from ..errors import ValidationError
from .ensemble import EnsembleParams, TreeEnsembleModel
from .logistic import LogisticModel
from .matrix import Standardization
from .selection import FAMILY_LOGISTIC
from .tree import DecisionTree

MODEL_FORMAT = "snapgap-model/1"


@dataclass(frozen=True)
class CalibratedScorer:
    """Fitted model plus its isotonic map and decision rule."""

    model: LogisticModel | TreeEnsembleModel
    isotonic: IsotonicMap
    rule: DecisionRule

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.model.feature_names)

    def predict_calibrated(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(apply_isotonic(self.isotonic, self.model.predict_proba(X)))


def _nan_to_none(values) -> list:
    # leaves carry NaN thresholds / internal nodes NaN values; JSON gets null
    return [None if (isinstance(v, float) and math.isnan(v)) else float(v) for v in values]


def _none_to_nan(values) -> list[float]:
    return [math.nan if v is None else float(v) for v in values]


def _tree_to_dict(tree: DecisionTree) -> dict:
    return {
        "feature": list(tree.feature),
        "threshold": _nan_to_none(tree.threshold),
        "left": list(tree.left),
        "right": list(tree.right),
        "value": _nan_to_none(tree.value),
    }


def _tree_from_dict(data: dict) -> DecisionTree:
    return DecisionTree(
        feature=tuple(data["feature"]),
        threshold=tuple(_none_to_nan(data["threshold"])),
        left=tuple(data["left"]),
        right=tuple(data["right"]),
        value=tuple(_none_to_nan(data["value"])),
    )


def model_to_dict(model) -> dict:
    if isinstance(model, LogisticModel):
        return {
            "format": MODEL_FORMAT,
            "family": FAMILY_LOGISTIC,
            "hyperparameters": {
                "c": model.l2_strength,
                "class_weighting": model.class_weighting,
            },
            "feature_names": list(model.feature_names),
            "coefficients": [float(c) for c in model.coefficients],
            "intercept": model.intercept,
            "standardization": {
                "mean": [float(v) for v in model.standardization.mean],
                "sd": [float(v) for v in model.standardization.sd],
            },
        }
    if isinstance(model, TreeEnsembleModel):
        p = model.params
        return {
            "format": MODEL_FORMAT,
            "family": model.kind,
            "hyperparameters": {
                "n_trees": p.n_trees,
                "max_depth": p.max_depth,
                "min_leaf": p.min_leaf,
                "learning_rate": p.learning_rate,
                "max_features": p.max_features,
                "class_weighting": p.class_weighting,
                "seed": p.seed,
            },
            "feature_names": list(model.feature_names),
            "base_score": model.base_score,
            "trees": [_tree_to_dict(t) for t in model.trees],
        }
    raise ValidationError(f"cannot serialize model of type {type(model)!r}")


def model_from_dict(data: dict):
    if data.get("format") != MODEL_FORMAT:
        raise ValidationError(f"unsupported model format {data.get('format')!r}")
    family = data["family"]
    if family == FAMILY_LOGISTIC:
        return LogisticModel(
            coefficients=np.asarray(data["coefficients"], dtype=float),
            intercept=float(data["intercept"]),
            l2_strength=float(data["hyperparameters"]["c"]),
            class_weighting=data["hyperparameters"]["class_weighting"],
            feature_names=tuple(data["feature_names"]),
            standardization=Standardization(
                mean=np.asarray(data["standardization"]["mean"], dtype=float),
                sd=np.asarray(data["standardization"]["sd"], dtype=float),
            ),
        )
    hp = data["hyperparameters"]
    params = EnsembleParams(
        kind=family,
        n_trees=int(hp["n_trees"]),
        max_depth=hp["max_depth"],
        min_leaf=int(hp["min_leaf"]),
        learning_rate=float(hp["learning_rate"]),
        max_features=hp["max_features"],
        class_weighting=hp["class_weighting"],
        seed=int(hp["seed"]),
    )
    return TreeEnsembleModel(
        kind=family,
        trees=tuple(_tree_from_dict(t) for t in data["trees"]),
        params=params,
        feature_names=tuple(data["feature_names"]),
        base_score=float(data.get("base_score", 0.0)),
    )


def scorer_to_dict(scorer: CalibratedScorer) -> dict:
    return {
        "format": MODEL_FORMAT,
        "model": model_to_dict(scorer.model),
        "calibration": isotonic_to_dict(scorer.isotonic),
        "rule": rule_to_dict(scorer.rule),
    }


def scorer_from_dict(data: dict) -> CalibratedScorer:
    return CalibratedScorer(
        model=model_from_dict(data["model"]),
        isotonic=isotonic_from_dict(data["calibration"]),
        rule=rule_from_dict(data["rule"]),
    )


def load_json(path) -> dict:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return json.load(fh)
