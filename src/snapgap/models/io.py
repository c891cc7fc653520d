"""Versioned JSON serialization for fitted models and calibrated scorers.

Most blocks of a model or scorer file are derived from their records by
`jsonio.plain` and read back by the record's constructor: the isotonic map,
the decision rule, the ensemble hyperparameters (every `EnsembleParams`
field but `kind`, which the file's `family` holds) and the logistic
standardization. Two parts are mapped by hand:

- the tree node lists, column by column with NaN as null: `plain` would
  leave their NaN thresholds and values as NaN, not null, and its
  per-element walk of a 100-tree, 39k-node forest took 0.20 s, against
  0.011 s for the column-at-a-time lists (2-core Xeon VM);
- the rest of a logistic model, whose file form is not its fields: the
  `c` of its `hyperparameters` is the field `l2_strength`, and the fit
  diagnostics `n_iter` and `grad_norm` are not written. Deriving it would
  change the bytes of every logistic scorer file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..calibration import DecisionRule, IsotonicMap
from ..errors import ValidationError
from ..jsonio import plain
from .ensemble import EnsembleParams, TreeEnsembleModel
from .logistic import LogisticModel
from .matrix import Standardization
from .selection import FAMILY_LOGISTIC
from .tree import DecisionTree

MODEL_FORMAT = "snapgap-model/1"

# The keys of a tree model's `hyperparameters`: every `EnsembleParams` field
# but `kind`, which the file's `family` holds.
_ENSEMBLE_HYPERPARAMETERS = frozenset(f.name for f in fields(EnsembleParams)) - {"kind"}


@dataclass(frozen=True)
class CalibratedScorer:
    """Fitted model plus its isotonic map and decision rule."""

    model: LogisticModel | TreeEnsembleModel
    isotonic: IsotonicMap
    rule: DecisionRule


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


def _tree_from_dict(data: dict, n_features: int) -> DecisionTree:
    """The tree of a node list in preorder, by which the leaf masks number
    its leaves (see `tree.py`). Raises a `ValidationError` on a node feature
    outside -1 (a leaf) to `n_features` - 1, or unless a preorder walk from
    the root, stopped after n visits, visits nodes 0 to n - 1 in turn and
    then ends."""
    tree = DecisionTree(
        feature=tuple(data["feature"]),
        threshold=tuple(_none_to_nan(data["threshold"])),
        left=tuple(data["left"]),
        right=tuple(data["right"]),
        value=tuple(_none_to_nan(data["value"])),
    )
    n = tree.n_nodes
    if {len(tree.threshold), len(tree.left), len(tree.right), len(tree.value)} != {n}:
        raise ValidationError("tree node lists differ in length")
    outside = [f for f in tree.feature if not -1 <= f < n_features]
    if outside:
        raise ValidationError(f"tree node feature {outside[0]} is not one of the model's {n_features}")
    stack, visits = [0], 0
    while stack and visits < n and stack[-1] == visits:
        node = stack.pop()
        visits += 1
        if tree.feature[node] >= 0:
            stack += [tree.right[node], tree.left[node]]
    if stack or visits < n:
        raise ValidationError(
            f"tree nodes are not in preorder: a walk from the root strays at node {visits} of {n}"
        )
    return tree


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
            "standardization": plain(model.standardization),
        }
    if isinstance(model, TreeEnsembleModel):
        return {
            "format": MODEL_FORMAT,
            "family": model.kind,
            "hyperparameters": {k: v for k, v in plain(model.params).items() if k != "kind"},
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
            standardization=Standardization(**data["standardization"]),
        )
    feature_names = tuple(data["feature_names"])
    hyperparameters = data["hyperparameters"]
    for key in hyperparameters:
        if key not in _ENSEMBLE_HYPERPARAMETERS:
            raise ValidationError(f"unknown ensemble hyperparameter {key!r}")
    return TreeEnsembleModel(
        kind=family,
        trees=tuple(_tree_from_dict(t, len(feature_names)) for t in data["trees"]),
        params=EnsembleParams(kind=family, **hyperparameters),
        feature_names=feature_names,
        base_score=float(data.get("base_score", 0.0)),
    )


def scorer_to_dict(scorer: CalibratedScorer) -> dict:
    return {
        "format": MODEL_FORMAT,
        "model": model_to_dict(scorer.model),
        "calibration": plain(scorer.isotonic),
        "rule": plain(scorer.rule),
    }


def scorer_from_dict(data: dict) -> CalibratedScorer:
    return CalibratedScorer(
        model=model_from_dict(data["model"]),
        isotonic=IsotonicMap(**data["calibration"]),
        rule=DecisionRule(**data["rule"]),
    )
