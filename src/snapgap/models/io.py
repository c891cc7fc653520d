"""Versioned JSON serialization for fitted models and calibrated scorers.

Most blocks of a model or scorer file are derived from their records by
`jsonio.plain`: the isotonic map, the decision rule, the ensemble
hyperparameters (every `EnsembleParams` field but `kind`, which the file's
`family` holds) and the logistic standardization. Two parts are mapped by
hand:

- the tree node lists, column by column with NaN as null: `plain` would
  leave their NaN thresholds and values as NaN, not null, and its
  per-element walk of a 100-tree, 39k-node forest took 0.20 s, against
  0.011 s for the column-at-a-time lists (2-core Xeon VM);
- the rest of a logistic model, whose file form is not its fields: the
  `c` of its `hyperparameters` is the field `l2_strength`, and the fit
  diagnostics `n_iter` and `grad_norm` are not written. Deriving it would
  change the bytes of every logistic scorer file.

Both families' `hyperparameters` hold the constant `"class_weighting":
"balanced"`, which no record holds: every fit is balanced (see `logistic`).
A reader refuses, with a `ValidationError` naming it, a key that is missing
or mistyped, an unknown hyperparameter, or another `format`, `family` or
`class_weighting` (`jsonio.read_shape`); `_tree_from_dict` checks node lists:
their elements' types, as JSON reads them (a bool is no number), their
lengths, their features and their order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from ..calibration import DecisionRule, IsotonicMap
from ..errors import ValidationError
from ..jsonio import NUMBER, NUMBER_OR_NULL, plain, read_shape
from .ensemble import EnsembleParams, TreeEnsembleModel
from .logistic import WEIGHTING_BALANCED, LogisticModel
from .matrix import Standardization
from .selection import FAMILIES, FAMILY_LOGISTIC, TREE_FAMILIES
from .tree import DecisionTree

MODEL_FORMAT = "snapgap-model/1"

# The shape of each field type of a record as `plain` writes it; any other
# type is its own shape.
_FIELD_SHAPES = {float: NUMBER, float | None: NUMBER_OR_NULL, np.ndarray: [NUMBER]}


def _shape_of(cls, *skip: str) -> dict:
    """The `jsonio.read_shape` shape of `plain` of a `cls` record, but fields `skip`."""
    return {k: _FIELD_SHAPES.get(t, t) for k, t in get_type_hints(cls).items() if k not in skip}


_MODEL_SHAPES = {
    FAMILY_LOGISTIC: {
        "format": MODEL_FORMAT,
        "hyperparameters": {"c": NUMBER, "class_weighting": WEIGHTING_BALANCED},
        "feature_names": [str],
        "coefficients": [NUMBER],
        "intercept": NUMBER,
        "standardization": _shape_of(Standardization),
    },
    **dict.fromkeys(
        TREE_FAMILIES,
        {
            "format": MODEL_FORMAT,
            "hyperparameters": {**_shape_of(EnsembleParams, "kind"), "class_weighting": WEIGHTING_BALANCED},
            "feature_names": [str],
            "base_score": NUMBER,
            "trees": [dict.fromkeys((f.name for f in fields(DecisionTree)), list)],
        },
    ),
}
_SCORER_SHAPE = {
    "format": MODEL_FORMAT,
    "model": {},
    "calibration": _shape_of(IsotonicMap),
    "rule": _shape_of(DecisionRule),
}


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


# The types each node list's elements may have, as JSON reads them, and their name.
_NODE_TYPES = {
    **dict.fromkeys(("feature", "left", "right"), ({int}, "an integer")),
    **dict.fromkeys(("threshold", "value"), ({int, float, type(None)}, "a number or null")),
}


def _tree_from_dict(data: dict, n_features: int, where: str) -> DecisionTree:
    """The tree of a node list in preorder, by which the leaf masks number
    its leaves (see `tree.py`). Raises a `ValidationError` on a list element
    of another type than `_NODE_TYPES` gives, naming it from `where`, on a
    node feature outside -1 (a leaf) to `n_features` - 1, or unless a
    preorder walk from the root, stopped after n visits, visits nodes 0 to
    n - 1 in turn and then ends."""
    for key, (allowed, name) in _NODE_TYPES.items():
        if not set(map(type, data[key])) <= allowed:
            i = next(i for i, v in enumerate(data[key]) if type(v) not in allowed)
            raise ValidationError(f"{where}.{key}[{i}]: expected {name}")
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
            "hyperparameters": {"c": model.l2_strength, "class_weighting": WEIGHTING_BALANCED},
            "feature_names": list(model.feature_names),
            "coefficients": [float(c) for c in model.coefficients],
            "intercept": model.intercept,
            "standardization": plain(model.standardization),
        }
    if isinstance(model, TreeEnsembleModel):
        hyperparameters = {k: v for k, v in plain(model.params).items() if k != "kind"}
        return {
            "format": MODEL_FORMAT,
            "family": model.params.kind,
            "hyperparameters": {**hyperparameters, "class_weighting": WEIGHTING_BALANCED},
            "feature_names": list(model.feature_names),
            "base_score": model.base_score,
            "trees": [_tree_to_dict(t) for t in model.trees],
        }
    raise ValidationError(f"cannot serialize model of type {type(model)!r}")


def _record(cls, block: dict):
    """The record `cls` of the fields of a checked `block`; other keys are not read."""
    return cls(**{f.name: block[f.name] for f in fields(cls)})


def model_from_dict(data, where: str = "model"):
    """The model of model file data `data`. Raises a `ValidationError`
    naming, from `where`, the first part `model_to_dict` would not write."""
    family = data.get("family") if isinstance(data, dict) else None
    if family not in FAMILIES:
        raise ValidationError(f"{where}.family: expected one of {', '.join(FAMILIES)}")
    shape = _MODEL_SHAPES[family]
    data = read_shape(data, shape, where)
    hyperparameters = data["hyperparameters"]
    unknown = sorted(hyperparameters.keys() - shape["hyperparameters"].keys())
    if unknown:
        kind = "logistic" if family == FAMILY_LOGISTIC else "ensemble"
        raise ValidationError(f"{where}.hyperparameters: unknown {kind} hyperparameter {unknown[0]!r}")
    feature_names = tuple(data["feature_names"])
    if family == FAMILY_LOGISTIC:
        return LogisticModel(
            coefficients=np.asarray(data["coefficients"], dtype=float),
            intercept=float(data["intercept"]),
            l2_strength=float(hyperparameters["c"]),
            feature_names=feature_names,
            standardization=_record(Standardization, data["standardization"]),
        )
    params = {k: v for k, v in hyperparameters.items() if k != "class_weighting"}
    return TreeEnsembleModel(
        trees=tuple(
            _tree_from_dict(t, len(feature_names), f"{where}.trees[{i}]")
            for i, t in enumerate(data["trees"])
        ),
        params=EnsembleParams(kind=family, **params),
        feature_names=feature_names,
        base_score=float(data["base_score"]),
    )


def scorer_to_dict(model: dict, isotonic: IsotonicMap, rule: DecisionRule) -> dict:
    """Scorer file data: a model as `model_to_dict` converted it, with its
    isotonic map and decision rule."""
    return {
        "format": MODEL_FORMAT,
        "model": model,
        "calibration": plain(isotonic),
        "rule": plain(rule),
    }


def scorer_from_dict(data) -> CalibratedScorer:
    """The scorer of scorer file data `data`; see `model_from_dict`."""
    data = read_shape(data, _SCORER_SHAPE, "scorer")
    return CalibratedScorer(
        model=model_from_dict(data["model"], "scorer.model"),
        isotonic=_record(IsotonicMap, data["calibration"]),
        rule=_record(DecisionRule, data["rule"]),
    )
