"""Stratified cross-validated grid search over the three model families.

Hyperparameters win on mean validation Average Precision; ties go to the
simpler candidate (lower C, then fewer and shallower trees). Fold assignment
is seeded and stratified: positives and negatives are shuffled separately and
dealt round-robin, so per-fold class counts differ by at most one.

`n_trees` is a prefix axis. Forest trees draw from per-index RNG streams and
boosting is stagewise, so tree i of a fit does not depend on how many trees
follow it. Tree candidates that differ only in `n_trees` therefore share one
fit per fold, of their largest count, and each is scored from its first k
trees: the same floats, added in the same order, as a fit of k trees.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..errors import TooFewPositives, ValidationError
from ..rng import STREAM_FOLDS, derive_rng
from ..metrics import average_precision
from .ensemble import KIND_BOOSTING, KIND_FOREST, EnsembleParams, fit_tree_ensemble
from .logistic import WEIGHTING_BALANCED, fit_logistic
from .matrix import FeatureMatrix

FAMILY_LOGISTIC = "logistic"
FAMILY_FOREST = KIND_FOREST
FAMILY_BOOSTING = KIND_BOOSTING

FAMILIES = (FAMILY_LOGISTIC, FAMILY_FOREST, FAMILY_BOOSTING)
TREE_FAMILIES = (FAMILY_FOREST, FAMILY_BOOSTING)

# Unlimited depth is paired with a larger leaf floor to bound tree size.
DEFAULT_GRIDS: dict[str, list[dict]] = {
    FAMILY_LOGISTIC: [{"c": c} for c in (0.01, 0.1, 1.0, 10.0, 100.0)],
    FAMILY_FOREST: [
        {"n_trees": t, "max_depth": d, "min_leaf": 1 if d is not None else 5}
        for t in (100, 300)
        for d in (3, 5, None)
    ],
    FAMILY_BOOSTING: [
        {"n_trees": t, "max_depth": d, "learning_rate": lr}
        for lr in (0.05, 0.1)
        for d in (2, 3)
        for t in (100, 300)
    ],
}


def stratified_folds(y: Sequence[int], folds: int, seed: int) -> list[np.ndarray]:
    """Validation index arrays for k stratified folds.

    Raises TooFewPositives when some fold would hold no positive (or no
    negative), reporting the largest feasible fold count.
    """
    y = np.asarray(y, dtype=int)
    if folds < 2:
        raise ValidationError(f"need at least 2 folds, got {folds}")
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    feasible = min(len(pos), len(neg))
    if feasible < folds:
        raise TooFewPositives(
            f"{len(pos)} positives / {len(neg)} negatives cannot fill {folds} folds; "
            f"minimum feasible folds: {feasible}"
        )
    rng = derive_rng(seed, STREAM_FOLDS)
    pos = pos[rng.permutation(len(pos))]
    neg = neg[rng.permutation(len(neg))]
    return [np.sort(np.concatenate([pos[i::folds], neg[i::folds]])) for i in range(folds)]


def _ensemble_params(family: str, params: dict, seed: int) -> EnsembleParams:
    return EnsembleParams(
        kind=family,
        n_trees=params.get("n_trees", 100),
        max_depth=params.get("max_depth"),
        min_leaf=params.get("min_leaf", 1),
        learning_rate=params.get("learning_rate", 0.1),
        max_features=params.get("max_features"),
        class_weighting=WEIGHTING_BALANCED,
        seed=seed,
    )


def fit_family(fm: FeatureMatrix, family: str, params: dict, seed: int):
    """Dispatch one (family, hyperparameters) fit."""
    if family == FAMILY_LOGISTIC:
        return fit_logistic(fm, c=params.get("c", 1.0), weighting=WEIGHTING_BALANCED)
    if family in TREE_FAMILIES:
        return fit_tree_ensemble(fm, _ensemble_params(family, params, seed))
    raise ValidationError(f"unknown model family {family!r}")


def _simplicity_key(family: str, params: dict) -> tuple:
    """Rank a candidate by the values it is fitted with, defaults included."""
    if family == FAMILY_LOGISTIC:
        return (params.get("c", 1.0),)
    ep = _ensemble_params(family, params, seed=0)
    depth_rank = np.inf if ep.max_depth is None else ep.max_depth
    return (ep.n_trees, depth_rank, ep.learning_rate)


@dataclass
class GridEntry:
    params: dict
    mean_ap: float
    fold_aps: list[float]


@dataclass
class CvGridResult:
    family: str
    grid: list[GridEntry]
    winner: dict
    folds: int
    oof_proba: np.ndarray = field(repr=False, default=None)  # winner's out-of-fold scores


def out_of_fold_proba(
    fm: FeatureMatrix,
    family: str,
    params: dict,
    fold_idx: list[np.ndarray],
    seed: int,
    prefixes: Sequence[int] | None = None,
) -> np.ndarray:
    """Held-out predictions for every row, each from the fit on the other folds.

    With `prefixes`, tree counts no larger than the fitted one, the result
    has one row per count instead: row i holds the predictions of the first
    prefixes[i] trees of each fold's fit. Tree i does not depend on the
    ensemble size, so these equal the predictions of a fit of that size.
    """
    counts = [None] if prefixes is None else list(prefixes)
    proba = np.empty((len(counts), fm.n))
    all_idx = np.arange(fm.n)
    for val in fold_idx:
        train = np.setdiff1d(all_idx, val)
        model = fit_family(fm.subset(train), family, params, seed)
        for row, k in zip(proba, counts):
            first_k = model
            if k is not None and k != len(model.trees):
                first_k = replace(
                    model, trees=model.trees[:k], params=replace(model.params, n_trees=k)
                )
            row[val] = first_k.predict_proba(fm.X[val])
    return proba[0] if prefixes is None else proba


def _grid_proba(
    fm: FeatureMatrix, family: str, candidates: list[dict], fold_idx: list[np.ndarray], seed: int
) -> list[np.ndarray]:
    """Out-of-fold predictions of each candidate, in order.

    Tree candidates whose resolved `EnsembleParams` differ only in `n_trees`
    share one fit per fold, of their largest count; each is scored from its
    prefix of those trees. Every candidate's parameters are validated before
    any fit is shared, so an invalid count raises as it would on its own.
    """
    if family not in TREE_FAMILIES:
        return [out_of_fold_proba(fm, family, p, fold_idx, seed) for p in candidates]
    groups: dict[EnsembleParams, list[int]] = {}
    counts = []
    for i, params in enumerate(candidates):
        ep = _ensemble_params(family, params, seed)
        ep.validate()
        counts.append(ep.n_trees)
        groups.setdefault(replace(ep, n_trees=0), []).append(i)
    out: list[np.ndarray] = [None] * len(candidates)
    for members in groups.values():
        largest = max(members, key=counts.__getitem__)
        rows = out_of_fold_proba(
            fm, family, candidates[largest], fold_idx, seed, prefixes=[counts[i] for i in members]
        )
        for i, row in zip(members, rows):
            out[i] = row
    return out


def cv_grid_search(
    fm: FeatureMatrix,
    grids: dict[str, list[dict]] | None = None,
    folds: int = 5,
    seed: int = 0,
) -> dict[str, CvGridResult]:
    """Grid search each family with shared stratified folds.

    Candidates are evaluated in simplicity order and replaced only on a
    strictly better mean AP, so exact ties resolve toward the simpler model.
    Each candidate's fold AP is read off its out-of-fold predictions, and the
    winner's predictions ride along for calibration without a refit.
    """
    grids = DEFAULT_GRIDS if grids is None else grids
    fold_idx = stratified_folds(fm.y, folds, seed)
    results: dict[str, CvGridResult] = {}
    for family, candidates in grids.items():
        entries: list[GridEntry] = []
        best_entry: GridEntry | None = None
        ordered = sorted(candidates, key=lambda p: _simplicity_key(family, p))
        for params, proba in zip(ordered, _grid_proba(fm, family, ordered, fold_idx, seed)):
            fold_aps = [average_precision(proba[val], fm.y[val]) for val in fold_idx]
            entry = GridEntry(params=params, mean_ap=float(np.mean(fold_aps)), fold_aps=fold_aps)
            entries.append(entry)
            if best_entry is None or entry.mean_ap > best_entry.mean_ap:
                best_entry, oof = entry, proba
        results[family] = CvGridResult(
            family=family,
            grid=entries,
            winner=best_entry.params,
            folds=folds,
            oof_proba=oof,
        )
    return results
