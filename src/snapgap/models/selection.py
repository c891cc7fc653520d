"""Stratified cross-validated grid search over the three model families.

Hyperparameters win on mean validation Average Precision; ties go to the
simpler candidate (lower C, then fewer and shallower trees). Fold assignment
is seeded and stratified: positives and negatives are shuffled separately and
dealt round-robin, so per-fold class counts differ by at most one.

A logistic candidate whose fit fails to converge on some fold keeps its
first failing fold's error as its grid entry and cannot win; the search
fails only when every candidate of a family does.

A search is put together from folds: `fold_proba` fits every candidate of a
family on one fold's training rows and writes its predictions for the
fold's held-out rows into one out-of-fold matrix, and `cv_grid_search`
reads each candidate's fold APs and out-of-fold scores off that matrix.
Folds do not depend on each other, so the pipeline runs each fold of a
tree-family search as its own worker-pool unit, all writing one shared
matrix, and hands it to `cv_grid_search`, which picks the same winner from
the same floats as when it makes the calls itself.

`n_trees` is a prefix axis. Forest trees draw from per-index RNG streams and
boosting is stagewise, so tree i of a fit does not depend on how many trees
follow it. Tree candidates that differ only in `n_trees` therefore share one
fit per fold, of their largest count, and each is scored from its first k
trees: the same floats, added in the same order, as a fit of k trees.

The candidates of a family share each fold's training matrix, built and
checked once per fold. For logistic fits it is also standardized once, and
a fit given a standardized matrix uses that standardization as it is: the
same arrays as a fit that standardizes its own copy.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from inspect import signature
from typing import Sequence, get_type_hints

import numpy as np

from ..errors import CohortError, NonConvergence, ValidationError
from ..rng import STREAM_FOLDS, derive_rng
from ..metrics import average_precision
from .ensemble import KIND_BOOSTING, KIND_FOREST, EnsembleParams, fit_tree_ensemble
from .logistic import check_l2_strength, fit_logistic
from .matrix import FeatureMatrix, standardize

FAMILY_LOGISTIC = "logistic"
FAMILY_FOREST = KIND_FOREST
FAMILY_BOOSTING = KIND_BOOSTING

FAMILIES = (FAMILY_LOGISTIC, FAMILY_FOREST, FAMILY_BOOSTING)
TREE_FAMILIES = (FAMILY_FOREST, FAMILY_BOOSTING)

# The keys a grid candidate of each family may set, with their types: the
# parameters of the family's fit that the run does not fix itself. Their
# defaults are those of `fit_logistic` and `EnsembleParams`.
_ENSEMBLE_TYPES = get_type_hints(EnsembleParams)
GRID_PARAMETERS: dict[str, dict[str, object]] = {
    FAMILY_LOGISTIC: {"c": get_type_hints(fit_logistic)["c"]},
    **dict.fromkeys(
        TREE_FAMILIES,
        {
            f.name: _ENSEMBLE_TYPES[f.name]
            for f in fields(EnsembleParams)
            if f.name not in ("kind", "seed")
        },
    ),
}
_DEFAULT_C = signature(fit_logistic).parameters["c"].default

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

    Raises CohortError when some fold would hold no positive (or no
    negative), reporting the largest feasible fold count.
    """
    y = np.asarray(y, dtype=int)
    if folds < 2:
        raise ValidationError(f"need at least 2 folds, got {folds}")
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    feasible = min(len(pos), len(neg))
    if feasible < folds:
        raise CohortError(
            f"{len(pos)} positives / {len(neg)} negatives cannot fill {folds} folds; "
            f"minimum feasible folds: {feasible}"
        )
    rng = derive_rng(seed, STREAM_FOLDS)
    pos = pos[rng.permutation(len(pos))]
    neg = neg[rng.permutation(len(neg))]
    return [np.sort(np.concatenate([pos[i::folds], neg[i::folds]])) for i in range(folds)]


def fit_family(fm: FeatureMatrix, family: str, params: dict, seed: int):
    """Dispatch one (family, hyperparameters) fit; `params` holds keys of
    `GRID_PARAMETERS[family]`, and the fit's own defaults fill the rest."""
    if family == FAMILY_LOGISTIC:
        return fit_logistic(fm, **params)
    if family in TREE_FAMILIES:
        return fit_tree_ensemble(fm, EnsembleParams(kind=family, seed=seed, **params))
    raise ValidationError(f"unknown model family {family!r}")


def check_candidate(family: str, params: dict) -> None:
    """Raise the `ValidationError` that fitting grid candidate `params` of
    `family` would: a logistic `c` that is not positive, or tree parameters
    that `EnsembleParams` rejects when built."""
    if family == FAMILY_LOGISTIC:
        check_l2_strength(params.get("c", _DEFAULT_C))
    else:
        EnsembleParams(kind=family, **params)


def _simplicity_key(family: str, params: dict) -> tuple:
    """Rank a candidate by the values it is fitted with, defaults included."""
    if family == FAMILY_LOGISTIC:
        return (params.get("c", _DEFAULT_C),)
    ep = EnsembleParams(kind=family, **params)
    depth_rank = np.inf if ep.max_depth is None else ep.max_depth
    return (ep.n_trees, depth_rank, ep.learning_rate)


@dataclass
class GridEntry:
    params: dict
    mean_ap: float  # NaN when the candidate failed
    fold_aps: list[float]
    error: str | None = None


@dataclass
class CvGridResult:
    grid: list[GridEntry]
    winner: dict
    oof_proba: np.ndarray = field(repr=False)  # winner's out-of-fold scores


def fold_proba(
    fm: FeatureMatrix,
    family: str,
    candidates: Sequence[dict],
    val: np.ndarray,
    seed: int,
    out: np.ndarray,
) -> list[NonConvergence | None]:
    """One fold of the grid search: write each candidate's predictions for
    the rows `val`, from its fit on the other rows, to `out[i, val]`, and
    return for each candidate the `NonConvergence` its fit raised (only
    logistic fits can raise it; that candidate's row is left as it was), or
    None.

    All candidates share the fold's training matrix, standardized here for
    logistic fits. Tree candidates whose resolved `EnsembleParams` differ
    only in `n_trees` also share one fit, of their largest count; each is
    scored from its prefix of those trees. Every candidate's `EnsembleParams`
    is built, and so checked, before any fit is shared, so an invalid count
    raises as it would on its own.
    """
    keep = np.ones(fm.n, dtype=bool)
    keep[val] = False
    train = fm.subset(np.flatnonzero(keep))
    X_val = fm.X[val]
    errors: list[NonConvergence | None] = [None] * len(candidates)
    if family not in TREE_FAMILIES:
        if family == FAMILY_LOGISTIC:
            train = standardize(train)
        for i, params in enumerate(candidates):
            try:
                out[i, val] = fit_family(train, family, params, seed).predict_proba(X_val)
            except NonConvergence as exc:
                errors[i] = exc
        return errors
    groups: dict[tuple, list[int]] = {}
    counts = []
    for i, params in enumerate(candidates):
        ep = EnsembleParams(kind=family, seed=seed, **params)
        counts.append(ep.n_trees)
        key = tuple(getattr(ep, f.name) for f in fields(ep) if f.name != "n_trees")
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        largest = max(members, key=counts.__getitem__)
        model = fit_family(train, family, candidates[largest], seed)
        for i in members:
            first_k = model
            if counts[i] != len(model.trees):
                first_k = replace(
                    model,
                    trees=model.trees[: counts[i]],
                    params=replace(model.params, n_trees=counts[i]),
                )
            out[i, val] = first_k.predict_proba(X_val)
    return errors


def cv_grid_search(
    fm: FeatureMatrix,
    family: str,
    candidates: list[dict],
    *,
    folds: int,
    seed: int,
    fold_results: tuple[np.ndarray, list[list]] | None = None,
) -> CvGridResult:
    """Grid search one family's `candidates` over stratified folds.

    Candidates are evaluated in simplicity order and replaced only on a
    strictly better mean AP, so exact ties resolve toward the simpler model.
    Each candidate's fold AP is read off its out-of-fold predictions, and the
    winner's predictions ride along for calibration without a refit. A
    candidate whose fit raised `NonConvergence` on some fold is an entry with
    the error of its first such fold; `NonConvergence` is raised when no
    candidate is left.

    The predictions come from `fold_proba`, one call per fold with the
    candidates as listed. `fold_results`, when given, holds what those calls
    made elsewhere: the (candidates, rows) matrix they filled and their
    returns in fold order (the pipeline makes them in worker processes). The
    folds are drawn here all the same, so a cohort they cannot fill raises
    as it would without them.
    """
    fold_idx = stratified_folds(fm.y, folds, seed)
    if fold_results is None:
        oof = np.empty((len(candidates), fm.n))
        fold_errors = [fold_proba(fm, family, candidates, val, seed, oof) for val in fold_idx]
    else:
        oof, fold_errors = fold_results
    entries: list[GridEntry] = []
    best_entry: GridEntry | None = None
    for i in sorted(range(len(candidates)), key=lambda i: _simplicity_key(family, candidates[i])):
        params = candidates[i]
        failed = [errors[i] for errors in fold_errors if errors[i] is not None]
        if failed:
            entries.append(GridEntry(params, np.nan, [], error=str(failed[0])))
            continue
        fold_aps = [average_precision(oof[i, val], fm.y[val]) for val in fold_idx]
        entry = GridEntry(params=params, mean_ap=float(np.mean(fold_aps)), fold_aps=fold_aps)
        entries.append(entry)
        if best_entry is None or entry.mean_ap > best_entry.mean_ap:
            best_entry, best = entry, i
    if best_entry is None:
        raise NonConvergence(f"no {family} grid candidate converged: {entries[0].error}")
    return CvGridResult(grid=entries, winner=best_entry.params, oof_proba=oof[best].copy())
