"""Evaluation suite: ROC AUC, Average Precision, rule-based confusion
metrics, precision among the top-ranked fraction, and permutation importance.

Rank metrics order rows by score descending with a stable sort, so exact
score ties resolve toward the earlier input index; that convention is shared
with the brute-force oracles in the test suite. A score vector is sorted
once (`_ranked`), and AUC, AP and precision@k all read that one order. The
scores must be finite: NaN has no place in that order, so a non-finite score
is a `ValidationError`. All functions are pure.

The order is `stable_argsort`'s, which is `np.argsort(v, kind="stable")`
exactly, from numpy's faster unstable argsort: scores without ties have only
one ascending order, and when some tie, one more argsort of unique integer
keys puts each tie group in index order.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import DecisionRule, classify
from .errors import CohortError, ValidationError
from .rng import STREAM_PERMUTE, derive_rng


def _as_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError("scores and labels must be equal-length 1-D sequences")
    return s, y


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """`np.argsort(values, kind="stable")` of a 1-D array without NaN, from
    the unstable argsort: it can differ only within a run of equal values
    (-0.0 equals 0.0), so when adjacent sorted values tie, each value's key
    is its run's number times n plus its index, and those unique keys have
    one order, the stable one."""
    order = np.argsort(values)
    s = values[order]
    tie = s[1:] == s[:-1]
    if not tie.any():
        return order
    run = np.empty(s.size, dtype=np.int64)
    run[order] = np.concatenate(([0], np.cumsum(~tie)))
    return np.argsort(run * s.size + np.arange(s.size))


def _ranked(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """The scores and labels in descending stable order of score."""
    s, y = _as_arrays(scores, labels)
    if not np.isfinite(s).all():
        raise ValidationError("scores must be finite")
    order = stable_argsort(-s)
    return s[order], y[order]


def _auc_ranked(s: np.ndarray, y: np.ndarray) -> float:
    """`roc_auc` of scores `s` and labels `y` in descending order. A tie
    group at descending positions [a, b) has the average ascending 1-based
    rank ((n - b) + 1 + (n - a)) / 2; every rank is a half-integer, so the
    rank sum is exact in any order."""
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise CohortError("AUC needs both classes")
    n = len(s)
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], n]
    avg = ((n - ends) + 1 + (n - starts)) / 2.0
    ranks = np.repeat(avg, ends - starts)
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _ap_ranked(y: np.ndarray) -> float:
    """`average_precision` of labels `y` in descending order of score."""
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise CohortError("AP needs at least one positive")
    tp = np.cumsum(y)
    k = np.arange(1, len(y) + 1)
    return float(np.sum((tp / k) * y) / n_pos)


def _precision_at_ranked(y: np.ndarray, fraction: float) -> float:
    """`precision_at_k` of labels `y` in descending order of score."""
    if y.size == 0:
        raise ValidationError("precision@K of empty cohort")
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must be in (0,1], got {fraction}")
    k = math.ceil(fraction * y.size)
    return float(y[:k].sum() / k)


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outranks a random negative, ties count half."""
    return _auc_ranked(*_ranked(scores, labels))


def average_precision(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Step-interpolated AP: sum over positives of precision at their rank."""
    return _ap_ranked(_ranked(scores, labels)[1])


@dataclass(frozen=True)
class ConfusionMetrics:
    precision: float
    recall: float
    f1: float
    accuracy: float
    n_flagged: int
    tp: int
    fp: int
    fn: int
    tn: int


def confusion_at(
    probabilities: Sequence[float], labels: Sequence[int], rule: DecisionRule
) -> ConfusionMetrics:
    """Confusion arithmetic at a decision rule; precision is reported as 0
    (with a warning) when nothing is flagged."""
    p, y = _as_arrays(probabilities, labels)
    pred = classify(p, rule)
    tp = int(np.sum((pred == 1) & (y == 1)))
    fp = int(np.sum((pred == 1) & (y == 0)))
    fn = int(np.sum((pred == 0) & (y == 1)))
    tn = int(np.sum((pred == 0) & (y == 0)))
    flagged = tp + fp
    if flagged == 0:
        warnings.warn("decision rule flags nothing; precision reported as 0")
        precision = 0.0
    else:
        precision = tp / flagged
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = (tp + tn) / len(y)
    return ConfusionMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        n_flagged=flagged,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
    )


def precision_at_k(scores: Sequence[float], labels: Sequence[int], fraction: float) -> float:
    """Precision among the top ceil(fraction * n) rows by score.

    Boundary ties resolve by the stable descending order (lowest input index
    first), so the selected set is deterministic.
    """
    return _precision_at_ranked(_ranked(scores, labels)[1], fraction)


@dataclass(frozen=True)
class FeatureImportance:
    name: str
    delta_auc: float
    delta_ap: float
    repeats: int
    dispersion: float  # std of the AUC deltas across repeats


@dataclass(frozen=True)
class ImportanceReport:
    metric: str  # the metric whose deltas give the dispersion: always "auc"
    baseline_auc: float
    baseline_ap: float
    features: tuple[FeatureImportance, ...]


def permutation_importance(
    model,
    X: np.ndarray,
    labels: Sequence[int],
    *,
    repeats: int,
    seed: int = 0,
    base_scores: np.ndarray | None = None,
) -> ImportanceReport:
    """Mean AUC and AP drop when one predictor column is shuffled, and the
    standard deviation of the AUC drops.

    Each (feature, repeat) pair draws its permutation from its own seeded
    stream, so results do not depend on evaluation order. `base_scores`, when
    given, must be `model.predict_proba(X)`, which a caller that already has
    it need not compute again.

    The model scores every permuted copy in one `permuted_proba` call, from
    the (d, repeats, n) permutations: a tree ensemble from its leaf masks
    (see `models/tree.py`), a logistic model from each feature's copies
    stacked into one matrix. The permutations and their scores are two
    arrays of repeats * n * d words.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=int)
    names = tuple(model.feature_names)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise ValidationError(f"expected {len(names)} features, got shape {X.shape}")

    if base_scores is None:
        base_scores = model.predict_proba(X)
    s, ranked_y = _ranked(base_scores, y)
    baseline_auc, baseline_ap = _auc_ranked(s, ranked_y), _ap_ranked(ranked_y)

    n, d = X.shape
    perms = np.empty((d, repeats, n), dtype=np.intp)
    for j, r in np.ndindex(d, repeats):
        perms[j, r] = derive_rng(seed, STREAM_PERMUTE, j, r).permutation(n)
    results = []
    for name, scores in zip(names, model.permuted_proba(X, perms)):
        d_auc, d_ap = [], []
        for copy in scores:
            s, ranked_y = _ranked(copy, y)
            d_auc.append(baseline_auc - _auc_ranked(s, ranked_y))
            d_ap.append(baseline_ap - _ap_ranked(ranked_y))
        results.append(
            FeatureImportance(
                name=name,
                delta_auc=float(np.mean(d_auc)),
                delta_ap=float(np.mean(d_ap)),
                repeats=repeats,
                dispersion=float(np.std(d_auc)),
            )
        )
    return ImportanceReport(
        metric="auc",
        baseline_auc=baseline_auc,
        baseline_ap=baseline_ap,
        features=tuple(results),
    )


PRECISION_AT_FRACTIONS = (0.01, 0.05)


@dataclass(frozen=True)
class EvalReport:
    """Full metric suite for one (model, cohort) pair."""

    cohort: str
    model: str
    auc: float
    ap: float
    precision: float
    recall: float
    f1: float
    accuracy: float
    precision_at: dict[str, float]  # keyed by str(fraction)
    n: int
    n_pos: int
    rule: DecisionRule
    n_flagged: int = 0


def evaluate(
    probabilities: Sequence[float],
    labels: Sequence[int],
    rule: DecisionRule,
    cohort: str,
    model: str = "",
) -> EvalReport:
    """Assemble the full suite for one cohort at one decision rule."""
    p, y = _as_arrays(probabilities, labels)
    conf = confusion_at(p, y, rule)
    s, ranked_y = _ranked(p, y)
    return EvalReport(
        cohort=cohort,
        model=model,
        auc=_auc_ranked(s, ranked_y),
        ap=_ap_ranked(ranked_y),
        precision=conf.precision,
        recall=conf.recall,
        f1=conf.f1,
        accuracy=conf.accuracy,
        precision_at={str(f): _precision_at_ranked(ranked_y, f) for f in PRECISION_AT_FRACTIONS},
        n=len(y),
        n_pos=int(np.sum(y == 1)),
        rule=rule,
        n_flagged=conf.n_flagged,
    )
