"""Isotonic score calibration and probability-to-decision rules.

Raw classifier scores are mapped to calibrated probabilities by isotonic
regression (pool-adjacent-violators on held-out score/label pairs), then
converted to flags by a threshold rule. The default rule anchors the cutoff
to training prevalence so flagged counts stay commensurate with historical
incidence; a Youden rule (maximize TPR - FPR) is available as an alternative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CohortError, ValidationError

POLICY_PREVALENCE = "prevalence_anchored"
POLICY_YOUDEN = "youden"


@dataclass(frozen=True)
class IsotonicMap:
    """Monotone score -> probability map as (breakpoint, value) pairs."""

    scores: np.ndarray  # strictly increasing
    values: np.ndarray  # non-decreasing, in [0, 1]
    fitted_on: int

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not self.scores.size or self.scores.shape != self.values.shape:
            raise ValidationError(
                f"breakpoint scores and calibrated values must be non-empty and of one length, "
                f"got {self.scores.size} and {self.values.size}"
            )
        if np.any(np.diff(self.scores) <= 0):
            raise ValidationError("breakpoint scores must be strictly increasing")
        if np.any(np.diff(self.values) < -1e-15):
            raise ValidationError("calibrated values must be non-decreasing")


@dataclass(frozen=True)
class DecisionRule:
    policy: str
    threshold: float
    source_prevalence: float | None = None


def fit_isotonic(scores: Sequence[float], labels: Sequence[float]) -> IsotonicMap:
    """Pool-adjacent-violators fit of labels on scores.

    Exact score ties are pooled into one point (weighted by multiplicity)
    before the PAV sweep. The result is the least-squares projection of the
    labels onto the monotone cone and preserves the label mean.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError("scores and labels must be equal-length 1-D sequences")
    if s.size < 2:
        raise CohortError(f"need at least 2 pairs, got {s.size}")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
        raise ValidationError("scores and labels must be finite")

    order = np.argsort(s, kind="stable")
    s, y = s[order], y[order]
    # pool exact ties
    uniq, start = np.unique(s, return_index=True)
    boundaries = np.append(start, s.size)
    xs, means, weights = [], [], []
    for i in range(len(uniq)):
        a, b = boundaries[i], boundaries[i + 1]
        xs.append(uniq[i])
        weights.append(float(b - a))
        means.append(float(y[a:b].mean()))

    # PAV sweep: merge adjacent blocks while any decrease remains
    vals: list[float] = []
    wts: list[float] = []
    sizes: list[int] = []
    for v, w in zip(means, weights):
        vals.append(v)
        wts.append(w)
        sizes.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, w2 = vals.pop(), wts.pop()
            n2 = sizes.pop()
            vals[-1] = (vals[-1] * wts[-1] + v2 * w2) / (wts[-1] + w2)
            wts[-1] += w2
            sizes[-1] += n2

    fitted = np.repeat(vals, sizes)
    return IsotonicMap(scores=np.asarray(xs), values=fitted, fitted_on=s.size)


def apply_isotonic(iso: IsotonicMap, scores: np.ndarray) -> np.ndarray:
    """Calibrated values: linear between breakpoints, clamped outside."""
    return np.interp(scores, iso.scores, iso.values)


def prevalence_threshold(train_prevalence: float) -> DecisionRule:
    """Flag when calibrated probability >= the training-period prevalence."""
    if not 0.0 < train_prevalence < 1.0:
        raise ValidationError(f"prevalence must be in (0,1), got {train_prevalence}")
    return DecisionRule(
        policy=POLICY_PREVALENCE,
        threshold=train_prevalence,
        source_prevalence=train_prevalence,
    )


def youden_threshold(scores: Sequence[float], labels: Sequence[int]) -> DecisionRule:
    """Cutpoint maximizing TPR - FPR over midpoints of adjacent distinct scores.

    The candidate set also includes a flag-all sentinel (the minimum score;
    flagging is inclusive) and a flag-none sentinel just above the maximum.
    Ties break toward the higher threshold, i.e. fewer flags.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise CohortError("Youden threshold needs both classes")

    uniq, inverse = np.unique(s, return_inverse=True)
    m = len(uniq)
    pos_at = np.bincount(inverse, weights=y == 1, minlength=m)
    neg_at = np.bincount(inverse, weights=y == 0, minlength=m)
    # cutpoint i flags every score >= uniq[i]; i == m flags none
    tp = np.append(np.cumsum(pos_at[::-1])[::-1], 0.0)
    fp = np.append(np.cumsum(neg_at[::-1])[::-1], 0.0)
    j = tp / n_pos - fp / n_neg
    i = m - int(np.argmax(j[::-1]))  # last maximum: the higher threshold on ties
    if i == 0:
        best_t = float(uniq[0])
    elif i < m:
        best_t = (uniq[i - 1] + uniq[i]) / 2.0
        if best_t <= uniq[i - 1]:  # fp collapse between adjacent doubles
            best_t = float(uniq[i])
    else:
        best_t = math.nextafter(float(uniq[-1]), math.inf)
    return DecisionRule(policy=POLICY_YOUDEN, threshold=float(best_t))


def classify(probabilities: Sequence[float], rule: DecisionRule) -> np.ndarray:
    """Binary decisions: 1 where probability >= threshold (inclusive)."""
    p = np.asarray(probabilities, dtype=float)
    return (p >= rule.threshold).astype(int)


def reliability_curve(
    probabilities: Sequence[float], labels: Sequence[int], bins: int
) -> list[dict]:
    """Occupied equal-width bins with mean prediction and observed rate."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels, dtype=float)
    idx = np.clip((p * bins).astype(int), 0, bins - 1)
    rows = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            continue
        rows.append(
            {
                "bin_center": (b + 0.5) / bins,
                "mean_predicted": float(p[mask].mean()),
                "observed_rate": float(y[mask].mean()),
                "count": count,
            }
        )
    return rows

