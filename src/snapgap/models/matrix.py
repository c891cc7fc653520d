"""Design matrix container and train-time standardization."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class Standardization:
    mean: np.ndarray
    sd: np.ndarray  # population sd; constant features carry sd=1

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "sd", np.asarray(self.sd, dtype=float))

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.mean.shape[0]:
            raise ValidationError(
                f"expected {self.mean.shape[0]} features, got shape {X.shape}"
            )
        return (X - self.mean) / self.sd


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d predictor matrix with binary labels, no missing entries."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    standardization: Standardization | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValidationError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[0] < 2:
            raise ValidationError("need at least 2 rows")
        if X.shape[1] != len(self.feature_names):
            raise ValidationError(
                f"{X.shape[1]} columns but {len(self.feature_names)} feature names"
            )
        if not np.all(np.isfinite(X)):
            raise ValidationError("X contains missing or non-finite entries")
        if not np.isin(y, (0, 1)).all():
            raise ValidationError("labels must be 0/1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx: np.ndarray) -> "FeatureMatrix":
        return replace(self, X=self.X[idx], y=self.y[idx])


def standardize(fm: FeatureMatrix) -> FeatureMatrix:
    """Center and scale each column to mean 0, sd 1 on this (training) data.

    Constant columns are centered and passed through with sd treated as 1,
    with a warning. The fitted (mean, sd) ride along for test-time use.
    """
    mean = fm.X.mean(axis=0)
    sd = fm.X.std(axis=0)  # population sd
    constant = sd == 0.0
    if constant.any():
        names = [fm.feature_names[j] for j in np.flatnonzero(constant)]
        warnings.warn(f"constant feature(s) passed through centered: {names}")
        sd = np.where(constant, 1.0, sd)
    std = Standardization(mean=mean, sd=sd)
    return replace(fm, X=std.apply(fm.X), standardization=std)
