"""Construct the eligibility set, uptake ratios, quantile thresholds, and target.

Labeling works on a columnar `Panel`: the poverty rate `p`, the raw uptake
ratio `s_raw`, the `eligible` mask and the target `y` are each one array
expression over all rows, aligned with the panel's rows. Missing values are
NaN, and unlabeled rows carry y = -1.

A unit-period row is *eligible* when its poverty rate clears the floor, its
uptake ratio is finite and positive, and all four structural predictors are
present. Within the eligible pool of its group, a row is flagged fragile
(y=1) when its poverty rate sits at or above the group's high-poverty
quantile AND its (capped) uptake ratio sits at or below the low-uptake
quantile. The groups are the values of a key column, `by`: all rows pooled,
each area, or each year. Ineligible rows stay unlabeled so they are
explicitly excluded rather than misclassified.

An OLS regression of benefit counts on poverty counts provides a residual
diagnostic: rows in the deep negative-residual tail that the quantile rule
did not flag are "hidden fragility" candidates. The residual column is a
value `fit_uptake_ols` returns, not a field of `LabeledPanel`: its callers
hand it on to `flag_hidden_fragility` or `write_labeled_panel`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CohortError, DegenerateDesign, ValidationError
from .ingest import Panel, flag_cells, write_csv
from .jsonio import plain, save_json

POOLED_KEY = "All"
UNLABELED = -1


@dataclass(frozen=True)
class LabelConfig:
    """Fixed design choices for target construction. The groups the
    thresholds are fitted in are the caller's `by`, not part of the rule."""

    poverty_floor: float = 0.15
    hi_q: float = 0.70
    lo_q: float = 0.10
    use_capped_uptake: bool = True  # threshold on min(s, 1); raw s kept for audit

    def __post_init__(self):
        if not 0.0 < self.lo_q < self.hi_q < 1.0:
            raise ValidationError(f"need 0 < lo_q < hi_q < 1, got {self.lo_q}, {self.hi_q}")
        if not 0.0 <= self.poverty_floor < 1.0:
            raise ValidationError(f"poverty_floor must be in [0, 1), got {self.poverty_floor}")


@dataclass(frozen=True)
class Thresholds:
    tau_hi: float
    tau_lo: float


@dataclass(eq=False)
class LabeledPanel:
    """A panel with its eligibility, thresholds and binary fragility target.

    `p`, `s_raw`, `eligible` and `y` (1 / 0, or UNLABELED) are columns
    aligned with `panel`.
    `thresholds` and `prevalences` are keyed by the values of the panel
    column named `by`, or by "All" when `by` is None. Every labeled row is
    labeled under exactly one key's thresholds.
    """

    panel: Panel
    p: np.ndarray
    s_raw: np.ndarray
    eligible: np.ndarray
    y: np.ndarray
    thresholds: dict[str | int, Thresholds]
    prevalence: float
    prevalences: dict[str | int, float] = field(default_factory=dict)
    by: str | None = None
    config: LabelConfig = field(default_factory=LabelConfig)

    @property
    def s_capped(self) -> np.ndarray:
        """Uptake capped at 1; a raw ratio above 1 is an anomaly, kept and flagged."""
        return np.minimum(self.s_raw, 1.0)

    def n_eligible(self) -> int:
        return int(np.count_nonzero(self.eligible))

    def n_positive(self) -> int:
        return int(np.count_nonzero(self.y == 1))

    def summary(self) -> dict:
        """The row counts, prevalences and thresholds, as JSON data: the
        part of a manifest's period entry and of the sidecar of
        `write_labeled_panel` that both write."""
        return {
            "n_rows": len(self.panel),
            "n_eligible": self.n_eligible(),
            "n_positive": self.n_positive(),
            "prevalence": self.prevalence,
            "prevalences": dict(sorted(self.prevalences.items())),
            "thresholds": plain(self.thresholds),
        }


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation sample quantile (index h = (n-1)q convention)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("quantile of empty list")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("quantile requires finite values")
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile level must be in (0,1), got {q}")
    return float(np.quantile(arr, q, method="linear"))


def uptake_ratio(panel: Panel) -> np.ndarray:
    """Benefit over poverty families, NaN unless poverty families are positive."""
    return np.divide(
        panel.snap_fam, panel.pov_fam, out=np.full(len(panel), np.nan), where=panel.pov_fam > 0
    )


def build_labels(
    panel: Panel,
    cfg: LabelConfig,
    thresholds: dict[str | int, Thresholds] | None = None,
    *,
    by: str | None = None,
) -> LabeledPanel:
    """Compute eligibility, thresholds, and the binary target for one panel.

    The poverty rate is the poverty count over the family universe when the
    universe is positive, else the precomputed rate column. The uptake ratio
    is benefit families over poverty families, defined only for a positive
    poverty count; zero uptake counts as missing for eligibility.

    One (tau_hi, tau_lo) pair is fitted on the eligible rows of each value
    of the panel column `by`: `None` pools every row under "All", `"area"`
    fits each area (Unknown too, whose rows are labeled descriptively but
    excluded from model fitting), and `"year"` each year.

    Supplied `thresholds` (frozen cutpoints, e.g. from the training period)
    replace the fit. Eligible rows whose key has no supplied pair stay
    unlabeled, and prevalences count labeled rows only.
    """
    n = len(panel)
    p = np.divide(
        panel.pov_fam, panel.fam_universe, out=panel.pov_rate.copy(), where=panel.fam_universe > 0
    )
    s_raw = uptake_ratio(panel)
    eligible = (
        np.isfinite(p)
        & (p > 0)
        & (p >= cfg.poverty_floor)
        & np.isfinite(s_raw)
        & (s_raw > 0)
        & ~np.isnan(panel.predictors).any(axis=1)
    )
    if not eligible.any():
        raise CohortError("no rows pass the eligibility filters")
    uptake = np.minimum(s_raw, 1.0) if cfg.use_capped_uptake else s_raw
    keys = np.full(n, POOLED_KEY, dtype=object) if by is None else getattr(panel, by)
    if thresholds is None:
        thresholds = {}
        for key in np.unique(keys[eligible]).tolist():
            group = eligible & (keys == key)
            thresholds[key] = Thresholds(
                tau_hi=quantile(p[group], cfg.hi_q), tau_lo=quantile(uptake[group], cfg.lo_q)
            )
    else:
        thresholds = dict(thresholds)

    y = np.full(n, UNLABELED, dtype=np.int8)
    prevalences: dict[str | int, float] = {}
    positives = labeled = 0
    for key, th in thresholds.items():
        group = eligible & (keys == key)
        fragile = group & (p >= th.tau_hi) & (uptake <= th.tau_lo)
        y[group] = fragile[group]
        n_group, n_fragile = int(np.count_nonzero(group)), int(np.count_nonzero(fragile))
        if n_group:
            prevalences[key] = n_fragile / n_group
            positives += n_fragile
            labeled += n_group

    if not labeled:
        raise CohortError("no eligible rows fall under the supplied thresholds")
    return LabeledPanel(
        panel=panel,
        p=p,
        s_raw=s_raw,
        eligible=eligible,
        y=y,
        thresholds=thresholds,
        prevalence=positives / labeled,
        prevalences=prevalences,
        by=by,
        config=cfg,
    )


@dataclass(frozen=True)
class OlsFit:
    alpha: float  # intercept, count units
    beta: float  # slope
    r2: float


def ols_fit(x: Sequence[float], y: Sequence[float]) -> OlsFit:
    """Closed-form least squares of y on x with intercept."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size < 2:
        raise DegenerateDesign(f"need at least 2 points, got {xa.size}")
    xbar, ybar = xa.mean(), ya.mean()
    sxx = float(np.sum((xa - xbar) ** 2))
    if sxx == 0.0:
        raise DegenerateDesign("all x values identical")
    beta = float(np.sum((xa - xbar) * (ya - ybar))) / sxx
    alpha = float(ybar - beta * xbar)
    resid = ya - alpha - beta * xa
    sse = float(np.sum(resid**2))
    sst = float(np.sum((ya - ybar) ** 2))
    if sst > 0.0:
        r2 = 1.0 - sse / sst
    else:
        r2 = 1.0 if sse == 0.0 else 0.0
    return OlsFit(alpha=alpha, beta=beta, r2=r2)


def fit_uptake_ols(panel: LabeledPanel) -> tuple[np.ndarray, OlsFit]:
    """Fit benefit counts on poverty counts over eligible rows, in row order;
    returns the residual column, aligned with the panel's rows, and the fit.
    An eligible row has both counts; every other row's residual is NaN."""
    pov = panel.panel.pov_fam[panel.eligible]
    snap = panel.panel.snap_fam[panel.eligible]
    if pov.size < 2:
        raise DegenerateDesign("fewer than 2 eligible rows with both counts")
    fit = ols_fit(pov, snap)
    residual = np.full(len(panel.panel), np.nan)
    residual[panel.eligible] = snap - fit.alpha - fit.beta * pov
    return residual, fit


def flag_hidden_fragility(panel: LabeledPanel, residual: np.ndarray, k: float) -> set[str]:
    """ZIPs in the most-negative k-tail of uptake residuals not already y=1.

    `residual` is the column `fit_uptake_ols` returns. The tail holds
    floor(k * n) eligible rows ordered by residual ascending (ties by zip,
    then year, then row order, for determinism). These are idiosyncratic
    under-uptake candidates the quantile rule missed.
    """
    if not 0.0 <= k <= 1.0:
        raise ValidationError(f"tail fraction must be in [0,1], got {k}")
    rows = np.flatnonzero(panel.eligible)
    n_tail = math.floor(k * rows.size)
    if n_tail == 0:
        return set()
    cols = panel.panel
    tail = rows[np.lexsort((cols.year[rows], cols.zip[rows], residual[rows]))[:n_tail]]
    return set(cols.zip[tail[panel.y[tail] != 1]].tolist())


# --- export ----------------------------------------------------------------

LABELED_COLUMNS = ["zip", "year", "p", "s_raw", "s_capped", "eligible", "y", "residual", "area", "flags"]


def write_labeled_panel(panel: LabeledPanel, residual: np.ndarray, csv_path) -> None:
    """Export the labeled panel and its `residual` column (see
    `fit_uptake_ols`) as CSV plus a JSON sidecar at its .json path with the
    thresholds, the counts and the labeling rule that made them. A missing
    value, and the target of an unlabeled row, is blank."""
    cols = panel.panel
    y = panel.y.astype(object)
    y[panel.y == UNLABELED] = None
    floats = [panel.p, panel.s_raw, panel.s_capped]
    columns = [cols.zip, cols.year, *floats, panel.eligible.astype(np.int64), y, residual, cols.area]
    csv_path = Path(csv_path)
    write_csv(csv_path, LABELED_COLUMNS, [*columns, flag_cells(cols.flags)])
    sidecar = {**panel.summary(), "stratified": panel.by == "area", "config": plain(panel.config)}
    save_json(sidecar, csv_path.with_suffix(".json"))
