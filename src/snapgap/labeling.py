"""Construct the eligibility set, uptake ratios, quantile thresholds, and target.

Labeling works on a columnar `Panel`: the poverty rate `p`, the raw uptake
ratio `s_raw`, the `eligible` mask and the target `y` are each one array
expression over all rows, aligned with the panel's rows. Missing values are
NaN, and unlabeled rows carry y = -1.

A unit-period row is *eligible* when its poverty rate clears the floor, its
uptake ratio is finite and positive, and all four structural predictors are
present. Within the eligible pool, a row is flagged fragile (y=1) when its
poverty rate sits at or above the high-poverty quantile AND its (capped)
uptake ratio sits at or below the low-uptake quantile. Ineligible rows stay
unlabeled so they are explicitly excluded rather than misclassified.

An OLS regression of benefit counts on poverty counts provides a residual
diagnostic: rows in the deep negative-residual tail that the quantile rule
did not flag are "hidden fragility" candidates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDesign,
    EmptyInput,
    NoEligibleRows,
    ValidationError,
)
from .ingest import Panel
from .jsonio import save_json

POOLED_KEY = "All"
UNLABELED = -1


@dataclass(frozen=True)
class LabelConfig:
    """Fixed design choices for target construction."""

    poverty_floor: float = 0.15
    hi_q: float = 0.70
    lo_q: float = 0.10
    stratify_by_area: bool = False
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

    `p`, `s_raw`, `eligible`, `y` (1 / 0, or UNLABELED) and, after
    `fit_uptake_ols`, `residual` are columns aligned with `panel`.
    `thresholds` is keyed by area name when stratified, else by "All". Every
    labeled row is labeled under exactly one key's thresholds.
    """

    panel: Panel
    p: np.ndarray
    s_raw: np.ndarray
    eligible: np.ndarray
    y: np.ndarray
    thresholds: dict[str, Thresholds]
    prevalence: float
    prevalences: dict[str, float] = field(default_factory=dict)
    stratified: bool = False
    config: LabelConfig = field(default_factory=LabelConfig)
    residual: np.ndarray | None = None  # NaN off the eligible pool

    @property
    def s_capped(self) -> np.ndarray:
        """Uptake capped at 1; a raw ratio above 1 is an anomaly, kept and flagged."""
        return np.minimum(self.s_raw, 1.0)

    @property
    def tau_hi(self) -> float:
        return self.thresholds[self._only_key()].tau_hi

    @property
    def tau_lo(self) -> float:
        return self.thresholds[self._only_key()].tau_lo

    def _only_key(self) -> str:
        if POOLED_KEY in self.thresholds:
            return POOLED_KEY
        if len(self.thresholds) == 1:
            return next(iter(self.thresholds))
        raise ValidationError("panel is stratified; use .thresholds[area]")

    def n_eligible(self) -> int:
        return int(np.count_nonzero(self.eligible))

    def n_positive(self) -> int:
        return int(np.count_nonzero(self.y == 1))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation sample quantile (index h = (n-1)q convention)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput("quantile of empty list")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("quantile requires finite values")
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile level must be in (0,1), got {q}")
    return float(np.quantile(arr, q, method="linear"))


def build_labels(
    panel: Panel,
    cfg: LabelConfig,
    thresholds: dict[str, Thresholds] | None = None,
) -> LabeledPanel:
    """Compute eligibility, thresholds, and the binary target for one panel.

    The poverty rate is the poverty count over the family universe when the
    universe is positive, else the precomputed rate column. The uptake ratio
    is benefit families over poverty families, defined only for a positive
    poverty count; zero uptake counts as missing for eligibility.

    Pooled mode derives one (tau_hi, tau_lo) pair from all eligible rows;
    stratified mode recomputes the pair within each area subset (including
    Unknown, whose rows are labeled descriptively but excluded from fitting).

    Supplied `thresholds` (frozen cutpoints, e.g. from the training period)
    replace the fit. Eligible rows whose key has no supplied pair stay
    unlabeled, and prevalences count labeled rows only.
    """
    n = len(panel)
    p = np.divide(
        panel.pov_fam, panel.fam_universe, out=panel.pov_rate.copy(), where=panel.fam_universe > 0
    )
    s_raw = np.divide(panel.snap_fam, panel.pov_fam, out=np.full(n, np.nan), where=panel.pov_fam > 0)
    eligible = (
        np.isfinite(p)
        & (p > 0)
        & (p >= cfg.poverty_floor)
        & np.isfinite(s_raw)
        & (s_raw > 0)
        & ~np.isnan(panel.predictors).any(axis=1)
    )
    if not eligible.any():
        raise NoEligibleRows("no rows pass the eligibility filters")
    uptake = np.minimum(s_raw, 1.0) if cfg.use_capped_uptake else s_raw
    keys = panel.area if cfg.stratify_by_area else np.full(n, POOLED_KEY, dtype=object)
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
    prevalences: dict[str, float] = {}
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
        raise NoEligibleRows("no eligible rows fall under the supplied thresholds")
    return LabeledPanel(
        panel=panel,
        p=p,
        s_raw=s_raw,
        eligible=eligible,
        y=y,
        thresholds=thresholds,
        prevalence=positives / labeled,
        prevalences=prevalences,
        stratified=cfg.stratify_by_area,
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


def fit_uptake_ols(panel: LabeledPanel) -> tuple[LabeledPanel, OlsFit]:
    """Fit benefit counts on poverty counts over eligible rows, in row order,
    and attach the residual column. An eligible row has both counts; every
    other row's residual is NaN."""
    pov = panel.panel.pov_fam[panel.eligible]
    snap = panel.panel.snap_fam[panel.eligible]
    if pov.size < 2:
        raise DegenerateDesign("fewer than 2 eligible rows with both counts")
    fit = ols_fit(pov, snap)
    residual = np.full(len(panel.panel), np.nan)
    residual[panel.eligible] = snap - fit.alpha - fit.beta * pov
    return replace(panel, residual=residual), fit


def flag_hidden_fragility(panel: LabeledPanel, fit: OlsFit, k: float = 0.05) -> set[str]:
    """ZIPs in the most-negative k-tail of uptake residuals not already y=1.

    The tail holds floor(k * n) eligible rows ordered by residual ascending
    (ties by zip, then year, then row order, for determinism). These are
    idiosyncratic under-uptake candidates the quantile rule missed.
    """
    if not 0.0 <= k <= 1.0:
        raise ValidationError(f"tail fraction must be in [0,1], got {k}")
    rows = np.flatnonzero(panel.eligible)
    n_tail = math.floor(k * rows.size)
    if n_tail == 0:
        return set()
    cols = panel.panel
    residual = cols.snap_fam[rows] - fit.alpha - fit.beta * cols.pov_fam[rows]
    tail = rows[np.lexsort((cols.year[rows], cols.zip[rows], residual))[:n_tail]]
    return set(cols.zip[tail[panel.y[tail] != 1]].tolist())


# --- export ----------------------------------------------------------------

LABELED_COLUMNS = ["zip", "year", "p", "s_raw", "s_capped", "eligible", "y", "residual", "area", "flags"]


def _float_cells(values: np.ndarray) -> list[str]:
    return ["" if math.isnan(v) else repr(v) for v in values.tolist()]


def write_labeled_panel(panel: LabeledPanel, csv_path, sidecar_path=None) -> None:
    """Export the labeled panel as CSV plus a JSON sidecar with the
    thresholds, the counts and the labeling rule that made them."""
    import csv as _csv

    cols = panel.panel
    residual = np.full(len(cols), np.nan) if panel.residual is None else panel.residual
    csv_path = Path(csv_path)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        writer.writerows(
            zip(
                cols.zip.tolist(),
                cols.year.tolist(),
                _float_cells(panel.p),
                _float_cells(panel.s_raw),
                _float_cells(panel.s_capped),
                panel.eligible.astype(int).tolist(),
                ["" if y == UNLABELED else y for y in panel.y.tolist()],
                _float_cells(residual),
                cols.area.tolist(),
                [";".join(sorted(flags)) for flags in cols.flags],
            )
        )
    if sidecar_path is None:
        sidecar_path = csv_path.with_suffix(".json")
    sidecar = {
        "thresholds": {
            key: {"tau_hi": th.tau_hi, "tau_lo": th.tau_lo}
            for key, th in sorted(panel.thresholds.items())
        },
        "prevalence": panel.prevalence,
        "prevalences": dict(sorted(panel.prevalences.items())),
        "stratified": panel.stratified,
        "n_rows": len(cols),
        "n_eligible": panel.n_eligible(),
        "n_positive": panel.n_positive(),
        "config": {
            key: getattr(panel.config, key)
            for key in ("poverty_floor", "hi_q", "lo_q", "use_capped_uptake")
        },
    }
    save_json(sidecar, sidecar_path)
