"""Construct the eligibility set, uptake ratios, quantile thresholds, and target.

A unit-period row is *eligible* when its poverty rate clears the floor, its
uptake ratio is finite and positive, and all four structural predictors are
present. Within the eligible pool, a row is flagged fragile (y=1) when its
poverty rate sits at or above the high-poverty quantile AND its (capped)
uptake ratio sits at or below the low-uptake quantile. Ineligible rows carry
y=NA so they are explicitly excluded rather than misclassified.

An OLS regression of benefit counts on poverty counts provides a residual
diagnostic: rows in the deep negative-residual tail that the quantile rule
did not flag are "hidden fragility" candidates.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateDesign,
    EmptyInput,
    NoEligibleRows,
    ValidationError,
    ZeroPoverty,
)
from .ingest import PREDICTOR_FIELDS, Area, ZipRecord

POOLED_KEY = "All"


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


class UptakeRatio(NamedTuple):
    s_raw: float
    s_capped: float
    anomaly: bool


@dataclass(frozen=True)
class Thresholds:
    tau_hi: float
    tau_lo: float


@dataclass(frozen=True)
class LabeledRow:
    record: ZipRecord
    p: float | None
    s_raw: float | None
    s_capped: float | None
    eligible: bool
    y: int | None  # 1 / 0 for eligible rows, None otherwise
    residual: float | None = None


@dataclass
class LabeledPanel:
    """Eligible-filtered panel with thresholds and the binary fragility target.

    `thresholds` is keyed by area name when stratified, else by "All". Every
    eligible row is labeled under exactly one key's thresholds.
    """

    rows: list[LabeledRow]
    thresholds: dict[str, Thresholds]
    prevalence: float
    prevalences: dict[str, float] = field(default_factory=dict)
    stratified: bool = False
    config: LabelConfig = field(default_factory=LabelConfig)

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

    def eligible_rows(self) -> list[LabeledRow]:
        return [r for r in self.rows if r.eligible]

    def fit_rows(self) -> list[LabeledRow]:
        """Rows usable for model fitting: labeled and with a known area."""
        return [r for r in self.rows if r.y is not None and r.record.area is not Area.UNKNOWN]

    def n_eligible(self) -> int:
        return sum(1 for r in self.rows if r.eligible)

    def n_positive(self) -> int:
        return sum(1 for r in self.rows if r.y == 1)


def uptake_ratio(snap_fam: float, pov_fam: float) -> UptakeRatio:
    """Benefit families over poverty families, capped at 1; >1 is an anomaly.

    Anomalous rows are retained and flagged downstream, never dropped.
    """
    if pov_fam == 0:
        raise ZeroPoverty("uptake ratio undefined when poverty count is 0")
    s_raw = snap_fam / pov_fam
    return UptakeRatio(s_raw=s_raw, s_capped=min(s_raw, 1.0), anomaly=s_raw > 1.0)


def poverty_rate(record: ZipRecord) -> float | None:
    """Poverty rate: count over family universe when available, else the
    precomputed rate column. None when neither source is usable."""
    if record.fam_universe is not None and record.fam_universe > 0:
        if record.pov_fam is None:
            return None
        return record.pov_fam / record.fam_universe
    return record.pov_rate


def eligibility(
    p: float | None,
    s_raw: float | None,
    predictors_present: bool,
    cfg: LabelConfig,
) -> bool:
    """True when the row enters the eligible pool.

    Requires a positive poverty rate at or above the floor, a finite positive
    uptake ratio (zero uptake is treated as missing), and all predictors.
    """
    if p is None or not math.isfinite(p) or p <= 0 or p < cfg.poverty_floor:
        return False
    if s_raw is None or not math.isfinite(s_raw) or s_raw <= 0:
        return False
    return predictors_present


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


def _prepare(record: ZipRecord, cfg: LabelConfig) -> LabeledRow:
    p = poverty_rate(record)
    s_raw = s_capped = None
    if record.pov_fam is not None and record.pov_fam > 0 and record.snap_fam is not None:
        ratio = uptake_ratio(record.snap_fam, record.pov_fam)
        s_raw, s_capped = ratio.s_raw, ratio.s_capped
    predictors_present = all(getattr(record, name) is not None for name in PREDICTOR_FIELDS)
    elig = eligibility(p, s_raw, predictors_present, cfg)
    return LabeledRow(record=record, p=p, s_raw=s_raw, s_capped=s_capped, eligible=elig, y=None)


def _threshold_key(row: LabeledRow, stratified: bool) -> str:
    return row.record.area.value if stratified else POOLED_KEY


def _uptake(row: LabeledRow, cfg: LabelConfig) -> float:
    return row.s_capped if cfg.use_capped_uptake else row.s_raw


def _fit_thresholds(eligible: list[LabeledRow], cfg: LabelConfig) -> dict[str, Thresholds]:
    groups: dict[str, list[LabeledRow]] = {}
    for row in eligible:
        groups.setdefault(_threshold_key(row, cfg.stratify_by_area), []).append(row)
    return {
        key: Thresholds(
            tau_hi=quantile([r.p for r in groups[key]], cfg.hi_q),
            tau_lo=quantile([_uptake(r, cfg) for r in groups[key]], cfg.lo_q),
        )
        for key in sorted(groups)
    }


def build_labels(
    records: Sequence[ZipRecord],
    cfg: LabelConfig,
    thresholds: dict[str, Thresholds] | None = None,
) -> LabeledPanel:
    """Compute eligibility, thresholds, and the binary target for one panel.

    Pooled mode derives one (tau_hi, tau_lo) pair from all eligible rows;
    stratified mode recomputes the pair within each area subset (including
    Unknown, whose rows are labeled descriptively but excluded from fitting).

    Supplied `thresholds` (frozen cutpoints, e.g. from the training period)
    replace the fit. Eligible rows whose key has no supplied pair stay
    unlabeled (y=None), and prevalences count labeled rows only.
    """
    prepared = [_prepare(rec, cfg) for rec in records]
    eligible = [r for r in prepared if r.eligible]
    if not eligible:
        raise NoEligibleRows("no rows pass the eligibility filters")
    thresholds = _fit_thresholds(eligible, cfg) if thresholds is None else dict(thresholds)

    labeled: list[LabeledRow] = []
    counts: dict[str, list[int]] = {}  # key -> [positives, labeled rows]
    for row in prepared:
        key = _threshold_key(row, cfg.stratify_by_area)
        if not row.eligible or key not in thresholds:
            labeled.append(row)
            continue
        th = thresholds[key]
        y = 1 if (row.p >= th.tau_hi and _uptake(row, cfg) <= th.tau_lo) else 0
        labeled.append(replace(row, y=y))
        tally = counts.setdefault(key, [0, 0])
        tally[0] += y
        tally[1] += 1

    if not counts:
        raise NoEligibleRows("no eligible rows fall under the supplied thresholds")
    positives = sum(pos for pos, _ in counts.values())
    total = sum(tot for _, tot in counts.values())
    return LabeledPanel(
        rows=labeled,
        thresholds=thresholds,
        prevalence=positives / total,
        prevalences={key: pos / tot for key, (pos, tot) in counts.items()},
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


def residual(fit: OlsFit, pov_fam: float, snap_fam: float) -> float:
    return snap_fam - fit.alpha - fit.beta * pov_fam


def fit_uptake_ols(panel: LabeledPanel) -> tuple[LabeledPanel, OlsFit]:
    """Fit benefit counts on poverty counts over eligible rows and attach
    per-row residuals. Rows without both counts keep residual=None."""
    pts = [
        (r.record.pov_fam, r.record.snap_fam)
        for r in panel.rows
        if r.eligible and r.record.pov_fam is not None and r.record.snap_fam is not None
    ]
    if len(pts) < 2:
        raise DegenerateDesign("fewer than 2 eligible rows with both counts")
    fit = ols_fit([p for p, _ in pts], [s for _, s in pts])
    rows = []
    for r in panel.rows:
        if r.eligible and r.record.pov_fam is not None and r.record.snap_fam is not None:
            rows.append(replace(r, residual=residual(fit, r.record.pov_fam, r.record.snap_fam)))
        else:
            rows.append(r)
    out = LabeledPanel(
        rows=rows,
        thresholds=panel.thresholds,
        prevalence=panel.prevalence,
        prevalences=panel.prevalences,
        stratified=panel.stratified,
        config=panel.config,
    )
    return out, fit


def flag_hidden_fragility(panel: LabeledPanel, fit: OlsFit, k: float = 0.05) -> set[str]:
    """ZIPs in the most-negative k-tail of uptake residuals not already y=1.

    The tail holds floor(k * n) rows ordered by residual ascending (ties by
    zip, then year, for determinism). These are idiosyncratic under-uptake
    candidates the quantile rule missed.
    """
    if not 0.0 <= k <= 1.0:
        raise ValidationError(f"tail fraction must be in [0,1], got {k}")
    scored = [
        (residual(fit, r.record.pov_fam, r.record.snap_fam), r.record.zip, r.record.year, r)
        for r in panel.rows
        if r.eligible and r.record.pov_fam is not None and r.record.snap_fam is not None
    ]
    n_tail = math.floor(k * len(scored))
    if n_tail == 0:
        return set()
    scored.sort(key=lambda t: (t[0], t[1], t[2]))
    return {row.record.zip for _, _, _, row in scored[:n_tail] if row.y != 1}


# --- export ----------------------------------------------------------------

LABELED_COLUMNS = ["zip", "year", "p", "s_raw", "s_capped", "eligible", "y", "residual", "area", "flags"]


def write_labeled_panel(panel: LabeledPanel, csv_path, sidecar_path=None) -> None:
    """Export the labeled panel as CSV plus a JSON sidecar with thresholds."""
    import csv as _csv

    csv_path = Path(csv_path)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        for r in panel.rows:
            writer.writerow(
                [
                    r.record.zip,
                    r.record.year,
                    "" if r.p is None else repr(r.p),
                    "" if r.s_raw is None else repr(r.s_raw),
                    "" if r.s_capped is None else repr(r.s_capped),
                    int(r.eligible),
                    "" if r.y is None else r.y,
                    "" if r.residual is None else repr(r.residual),
                    r.record.area.value,
                    ";".join(sorted(r.record.flags)),
                ]
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
        "n_rows": len(panel.rows),
        "n_eligible": panel.n_eligible(),
        "n_positive": panel.n_positive(),
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
