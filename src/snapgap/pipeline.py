"""End-to-end orchestration: train on the early period, evaluate strictly
out-of-time on the late period.

The flow per cohort (pooled, or one per area when stratified):

  1. label each period independently (late-period thresholds are recomputed
     by default, or frozen to early-period cutpoints by config);
  2. for each feature subset x model family, select hyperparameters by
     stratified CV on the early period, fit an isotonic map on the winner's
     out-of-fold predictions, refit on all early rows, and anchor the
     decision threshold to early-period prevalence (or Youden);
  3. score the late period and assemble the metric suite, reliability data,
     ranked flag lists, and residual-based hidden-fragility lists.

The input is one columnar `Panel`, as ingest and the synthetic generator
produce it. Periods, years and cohorts are boolean masks or row-index
arrays over it, a model matrix is a slice of its predictor block, and the
yearly and fragile-distribution diagnostics are mask counts.

Nothing fitted ever sees a late-period row: training consumes only the early
panel, and that separation is asserted by the test suite bit-for-bit.

Every randomized task derives its own generator from (root seed, task label),
so the manifest is byte-identical across runs.

The (cohort, subset, family) tasks are independent, so they run in worker
processes forked from this one, in two passes over one pool: one worker per
CPU in the process's affinity mask, at most one per unit of the first pass.
A tree family's CV grid search holds most of a run's work, so such a task
is split. Each of its folds is a unit of the first pass, which fits the
grid on that fold (`selection.fold_proba`), and the second pass runs its
tail: the grid selection from the fold results, the winner's refit,
calibration, evaluation and importance. Any other task (logistic, split70)
is one unit of the first pass. With one CPU, where the platform cannot
fork, or while another thread runs, the same units run here one after
another, in the same two passes. Where a unit runs cannot change a byte: it
reads only the labeled panels, which workers inherit through fork, it
draws only from its task's keyed streams, and its result comes back by
pickle, which keeps every float bit and dict order. A task sends back its
manifest entry, and its fitted scorer only when the caller keeps scorers:
`train_scorers` always does, `run_backtest` unless `keep_scorers` is false,
as it is for `snapgap backtest` without `--models`. A scorer's model pickles
without its compiled prediction cache. A task renders its model's flagged
rows into the model's flagged CSV itself, from the ZIP and year cells of
the panel it inherited and the probabilities it computed
(`_flagged_csv`), and sends back those bytes beside its manifest entry.
The entry, `{"file", "rows", "sha256"}`, names the file and holds its row
count and the sha256 of its bytes, so the manifest digest covers every
flagged row through those sha256s, and this process does no per-row work:
`run_backtest` returns the bytes beside the body, in
`RunManifest.flagged_csvs`, for the report to write. The results are
assembled in plan order, not in order of completion. Each unit records its
warnings, and they are issued in this process in plan order (a split task's
folds in fold order, then its tail), so they print the same with any worker
count.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import mmap
import os
import re
import sys
import threading
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Literal

import numpy as np

from . import __version__
from .calibration import (
    apply_isotonic,
    classify,
    fit_isotonic,
    prevalence_threshold,
    reliability_curve,
    youden_threshold,
)
from .errors import (
    CohortError,
    DegenerateDesign,
    InsufficientCohort,
    NonConvergence,
    PeriodsOverlap,
    SingleClass,
    ValidationError,
    WorkerDied,
)
from .ingest import PREDICTOR_FIELDS, Area, Panel
from .jsonio import plain
from .labeling import (
    UNLABELED,
    LabelConfig,
    LabeledPanel,
    build_labels,
    fit_uptake_ols,
    flag_hidden_fragility,
)
from .metrics import METRIC_AUC, evaluate, permutation_importance
from .models import (
    DEFAULT_GRIDS,
    FAMILIES,
    CalibratedScorer,
    FeatureMatrix,
    TREE_FAMILIES,
    check_candidate,
    cv_grid_search,
    fit_family,
    fold_proba,
    model_to_dict,
    stratified_folds,
)
from .rng import STREAM_SPLIT, derive_rng, stream_id

# SHA-256 from CPython's own module, not from hashlib: `import hashlib` loads
# OpenSSL (`_hashlib`), which holds 3.6 MB resident in every process, and the
# digests are the same. The built-in is slower, about 160 MB/s against
# OpenSSL's 1 GB/s on a 2-core Xeon VM, which adds roughly 25 ms to the
# hashing of a `national_panel` run.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

AREA_MODE_POOLED = "pooled"
AREA_MODE_STRATIFIED = "stratified"
THRESHOLD_REFIT = "refit"
THRESHOLD_FROZEN = "frozen"
DECISION_PREVALENCE = "prevalence"
DECISION_YOUDEN = "youden"
SELECTION_CV = "cv"
SELECTION_SPLIT = "split70"

POOLED_COHORT = "All"
MODELED_AREAS = (Area.URBAN, Area.RURAL, Area.MIXED)

MANIFEST_FORMAT = "snapgap-manifest/2"
FLAGGED_HEADER = "zip,year,calibrated_probability\r\n"

# Fixed hyperparameters for the 70/30 split path, which runs without a grid.
SPLIT_DEFAULT_PARAMS = {
    "logistic": {"c": 1.0},
    "random_forest": {"n_trees": 100, "max_depth": None, "min_leaf": 5},
    "gradient_boosting": {"n_trees": 100, "max_depth": 3, "learning_rate": 0.1},
}


def all_feature_subsets() -> list[tuple[str, ...]]:
    """All 15 nonempty predictor subsets, smallest first, in field order."""
    out: list[tuple[str, ...]] = []
    for k in range(1, len(PREDICTOR_FIELDS) + 1):
        out.extend(itertools.combinations(PREDICTOR_FIELDS, k))
    return out


@dataclass(frozen=True)
class BacktestConfig:
    """One run's settings. `area_mode` alone decides whether labeling
    thresholds, and cohorts, are per area."""

    p1_years: tuple[int, int] = (2014, 2018)
    p2_years: tuple[int, int] = (2019, 2023)
    label: LabelConfig = field(default_factory=LabelConfig)
    feature_subsets: tuple[tuple[str, ...], ...] | Literal["all"] | None = None  # None, "all": all 15
    families: tuple[str, ...] = FAMILIES
    grids: dict[str, list[dict]] | None = None  # None: defaults per family
    folds: int = 5
    seed: int = 0
    area_mode: str = AREA_MODE_POOLED
    threshold_mode: str = THRESHOLD_REFIT
    decision: str = DECISION_PREVALENCE
    selection: str = SELECTION_CV
    hidden_tail: float = 0.05
    reliability_bins: int = 10
    importance_repeats: int = 10

    def validate(self) -> None:
        """Raise a `ValidationError` for any setting a task would reject,
        so a run fails before its first fit."""
        a0, a1 = self.p1_years
        b0, b1 = self.p2_years
        if a0 > a1 or b0 > b1:
            raise ValidationError(f"invalid year ranges {self.p1_years}, {self.p2_years}")
        if a1 >= b0:
            raise PeriodsOverlap(
                f"training years {self.p1_years} must end before test years {self.p2_years}"
            )
        if not self.subsets():
            raise ValidationError("need at least one feature subset")
        if not self.families:
            raise ValidationError("need at least one model family")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValidationError(f"unknown family {fam!r}")
            if self.grids is not None and not self.grids.get(fam):
                raise ValidationError(f"grids has no candidate for family {fam!r}")
        for subset in self.subsets():
            for name in subset:
                if name not in PREDICTOR_FIELDS:
                    raise ValidationError(f"unknown predictor {name!r}")
        if self.area_mode not in (AREA_MODE_POOLED, AREA_MODE_STRATIFIED):
            raise ValidationError(f"unknown area_mode {self.area_mode!r}")
        if self.threshold_mode not in (THRESHOLD_REFIT, THRESHOLD_FROZEN):
            raise ValidationError(f"unknown threshold_mode {self.threshold_mode!r}")
        if self.decision not in (DECISION_PREVALENCE, DECISION_YOUDEN):
            raise ValidationError(f"unknown decision policy {self.decision!r}")
        if self.selection not in (SELECTION_CV, SELECTION_SPLIT):
            raise ValidationError(f"unknown selection protocol {self.selection!r}")
        if self.folds < 2:
            raise ValidationError(f"folds must be >= 2, got {self.folds}")
        if not 0.0 <= self.hidden_tail <= 1.0:
            raise ValidationError(f"hidden_tail must be in [0, 1], got {self.hidden_tail}")
        if self.reliability_bins < 1:
            raise ValidationError(f"reliability_bins must be >= 1, got {self.reliability_bins}")
        if self.importance_repeats < 1:
            raise ValidationError(f"importance_repeats must be >= 1, got {self.importance_repeats}")
        for family, candidates in self.family_grids().items():
            for i, params in enumerate(candidates):
                try:
                    check_candidate(family, params)
                except ValidationError as exc:
                    raise ValidationError(f"grids.{family}[{i}]: {exc}") from exc

    @property
    def stratified(self) -> bool:
        return self.area_mode == AREA_MODE_STRATIFIED

    def subsets(self) -> list[tuple[str, ...]]:
        if self.feature_subsets in (None, "all"):
            return all_feature_subsets()
        return [tuple(s) for s in self.feature_subsets]

    def family_grids(self) -> dict[str, list[dict]]:
        grids = DEFAULT_GRIDS if self.grids is None else self.grids
        return {fam: grids[fam] for fam in self.families}

    def to_dict(self) -> dict:
        """The fields as JSON data, with the subsets and grids the run uses
        written out, and the labeling's stratification beside its rule."""
        out = plain(replace(self, feature_subsets=self.subsets(), grids=self.family_grids()))
        out["label"]["stratify_by_area"] = self.stratified
        return out


def digest_of(obj) -> str:
    """The sha256 of the canonical text of JSON data `obj`: compact, with
    sorted keys, as `json.dumps` writes it. A non-finite float anywhere in
    `obj`, as a value or a key, raises `ValueError`."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return sha256(text.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """A run's manifest `body`, the bytes of each flagged CSV the body
    names, by file name, and its fitted scorers, if the run kept them."""

    body: dict
    flagged_csvs: dict[str, bytes]
    scorers: dict[tuple[str, str], CalibratedScorer] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return self.body["manifest_digest"]


def _model_label(family: str, subset: tuple[str, ...]) -> str:
    return f"{family}[{'+'.join(subset)}]"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


def model_file(prefix: str, cohort: str, label: str) -> str:
    """The name of the `prefix` CSV of a cohort's model, such as
    `flagged_All_logistic_pct_no_vehicle.csv`."""
    return f"{prefix}_{_slug(cohort)}_{_slug(label)}.csv"


def _rows_in_years(panel: Panel, years: tuple[int, int]) -> Panel:
    lo, hi = years
    return panel.take((panel.year >= lo) & (panel.year <= hi))


def _cohort_rows(panel: LabeledPanel, cohort: str) -> np.ndarray:
    """Indices of the rows a model may see: labeled, known area, matching the cohort."""
    area = panel.panel.area
    keep = (panel.y != UNLABELED) & (area != Area.UNKNOWN.value)
    if cohort != POOLED_COHORT:
        keep &= area == cohort
    return np.flatnonzero(keep)


def _matrix(
    panel: LabeledPanel, rows: np.ndarray, subset: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The subset's predictor columns and the target at `rows`, C-ordered."""
    cols = [PREDICTOR_FIELDS.index(f) for f in subset]
    return panel.panel.predictors[np.ix_(rows, cols)], panel.y[rows].astype(int)


def _task_matrix(panel: LabeledPanel, rows: np.ndarray, subset: tuple[str, ...]) -> FeatureMatrix:
    return FeatureMatrix(*_matrix(panel, rows, subset), feature_names=tuple(subset))


def _anomaly_count(panel: LabeledPanel) -> int:
    return int(np.count_nonzero(panel.s_raw > 1.0))


CALIBRATION_MAX_BINS = 50
CALIBRATION_MIN_PER_BIN = 20


def _calibration_pairs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool held-out (score, label) pairs into equal-count score bins before
    the isotonic fit.

    Raw-pair PAV overfits its boundary pools: a few extreme held-out scores
    can pin the top of the map far from the base rate, which shows up as a
    reliability gap in sparse bins. Averaging within quantile bins tames that
    variance; small samples pass through unpooled.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    bins = min(CALIBRATION_MAX_BINS, len(scores) // CALIBRATION_MIN_PER_BIN)
    if bins < 2:
        return scores, labels
    order = np.argsort(scores, kind="stable")
    xs = np.array([c.mean() for c in np.array_split(scores[order], bins)])
    ys = np.array([c.mean() for c in np.array_split(labels[order], bins)])
    return xs, ys


def _stratified_split(y: np.ndarray, train_frac: float, rng) -> tuple[np.ndarray, np.ndarray]:
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = int(round(train_frac * len(idx)))
        train_parts.append(idx[:cut])
        test_parts.append(idx[cut:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


def _fit_task(
    cfg: BacktestConfig,
    cohort: str,
    subset: tuple[str, ...],
    family: str,
    p1_panel: LabeledPanel,
    p1_rows: np.ndarray,
    p1_prevalence: float,
    fold_results: tuple[np.ndarray, list[list]] | None = None,
) -> tuple[CalibratedScorer, dict]:
    """Train one (cohort, subset, family) scorer on early-period rows only.

    Under CV selection, `fold_results`, when given, holds the out-of-fold
    matrix the task's fold units filled and what their `fold_proba` calls
    returned, in fold order.

    Raises a `CohortError`, or `NonConvergence` when the split70 fit, the
    winner's refit or every grid candidate fails to converge; either fails
    this task alone.
    """
    label = f"{cohort}/{_model_label(family, subset)}"
    seed = cfg.seed
    fm = _task_matrix(p1_panel, p1_rows, subset)
    n_pos = int(fm.y.sum())
    if n_pos == 0 or n_pos == fm.n:
        raise InsufficientCohort(
            f"cohort {cohort!r}: training rows hold a single class "
            f"({n_pos} positives of {fm.n})"
        )

    detail: dict = {"family": family, "features": list(subset)}
    if cfg.selection == SELECTION_CV:
        grid = {family: cfg.family_grids()[family]}
        try:
            result = cv_grid_search(
                fm,
                grid,
                folds=cfg.folds,
                seed=seed,
                fold_results=None if fold_results is None else {family: fold_results},
            )[family]
        except CohortError as exc:
            raise InsufficientCohort(f"cohort {cohort!r}: {exc}") from exc
        winner = result.winner
        oof = result.oof_proba
        detail["winner"] = winner
        detail["cv"] = [
            {"params": e.params, "error": e.error}
            if e.error is not None
            else {"params": e.params, "mean_ap": e.mean_ap, "fold_aps": e.fold_aps}
            for e in result.grid
        ]
        model = fit_family(fm, family, winner, seed)
        iso = fit_isotonic(*_calibration_pairs(oof, fm.y))
        cal_holdout = apply_isotonic(iso, oof)
        holdout_y = fm.y
    else:
        rng = derive_rng(seed, STREAM_SPLIT, stream_id(label))
        train_idx, test_idx = _stratified_split(fm.y, 0.70, rng)
        if fm.y[train_idx].sum() == 0 or fm.y[test_idx].sum() == 0:
            raise InsufficientCohort(
                f"cohort {cohort!r}: 70/30 split leaves a side with no positives"
            )
        params = SPLIT_DEFAULT_PARAMS[family]
        detail["winner"] = params
        detail["cv"] = None
        model = fit_family(fm.subset(train_idx), family, params, seed)
        holdout_scores = model.predict_proba(fm.X[test_idx])
        iso = fit_isotonic(*_calibration_pairs(holdout_scores, fm.y[test_idx]))
        cal_holdout = apply_isotonic(iso, holdout_scores)
        holdout_y = fm.y[test_idx]

    if cfg.decision == DECISION_PREVALENCE:
        rule = prevalence_threshold(p1_prevalence)
    else:
        rule = youden_threshold(np.asarray(cal_holdout), holdout_y)
    detail["rule"] = plain(rule)
    detail["isotonic_fitted_on"] = iso.fitted_on
    scorer = CalibratedScorer(model=model, isotonic=iso, rule=rule)
    detail["model_digest"] = digest_of(model_to_dict(model))
    return scorer, detail


def _flagged_order(zips: np.ndarray, years: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The order of flagged `[zip, year, probability]` rows: highest
    probability first, ties by ZIP and then year."""
    return np.lexsort((years, zips, -probs))


def _csv_strings(values: list[str]) -> list[str]:
    """Each of `values` as `csv.writer` writes it among other cells of a row:
    as it is, unless `csv` quotes it."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([*values, ""])
    if out.getvalue() == ",".join(values) + ",\r\n":
        return values
    cells = []
    for value in values:
        out.seek(0)
        out.truncate()
        writer.writerow([value, ""])
        cells.append(out.getvalue()[: -len(",\r\n")])
    return cells


def _csv_cells(column: np.ndarray) -> list[str]:
    """The text of each cell of a str, int or float column as `csv.writer`
    writes it: a string as `_csv_strings` gives it, a number by its `repr`.
    Each distinct value is rendered once; floats are told apart by their
    bits, so -0.0 keeps its sign."""
    if column.dtype.kind == "O":
        cells = column.tolist()
        distinct = list(set(cells))
        return list(map(dict(zip(distinct, _csv_strings(distinct))).__getitem__, cells))
    keys = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = list(map(repr, distinct.view(column.dtype).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


def _flagged_csv(zips: np.ndarray, years: np.ndarray, probs: np.ndarray) -> bytes:
    """The flagged CSV of rows of a ZIP, a year and a probability: the UTF-8
    bytes `csv.writer` writes for the header and the rows `[zip, year,
    repr(p)]`, excel dialect, with CRLF line ends."""
    n = len(probs)
    parts = [","] * (6 * n)
    parts[0::6] = _csv_cells(zips)
    parts[2::6] = _csv_cells(years)
    parts[4::6] = _csv_cells(probs)
    parts[5::6] = ["\r\n"] * n
    return (FLAGGED_HEADER + "".join(parts)).encode("utf-8")


def _evaluate_task(
    cfg: BacktestConfig,
    cohort: str,
    subset: tuple[str, ...],
    family: str,
    scorer: CalibratedScorer,
    detail: dict,
    p2_panel: LabeledPanel,
    p2_rows: np.ndarray,
) -> tuple[dict, bytes]:
    """`detail` with the task's late-period evaluation, and the bytes of its
    flagged CSV, which `detail["flagged"]` names and digests."""
    label = _model_label(family, subset)
    if not p2_rows.size:
        raise InsufficientCohort(f"cohort {cohort!r}: no labeled test rows")
    X2, y2 = _matrix(p2_panel, p2_rows, subset)
    calibrated = scorer.predict_calibrated(X2)
    try:
        report = evaluate(calibrated, y2, scorer.rule, cohort=cohort, model=label)
    except CohortError as exc:
        raise InsufficientCohort(f"cohort {cohort!r}: {exc}") from exc
    detail["eval"] = plain(report)
    detail["reliability"] = reliability_curve(calibrated, y2, cfg.reliability_bins)

    hits = np.flatnonzero(classify(calibrated, scorer.rule) == 1)
    rows, probs = p2_rows[hits], calibrated[hits]
    zips, years = p2_panel.panel.zip[rows], p2_panel.panel.year[rows]
    order = _flagged_order(zips, years, probs)
    flagged = _flagged_csv(zips[order], years[order], probs[order])
    detail["flagged"] = {
        "file": model_file("flagged", cohort, label),
        "rows": len(rows),
        "sha256": sha256(flagged).hexdigest(),
    }

    importance = permutation_importance(
        scorer.model,
        X2,
        y2,
        metric=METRIC_AUC,
        repeats=cfg.importance_repeats,
        seed=cfg.seed,
    )
    detail["importance"] = plain(importance)
    return detail, flagged


def _hidden_fragility_entry(panel: LabeledPanel, tail: float) -> dict:
    try:
        with_resid, fit = fit_uptake_ols(panel)
    except DegenerateDesign as exc:  # too few count pairs, or all x identical
        return {"error": str(exc)}
    zips = flag_hidden_fragility(with_resid, tail)
    return {
        "ols": {"alpha": fit.alpha, "beta": fit.beta, "r2": fit.r2},
        "zips": sorted(zips),
    }


def _fragile_distribution(period: Panel, cfg: BacktestConfig) -> dict:
    """Share of fragile rows by area for the bottom-10% and bottom-30% rules."""
    out: dict[str, dict] = {}
    for lo_q in (0.10, 0.30):
        try:
            panel = build_labels(
                period, replace(cfg.label, lo_q=lo_q), stratify_by_area=cfg.stratified
            )
        except CohortError as exc:
            out[f"{lo_q:.2f}"] = {"error": str(exc)}
            continue
        areas, counts = np.unique(period.area[panel.y == 1], return_counts=True)
        total = int(counts.sum())
        out[f"{lo_q:.2f}"] = {
            "total": total,
            "by_area": {
                area: {"count": cnt, "share": cnt / total}
                for area, cnt in zip(areas.tolist(), counts.tolist())
            },
        }
    return out


def run_yearly_diagnostics(cfg: BacktestConfig, panel: Panel) -> list[dict]:
    """Per-year eligible count, thresholds, prevalence, and anomaly count."""
    years = list(range(cfg.p1_years[0], cfg.p1_years[1] + 1)) + list(
        range(cfg.p2_years[0], cfg.p2_years[1] + 1)
    )
    table = []
    for year in years:
        year_rows = panel.take(panel.year == year)
        entry: dict = {"year": year, "n_rows": len(year_rows)}
        try:
            labeled = build_labels(year_rows, cfg.label)  # pooled; raises on an empty year too
        except CohortError:
            entry.update(
                {"n_eligible": 0, "tau_hi": None, "tau_lo": None, "prevalence": None, "anomaly_rows": 0}
            )
        else:
            entry.update(
                {
                    "n_eligible": labeled.n_eligible(),
                    "tau_hi": labeled.tau_hi,
                    "tau_lo": labeled.tau_lo,
                    "prevalence": labeled.prevalence,
                    "anomaly_rows": _anomaly_count(labeled),
                }
            )
        table.append(entry)
    return table


def _cohorts(cfg: BacktestConfig) -> list[str]:
    if cfg.stratified:
        return [a.value for a in MODELED_AREAS]
    return [POOLED_COHORT]


def _plan_tasks(
    cfg: BacktestConfig, p1_panel: LabeledPanel, p2_panel: LabeledPanel | None = None
) -> tuple[list[tuple], dict[str, str]]:
    """The flat (cohort, subset, family) task list in manifest order, each
    task carrying its cohort's training and test row indices (none without a
    test panel) and training prevalence; plus the error of every cohort with
    nothing to train on. Results assemble independently of execution order.

    Training thresholds are always fitted, so a cohort with a labeled row
    has its own prevalence."""
    tasks = []
    cohort_errors: dict[str, str] = {}
    no_rows = np.empty(0, dtype=np.intp)
    for cohort in _cohorts(cfg):
        p1_rows = _cohort_rows(p1_panel, cohort)
        if not p1_rows.size:
            cohort_errors[cohort] = f"cohort {cohort!r}: no labeled training rows"
            continue
        prevalence = p1_panel.prevalence if cohort == POOLED_COHORT else p1_panel.prevalences[cohort]
        p2_rows = no_rows if p2_panel is None else _cohort_rows(p2_panel, cohort)
        for subset in cfg.subsets():
            for family in cfg.families:
                tasks.append((cohort, subset, family, p1_rows, p2_rows, prevalence))
    return tasks, cohort_errors


def _recording_warnings(fn) -> tuple:
    """`fn()`, and every warning it raised, as (message, category,
    filename, lineno), for `_reissue_warnings`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


# A task's outcome: its scorer (None unless the run keeps scorers), its
# manifest entry and the bytes of its flagged CSV (None without a test
# panel), or the message of the error that failed it.
_Outcome = tuple[CalibratedScorer | None, dict, bytes | None] | str


def _task_outcome(
    state: tuple, i: int, fold_errors: list[list] | None = None
) -> tuple[_Outcome, list[tuple]]:
    """Task `i` of the plan in `state` = (cfg, tasks, p1_panel, p2_panel,
    keep_scorers, oof), whole, or, given what its fold units returned in
    fold order, its tail, which reads their predictions from `oof[i]`: its
    scorer, or None unless `keep_scorers`, its manifest entry (the fit
    alone without a test panel) and its flagged CSV, or the message of the
    `CohortError` or `NonConvergence` that failed it; and its warnings (see
    `_recording_warnings`)."""
    cfg, tasks, p1_panel, p2_panel, keep_scorers, oof = state
    cohort, subset, family, p1_rows, p2_rows, prevalence = tasks[i]
    fold_results = None if fold_errors is None else (oof[i], fold_errors)

    def outcome():
        try:
            scorer, detail = _fit_task(
                cfg, cohort, subset, family, p1_panel, p1_rows, prevalence, fold_results
            )
            flagged = None
            if p2_panel is not None:
                detail, flagged = _evaluate_task(
                    cfg, cohort, subset, family, scorer, detail, p2_panel, p2_rows
                )
            return scorer if keep_scorers else None, detail, flagged
        except (CohortError, NonConvergence) as exc:
            return str(exc)

    return _recording_warnings(outcome)


def _fold_outcome(state: tuple, i: int, k: int) -> tuple[list | None, list[tuple]]:
    """Fold `k` of task `i` of the plan in `state` (see `_task_outcome`):
    `fold_proba` of the task's grid on that fold, which writes to `oof[i]`,
    or None when the task's rows cannot fill its folds, an error its tail
    raises again; and its warnings."""
    cfg, tasks, p1_panel, *_, oof = state
    _, subset, family, p1_rows, *_ = tasks[i]

    def outcome():
        fm = _task_matrix(p1_panel, p1_rows, subset)
        try:
            val = stratified_folds(fm.y, cfg.folds, cfg.seed)[k]
        except CohortError:
            return None
        return fold_proba(fm, family, cfg.family_grids()[family], val, cfg.seed, oof[i])

    return _recording_warnings(outcome)


def _reissue_warnings(results: Iterator[tuple]) -> Iterator[_Outcome]:
    """The outcome of each `_task_outcome` result, after issuing in this
    process, under its filters, each of the result's warnings that no earlier
    result raised. A warning is issued at the file and line that raised it,
    from the module loaded from that file, once per run, whichever process
    ran the tasks that raised it."""
    issued = set()
    for outcome, caught in results:
        for warning in caught:
            if warning not in issued:
                issued.add(warning)
                message, category, filename, lineno = warning
                module = next(
                    (name for name, mod in list(sys.modules.items())
                     if getattr(mod, "__file__", None) == filename),
                    None,
                )
                warnings.warn_explicit(message, category, filename, lineno, module=module)
        yield outcome


def _first_pass(cfg: BacktestConfig, tasks: list[tuple]) -> list[tuple[int, int | None]]:
    """The first pass's units, in plan order: (i, k) for fold k of task i
    when the task is a tree family's CV grid search, (i, None) for any other
    task, which runs whole."""
    units: list[tuple[int, int | None]] = []
    for i, (_, _, family, *_) in enumerate(tasks):
        if cfg.selection == SELECTION_CV and family in TREE_FAMILIES:
            units.extend((i, k) for k in range(cfg.folds))
        else:
            units.append((i, None))
    return units


def _shared_oof(
    cfg: BacktestConfig, tasks: list[tuple], units: list[tuple[int, int | None]]
) -> dict[int, np.ndarray]:
    """For each task split into folds, its out-of-fold matrix (grid
    candidates x training rows), all on one anonymous shared mapping.

    Fold units write their predictions there and tails read them, in
    whichever processes run them: workers inherit the mapping through fork.
    When workers run the units, this process never touches its pages, so no
    fold's predictions are pickled, sent or held here."""
    shapes = {
        i: (len(cfg.family_grids()[tasks[i][2]]), len(tasks[i][3]))
        for i, k in units
        if k is not None
    }
    if not shapes:
        return {}
    sizes = [rows * cols for rows, cols in shapes.values()]
    mapping = mmap.mmap(-1, 8 * sum(sizes))
    offsets = itertools.accumulate([0, *sizes])
    return {
        i: np.frombuffer(mapping, float, size, 8 * offset).reshape(shape)
        for (i, shape), size, offset in zip(shapes.items(), sizes, offsets)
    }


def _run_unit(state: tuple, unit: tuple) -> tuple:
    """Unit (i, part) of a pass: fold `part` of task `i` when `part` is a
    fold number, else `_task_outcome(state, i, part)`, the whole task or
    the tail given what its folds returned."""
    i, part = unit
    if isinstance(part, int):
        return _fold_outcome(state, i, part)
    return _task_outcome(state, i, part)


def _in_plan_order(
    units: list[tuple[int, int | None]], run
) -> Iterator[tuple[_Outcome, list[tuple]]]:
    """Each task's outcome and warnings, in plan order, as they arrive,
    where `run(units)` gives the results of `units` in order.

    The first pass runs `units`; the second runs the tail of each task
    split into folds, given what its folds returned, in fold order. A split
    task's warnings are its folds', in fold order, then its tail's."""
    ready: dict[int, tuple] = {}
    fold_errors: dict[int, list] = {}
    fold_warnings: dict[int, list[tuple]] = {}
    next_task = 0
    for (i, k), (result, caught) in zip(units, run(units), strict=True):
        if k is None:
            ready[i] = result, caught
        else:
            fold_errors.setdefault(i, []).append(result)
            fold_warnings.setdefault(i, []).extend(caught)
        while next_task in ready:
            yield ready.pop(next_task)
            next_task += 1
    tails = list(fold_errors.items())
    for (i, _), (outcome, caught) in zip(tails, run(tails), strict=True):
        ready[i] = outcome, fold_warnings.pop(i) + caught
        while next_task in ready:
            yield ready.pop(next_task)
            next_task += 1


# Set by `_init_worker` in each worker process, never in the parent.
_worker_state: tuple | None = None


def _init_worker(state: tuple, running) -> None:
    global _worker_state
    _worker_state = state, running


def _worker_unit(j: int, unit: tuple) -> tuple:
    """`_run_unit` of `unit`, with `running[j]` set while it runs, so the
    parent can name the task of a worker that dies."""
    state, running = _worker_state
    running[j] = 1
    outcome = _run_unit(state, unit)
    running[j] = 0
    return outcome


def _pool_size(n_units: int) -> int:
    """Worker processes for a first pass of `n_units` units: one per CPU in
    this process's affinity mask, at most one per unit. 1 (run in-process)
    where the platform has no fork or no affinity mask, or while another
    thread runs, since a forked child keeps only the thread that forked it."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(n_units, len(os.sched_getaffinity(0)))


def _task_outcomes(
    cfg: BacktestConfig,
    tasks: list[tuple],
    p1_panel: LabeledPanel,
    p2_panel: LabeledPanel | None = None,
    keep_scorers: bool = True,
) -> Iterator[_Outcome]:
    """Each task's outcome (see `_task_outcome`), in plan order, as the
    results arrive, each after its warnings (see `_reissue_warnings`).

    Tasks run in two passes over one pool of forked workers (see the module
    docstring), which inherit the panels and the shared out-of-fold
    matrices through fork, so only units, their errors and outcomes are
    pickled. With one worker the same passes run in this process through the
    built-in `map`, and the pool modules are not imported. Any other
    exception a unit raises is raised here; a worker that dies raises
    `WorkerDied`.
    """
    units = _first_pass(cfg, tasks)
    state = (cfg, tasks, p1_panel, p2_panel, keep_scorers, _shared_oof(cfg, tasks, units))
    workers = _pool_size(len(units))
    if workers < 2:
        yield from _reissue_warnings(_in_plan_order(units, partial(map, partial(_run_unit, state))))
        return

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    owners: list[int] = []  # the task of each unit submitted, by unit number
    running = context.RawArray("b", len(units) + len(tasks))  # at most one tail per task
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_init_worker, initargs=(state, running)
    ) as pool:

        def run(batch):
            start = len(owners)
            owners.extend(i for i, _ in batch)
            return pool.map(_worker_unit, range(start, len(owners)), batch)

        try:
            yield from _reissue_warnings(_in_plan_order(units, run))
        except BrokenProcessPool as exc:
            labels = dict.fromkeys(
                f"{cohort}/{_model_label(family, subset)}"
                for (cohort, subset, family, *_), flag in zip((tasks[i] for i in owners), running)
                if flag
            )
            raise WorkerDied(
                f"a worker process exited abruptly while running {' or '.join(labels)}"
                if labels
                else "a worker process exited abruptly"
            ) from exc


def train_scorers(cfg: BacktestConfig, panel: Panel) -> dict[tuple[str, str], CalibratedScorer]:
    """Fit calibrated scorers on the training period only (no test rows needed)."""
    cfg.validate()
    p1 = _rows_in_years(panel, cfg.p1_years)
    if not len(p1):
        raise InsufficientCohort(f"no rows in training years {cfg.p1_years}")
    p1_panel = build_labels(p1, cfg.label, stratify_by_area=cfg.stratified)
    tasks, cohort_errors = _plan_tasks(cfg, p1_panel)

    scorers: dict[tuple[str, str], CalibratedScorer] = {}
    errors = list(cohort_errors.values())
    for outcome, (cohort, subset, family, *_) in zip(
        _task_outcomes(cfg, tasks, p1_panel), tasks, strict=True
    ):
        if isinstance(outcome, str):
            errors.append(outcome)
            continue
        scorers[(cohort, _model_label(family, subset))] = outcome[0]
    if not scorers:
        raise InsufficientCohort("; ".join(sorted(set(errors))) or "nothing to train")
    return scorers


def run_backtest(
    cfg: BacktestConfig,
    panel: Panel,
    input_digests: dict[str, str] | None = None,
    *,
    keep_scorers: bool = True,
) -> RunManifest:
    """Full train-on-P1 / evaluate-on-P2 run producing a reproducible manifest.

    The manifest's `flagged_csvs` hold the bytes of each flagged CSV its
    body names, as the tasks rendered them. Its `scorers` hold every fitted
    scorer, or none when `keep_scorers` is false: then no task sends its
    scorer back, and this process never holds a fitted model. The body is
    the same either way. Raises `InsufficientCohort` when no task succeeds.
    """
    cfg.validate()

    p1 = _rows_in_years(panel, cfg.p1_years)
    p2 = _rows_in_years(panel, cfg.p2_years)
    if not len(p1) or not len(p2):
        raise InsufficientCohort(
            f"panel must cover both periods: {len(p1)} training rows, {len(p2)} test rows"
        )

    p1_panel = build_labels(p1, cfg.label, stratify_by_area=cfg.stratified)
    frozen = p1_panel.thresholds if cfg.threshold_mode == THRESHOLD_FROZEN else None
    p2_panel = build_labels(p2, cfg.label, frozen, stratify_by_area=cfg.stratified)
    tasks, cohort_errors = _plan_tasks(cfg, p1_panel, p2_panel)
    # Before the tasks, so their arrays come and go while this process holds
    # no flagged CSV.
    diagnostics = {
        "hidden_fragility": {
            "p1": _hidden_fragility_entry(p1_panel, cfg.hidden_tail),
            "p2": _hidden_fragility_entry(p2_panel, cfg.hidden_tail),
        },
        "fragile_distribution": {
            "p1": _fragile_distribution(p1, cfg),
            "p2": _fragile_distribution(p2, cfg),
        },
        "yearly": run_yearly_diagnostics(cfg, panel),
    }

    scorers: dict[tuple[str, str], CalibratedScorer] = {}
    flagged_csvs: dict[str, bytes] = {}
    cohort_models: dict[str, dict] = {c: {} for c in _cohorts(cfg)}
    errors = list(cohort_errors.values())
    for outcome, (cohort, subset, family, *_) in zip(
        _task_outcomes(cfg, tasks, p1_panel, p2_panel, keep_scorers), tasks, strict=True
    ):
        label = _model_label(family, subset)
        if isinstance(outcome, str):
            cohort_models[cohort][label] = {"error": outcome}
            errors.append(outcome)
            continue
        scorer, detail, flagged = outcome
        flagged_csvs[detail["flagged"]["file"]] = flagged
        if keep_scorers:
            scorers[(cohort, label)] = scorer
        cohort_models[cohort][label] = detail
    if all("error" in entry for models in cohort_models.values() for entry in models.values()):
        raise InsufficientCohort(f"every cohort failed: {'; '.join(sorted(set(errors)))}")

    cohort_body = {
        cohort: {"error": cohort_errors[cohort]}
        if cohort in cohort_errors
        else {"models": dict(sorted(models.items()))}
        for cohort, models in cohort_models.items()
    }

    config = cfg.to_dict()
    body = {
        "format": MANIFEST_FORMAT,
        "version": __version__,
        "seed": cfg.seed,
        "config": config,
        "config_hash": digest_of(config),
        "input_digests": dict(sorted((input_digests or {}).items())),
        "periods": {
            name: {**labeled.summary(), "anomaly_rows": _anomaly_count(labeled)}
            for name, labeled in (("p1", p1_panel), ("p2", p2_panel))
        },
        "cohorts": cohort_body,
        **diagnostics,
    }
    body["manifest_digest"] = digest_of(body)
    return RunManifest(body=body, flagged_csvs=flagged_csvs, scorers=scorers)
