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
yearly and fragile-distribution diagnostics are mask counts over labelings
(the yearly table's, one labeling with a threshold pair per year).

Nothing fitted ever sees a late-period row: training consumes only the early
panel, and that separation is asserted by the test suite bit-for-bit.

Every randomized task derives its own generator from (root seed, task label),
so the manifest is byte-identical across runs.

The (cohort, subset, family) tasks are independent, so they run in worker
processes forked from this one, in two fixed passes over one pool: one
worker per CPU in the process's affinity mask, at most one per unit of the
larger pass. A tree family's CV grid search holds most of a run's work, so
such a task is split. The first pass runs the folds of every split task and
nothing else: each fold is one unit, which fits the grid on that fold
(`selection.fold_proba`). Their results are gathered per task in fold
order, so no output depends on the order in which the pass hands them out.
The second pass runs one unit per task, in plan order: the tail of a split
task (the grid selection from its fold results, the winner's refit,
calibration, evaluation and importance), or the whole of any other task
(logistic, split70), and its outcomes come back in plan order. With one
CPU, where the platform cannot fork, or while another thread runs, the same
units run here one after another, in the same two passes. Where a unit runs
cannot change a byte: it reads only the labeled panels, which workers
inherit through fork, it draws only from its task's keyed streams, and its
result comes back by pickle, which keeps every float bit and dict order. A
task sends back only its manifest entry, or the message of the error that
failed it: whatever else it makes leaves it as a file, written into a
directory its caller gives (the CLI's staging directory). A task renders
its model's flagged rows into the model's flagged CSV itself, from the ZIP
and year cells of the panel it inherited and the probabilities it computed
(`ingest.csv_text`, which renders every CSV the package writes). Its
manifest entry, `{"file", "rows", "sha256"}`, names the file and holds its
row count and the sha256 of its bytes, so the manifest digest covers every
flagged row through those sha256s, and this process does no per-row work
and holds no flagged CSV, however many models the run has. Given a models
directory (`train_scorers` always, `run_backtest` for `snapgap backtest
--models`), a task also writes its fitted scorer there as a scorer file
(`models.scorer_to_dict`); either way, this process holds no fitted model.
A task converts its model once (`models.model_to_dict`): the manifest
entry's `model_digest` digests that dict, and the scorer file holds it.
The code that runs a unit records its warnings, and they are issued in
this process in plan order (a split task's folds in fold order, then its
tail), so they print the same with any worker count.
"""
from __future__ import annotations

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
from pathlib import Path
from typing import Literal, NamedTuple

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
    IoFailure,
    NonConvergence,
    SnapGapError,
    ValidationError,
)
from .ingest import PREDICTOR_FIELDS, Area, Panel, csv_text
from .jsonio import plain, save_json
from .labeling import (
    POOLED_KEY,
    UNLABELED,
    LabelConfig,
    LabeledPanel,
    build_labels,
    fit_uptake_ols,
    flag_hidden_fragility,
    uptake_ratio,
)
from .metrics import evaluate, permutation_importance, stable_argsort
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
    scorer_to_dict,
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

MODELED_AREAS = (Area.URBAN, Area.RURAL, Area.MIXED)

MANIFEST_FORMAT = "snapgap-manifest/2"

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
    thresholds, and cohorts, are per area. A record checks itself when
    built: a setting a task would reject raises a `ValidationError` there,
    so no run starts that would fail at its first fit."""

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

    def __post_init__(self):
        a0, a1 = self.p1_years
        b0, b1 = self.p2_years
        if a0 > a1 or b0 > b1:
            raise ValidationError(f"invalid year ranges {self.p1_years}, {self.p2_years}")
        if a1 >= b0:
            raise ValidationError(
                f"training years {self.p1_years} must end before test years {self.p2_years}"
            )
        if not self.subsets():
            raise ValidationError("need at least one feature subset")
        if not self.families:
            raise ValidationError("need at least one model family")
        # A model is keyed by its family and subset, so a repeat would fit
        # twice and keep one of the two; a subset in another order would fit
        # the same model twice.
        for i, fam in enumerate(self.families):
            if fam not in FAMILIES:
                raise ValidationError(f"unknown family {fam!r}")
            if fam in self.families[:i]:
                raise ValidationError(f"families[{i}] repeats family {fam!r}")
            if self.grids is not None and not self.grids.get(fam):
                raise ValidationError(f"grids has no candidate for family {fam!r}")
        first: dict[frozenset, int] = {}
        for i, subset in enumerate(self.subsets()):
            if not subset:
                raise ValidationError(f"feature_subsets[{i}] is empty")
            for j, name in enumerate(subset):
                if name not in PREDICTOR_FIELDS:
                    raise ValidationError(f"unknown predictor {name!r}")
                if name in subset[:j]:
                    raise ValidationError(f"feature_subsets[{i}] repeats predictor {name!r}")
            earlier = first.setdefault(frozenset(subset), i)
            if earlier != i:
                raise ValidationError(f"feature_subsets[{i}] repeats feature_subsets[{earlier}]")
        if self.area_mode not in (AREA_MODE_POOLED, AREA_MODE_STRATIFIED):
            raise ValidationError(f"unknown area_mode {self.area_mode!r}")
        if self.threshold_mode not in (THRESHOLD_REFIT, THRESHOLD_FROZEN):
            raise ValidationError(f"unknown threshold_mode {self.threshold_mode!r}")
        if self.decision not in (DECISION_PREVALENCE, DECISION_YOUDEN):
            raise ValidationError(f"unknown decision policy {self.decision!r}")
        if self.selection not in (SELECTION_CV, SELECTION_SPLIT):
            raise ValidationError(f"unknown selection protocol {self.selection!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
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
    def label_by(self) -> str | None:
        """The panel column that keys the labeling's thresholds, or None to pool."""
        return "area" if self.area_mode == AREA_MODE_STRATIFIED else None

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
        out["label"]["stratify_by_area"] = self.label_by == "area"
        return out


def digest_of(obj) -> str:
    """The sha256 of the canonical text of JSON data `obj`: compact, with
    sorted keys, as `json.dumps` writes it. A non-finite float anywhere in
    `obj`, as a value or a key, raises `ValueError`."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return sha256(text.encode("utf-8")).hexdigest()


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


def model_file(prefix: str, cohort: str, label: str, suffix: str) -> str:
    """The name of a cohort's model's `prefix` file, such as
    `flagged_All_logistic_pct_no_vehicle.csv` or
    `model_All_logistic_pct_no_vehicle_pct_hs_only.json`."""
    return f"{prefix}_{_slug(cohort)}_{_slug(label)}{suffix}"


def _rows_in_years(panel: Panel, years: tuple[int, int]) -> Panel:
    lo, hi = years
    return panel.take((panel.year >= lo) & (panel.year <= hi))


def _cohort_rows(panel: LabeledPanel, cohort: str) -> np.ndarray:
    """Indices of the rows a model may see: labeled, known area, matching the cohort."""
    area = panel.panel.area
    keep = (panel.y != UNLABELED) & (area != Area.UNKNOWN.value)
    if cohort != POOLED_KEY:
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
    order = stable_argsort(scores)
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


class _Task(NamedTuple):
    """One (cohort, subset, family) task of a plan, with its cohort's
    training and test row indices and training prevalence."""

    cohort: str
    subset: tuple[str, ...]
    family: str
    p1_rows: np.ndarray
    p2_rows: np.ndarray
    prevalence: float

    @property
    def model(self) -> str:
        """The model's name in its cohort, such as `logistic[pct_no_vehicle]`."""
        return f"{self.family}[{'+'.join(self.subset)}]"

    @property
    def label(self) -> str:
        """The task's name in the run, such as `All/logistic[pct_no_vehicle]`."""
        return f"{self.cohort}/{self.model}"


def _fit_task(
    cfg: BacktestConfig,
    task: _Task,
    p1_panel: LabeledPanel,
    fold_results: tuple[np.ndarray, list[list]] | None = None,
) -> tuple[CalibratedScorer, dict]:
    """Train `task`'s scorer on early-period rows only.

    Under CV selection, `fold_results`, when given, holds the out-of-fold
    matrix the task's fold units filled and what their `fold_proba` calls
    returned, in fold order.

    Raises a `CohortError`, whose message `_task_outcome` puts after the
    task's cohort, or `NonConvergence` when the split70 fit, the winner's
    refit or every grid candidate fails to converge; either fails this task
    alone.
    """
    subset, family = task.subset, task.family
    seed = cfg.seed
    fm = _task_matrix(p1_panel, task.p1_rows, subset)
    n_pos = int(fm.y.sum())
    if n_pos == 0 or n_pos == fm.n:
        raise CohortError(f"training rows hold a single class ({n_pos} positives of {fm.n})")

    detail: dict = {"family": family, "features": list(subset)}
    if cfg.selection == SELECTION_CV:
        result = cv_grid_search(
            fm,
            family,
            cfg.family_grids()[family],
            folds=cfg.folds,
            seed=seed,
            fold_results=fold_results,
        )
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
        rng = derive_rng(seed, STREAM_SPLIT, stream_id(task.label))
        train_idx, test_idx = _stratified_split(fm.y, 0.70, rng)
        if fm.y[train_idx].sum() == 0 or fm.y[test_idx].sum() == 0:
            raise CohortError("70/30 split leaves a side with no positives")
        params = SPLIT_DEFAULT_PARAMS[family]
        detail["winner"] = params
        detail["cv"] = None
        model = fit_family(fm.subset(train_idx), family, params, seed)
        holdout_scores = model.predict_proba(fm.X[test_idx])
        iso = fit_isotonic(*_calibration_pairs(holdout_scores, fm.y[test_idx]))
        cal_holdout = apply_isotonic(iso, holdout_scores)
        holdout_y = fm.y[test_idx]

    if cfg.decision == DECISION_PREVALENCE:
        rule = prevalence_threshold(task.prevalence)
    else:
        rule = youden_threshold(cal_holdout, holdout_y)
    detail["rule"] = plain(rule)
    detail["isotonic_fitted_on"] = iso.fitted_on
    return CalibratedScorer(model=model, isotonic=iso, rule=rule), detail


def _flagged_order(zips: np.ndarray, years: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The order of flagged `[zip, year, probability]` rows: highest
    probability first, ties by ZIP and then year."""
    return np.lexsort((years, zips, -probs))


def _evaluate_task(
    cfg: BacktestConfig,
    task: _Task,
    scorer: CalibratedScorer,
    detail: dict,
    p2_panel: LabeledPanel,
    flagged_dir: Path,
) -> dict:
    """`detail` with `task`'s late-period evaluation, after writing its
    flagged CSV into `flagged_dir`, which `detail["flagged"]` names and
    digests. Raises `IoFailure` when the CSV cannot be written."""
    cohort, p2_rows = task.cohort, task.p2_rows
    if not p2_rows.size:
        raise CohortError("no labeled test rows")
    X2, y2 = _matrix(p2_panel, p2_rows, task.subset)
    scores = scorer.model.predict_proba(X2)
    calibrated = apply_isotonic(scorer.isotonic, scores)
    report = evaluate(calibrated, y2, scorer.rule, cohort=cohort, model=task.model)
    detail["eval"] = plain(report)
    detail["reliability"] = reliability_curve(calibrated, y2, cfg.reliability_bins)

    importance = permutation_importance(
        scorer.model, X2, y2, repeats=cfg.importance_repeats, seed=cfg.seed, base_scores=scores
    )
    detail["importance"] = plain(importance)

    hits = np.flatnonzero(classify(calibrated, scorer.rule) == 1)
    rows, probs = p2_rows[hits], calibrated[hits]
    zips, years = p2_panel.panel.zip[rows], p2_panel.panel.year[rows]
    order = _flagged_order(zips, years, probs)
    header = ["zip", "year", "calibrated_probability"]
    flagged = csv_text(header, [zips[order], years[order], probs[order]]).encode("utf-8")
    path = flagged_dir / model_file("flagged", cohort, task.model, ".csv")
    try:
        path.write_bytes(flagged)
    except OSError as exc:
        raise IoFailure(f"cannot write flagged CSV {path}: {exc}") from exc
    digest = sha256(flagged).hexdigest()
    detail["flagged"] = {"file": path.name, "rows": len(rows), "sha256": digest}
    return detail


def _hidden_fragility_entry(panel: LabeledPanel, tail: float) -> dict:
    try:
        residual, fit = fit_uptake_ols(panel)
    except DegenerateDesign as exc:  # too few count pairs, or all x identical
        return {"error": str(exc)}
    zips = flag_hidden_fragility(panel, residual, tail)
    return {
        "ols": {"alpha": fit.alpha, "beta": fit.beta, "r2": fit.r2},
        "zips": sorted(zips),
    }


def _fragile_distribution(period: Panel, cfg: BacktestConfig) -> dict:
    """Share of fragile rows by area for the bottom-10% and bottom-30% rules.
    A rule that cannot be built (a `hi_q` at or below its `lo_q`) or cannot
    label the period is that rule's error."""
    out: dict[str, dict] = {}
    for lo_q in (0.10, 0.30):
        try:
            rule = replace(cfg.label, lo_q=lo_q)
            panel = build_labels(period, rule, by=cfg.label_by)
        except (CohortError, ValidationError) as exc:
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
    """Each period year's row, eligible and anomaly counts, thresholds and
    prevalence, off one labeling with a threshold pair per year. A year with
    no eligible row has no thresholds or prevalence; its anomalies count."""
    (a, b), (c, d) = cfg.p1_years, cfg.p2_years
    anomalous = uptake_ratio(panel) > 1.0
    try:
        labeled = build_labels(panel, cfg.label, by="year")
        eligible, thresholds, prevalences = labeled.eligible, labeled.thresholds, labeled.prevalences
    except CohortError:  # no year has an eligible row
        eligible, thresholds, prevalences = np.zeros(len(panel), dtype=bool), {}, {}
    table = []
    for year in [*range(a, b + 1), *range(c, d + 1)]:
        rows = panel.year == year
        th = thresholds.get(year)
        table.append(
            {
                "year": year,
                "n_rows": int(np.count_nonzero(rows)),
                "n_eligible": int(np.count_nonzero(rows & eligible)),
                "tau_hi": None if th is None else th.tau_hi,
                "tau_lo": None if th is None else th.tau_lo,
                "prevalence": prevalences.get(year),
                "anomaly_rows": int(np.count_nonzero(rows & anomalous)),
            }
        )
    return table


def _cohorts(cfg: BacktestConfig) -> list[str]:
    if cfg.label_by == "area":
        return [a.value for a in MODELED_AREAS]
    return [POOLED_KEY]


def _plan_tasks(
    cfg: BacktestConfig, p1_panel: LabeledPanel, p2_panel: LabeledPanel | None = None
) -> tuple[list[_Task], dict[str, str]]:
    """The flat task list in manifest order, each task carrying its cohort's
    training and test row indices (none without a test panel) and training
    prevalence; plus the error of every cohort with nothing to train on.
    Results assemble independently of execution order.

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
        prevalence = p1_panel.prevalences[cohort]
        p2_rows = no_rows if p2_panel is None else _cohort_rows(p2_panel, cohort)
        for subset in cfg.subsets():
            for family in cfg.families:
                tasks.append(_Task(cohort, subset, family, p1_rows, p2_rows, prevalence))
    return tasks, cohort_errors


# A task's outcome: its manifest entry, or the message of the error that failed it.
_Outcome = dict | str


def _task_outcome(state: tuple, i: int, fold_errors: list[list] | None = None) -> _Outcome:
    """Task `i` of the plan in `state` = (cfg, tasks, p1_panel, p2_panel,
    flagged_dir, models_dir, oof), whole, or, given what its fold units
    returned in fold order, its tail, which reads their predictions from
    `oof[i]`: its manifest entry (the fit alone without a test panel, else
    after the task wrote its flagged CSV into `flagged_dir`), whose
    `model_digest` digests the one `model_to_dict` of its model, after it
    wrote its scorer file into `models_dir` unless that is None; or the
    message of the failing `NonConvergence`, or of the failing `CohortError`
    after the task's cohort (`cohort 'All': no labeled test rows`), which
    leaves no file. Raises `IoFailure` when a file cannot be written."""
    cfg, tasks, p1_panel, p2_panel, flagged_dir, models_dir, oof = state
    task = tasks[i]
    fold_results = None if fold_errors is None else (oof[i], fold_errors)
    try:
        scorer, detail = _fit_task(cfg, task, p1_panel, fold_results)
        if p2_panel is not None:
            detail = _evaluate_task(cfg, task, scorer, detail, p2_panel, flagged_dir)
    except CohortError as exc:
        return f"cohort {task.cohort!r}: {exc}"
    except NonConvergence as exc:
        return str(exc)
    converted = model_to_dict(scorer.model)
    detail["model_digest"] = digest_of(converted)
    if models_dir is not None:
        path = models_dir / model_file("model", task.cohort, task.model, ".json")
        try:
            save_json(scorer_to_dict(converted, scorer.isotonic, scorer.rule), path)
        except OSError as exc:
            raise IoFailure(f"cannot write scorer file {path}: {exc}") from exc
    return detail


def _fold_outcome(state: tuple, i: int, k: int) -> list | None:
    """Fold `k` of task `i` of the plan in `state` (see `_task_outcome`):
    `fold_proba` of the task's grid on that fold, which writes to `oof[i]`,
    or None when the task's rows cannot fill its folds, an error its tail
    raises again."""
    cfg, tasks, p1_panel, *_, oof = state
    task = tasks[i]
    fm = _task_matrix(p1_panel, task.p1_rows, task.subset)
    try:
        val = stratified_folds(fm.y, cfg.folds, cfg.seed)[k]
    except CohortError:
        return None
    return fold_proba(fm, task.family, cfg.family_grids()[task.family], val, cfg.seed, oof[i])


def _run_unit(fn: str, state: tuple, unit: tuple) -> tuple:
    """The result of the unit function named `fn` on `state` and `unit`,
    and every warning it raised, as (message, category, filename, lineno),
    for `_reissue_warnings`. The function is the module global of that name
    in the process that runs the unit, looked up as the unit runs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = globals()[fn](state, *unit)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _reissue_warnings(results: Iterator[tuple]) -> Iterator[_Outcome]:
    """The outcome of each (outcome, warnings) result, after issuing in this
    process, under its filters, each of the result's warnings that no earlier
    result raised. A warning is issued at the file and line that raised it,
    from the module loaded from that file, once per run, whichever process
    ran the units that raised it."""
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


def _first_pass(cfg: BacktestConfig, tasks: list[_Task]) -> list[tuple[int, int]]:
    """The first pass's units: (i, k) for fold k of task i, for each task
    that is a tree family's CV grid search. Empty under split70 selection
    or without a tree family. No output depends on their order."""
    if cfg.selection != SELECTION_CV:
        return []
    return [
        (i, k)
        for i, task in enumerate(tasks)
        if task.family in TREE_FAMILIES
        for k in range(cfg.folds)
    ]


def _shared_oof(
    cfg: BacktestConfig, tasks: list[_Task], units: list[tuple[int, int]]
) -> dict[int, np.ndarray]:
    """For each task split into folds, its out-of-fold matrix (grid
    candidates x training rows), all on one anonymous shared mapping.

    Fold units write their predictions there and tails read them, in
    whichever processes run them: workers inherit the mapping through fork.
    When workers run the units, this process never touches its pages, so no
    fold's predictions are pickled, sent or held here."""
    shapes = {
        i: (len(cfg.family_grids()[tasks[i].family]), len(tasks[i].p1_rows)) for i, _ in units
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


def _two_passes(
    units: list[tuple[int, int]], n_tasks: int, run
) -> Iterator[tuple[_Outcome, list[tuple]]]:
    """Each task's outcome and warnings, in plan order, where `run(fn,
    batch)` gives the results of `_run_unit(fn, state, unit)` for the units
    of `batch`, in order.

    The first pass runs `_fold_outcome` on the fold `units`, and their
    results are gathered per task in fold order. The second runs
    `_task_outcome` on one unit per task, in plan order: the tail of a task
    split into folds, given what its folds returned, or else the whole task.
    A split task's warnings are its folds', in fold order, then its tail's."""
    fold_errors: dict[int, list] = {}
    fold_warnings: dict[int, list[tuple]] = {}
    results = zip(units, run("_fold_outcome", units), strict=True)
    for (i, _), (result, caught) in sorted(results, key=lambda pair: pair[0]):
        fold_errors.setdefault(i, []).append(result)
        fold_warnings.setdefault(i, []).extend(caught)
    tails = [(i, fold_errors[i]) if i in fold_errors else (i,) for i in range(n_tasks)]
    for i, (outcome, caught) in enumerate(run("_task_outcome", tails)):
        yield outcome, fold_warnings.get(i, []) + caught


# Set by `_init_worker` in each worker process, never in the parent.
_worker_state: tuple | None = None


def _init_worker(state: tuple, running) -> None:
    global _worker_state
    _worker_state = state, running


def _worker_unit(fn: str, j: int, unit: tuple) -> tuple:
    """`_run_unit` of `fn` on `unit`, with `running[j]` set while it runs,
    so the parent can name the task of a worker that dies."""
    state, running = _worker_state
    running[j] = 1
    result = _run_unit(fn, state, unit)
    running[j] = 0
    return result


def _pool_size(n_units: int) -> int:
    """Worker processes for passes of at most `n_units` units: one per CPU
    in this process's affinity mask, at most one per unit of the larger
    pass. 1 (run in-process) where the platform has no fork or no affinity
    mask, or while another thread runs, since a forked child keeps only the
    thread that forked it."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(n_units, len(os.sched_getaffinity(0)))


def _task_outcomes(
    cfg: BacktestConfig,
    tasks: list[_Task],
    p1_panel: LabeledPanel,
    p2_panel: LabeledPanel | None = None,
    flagged_dir: Path | None = None,
    models_dir: Path | None = None,
) -> Iterator[_Outcome]:
    """Each task's outcome (see `_task_outcome`), in plan order, each after
    its warnings (see `_reissue_warnings`).

    The units run in two fixed passes (see `_two_passes` and the module
    docstring): every fold of every tree family's CV grid search, then one
    unit per task in plan order. Both passes run on one pool of forked
    workers, sized by the larger pass, which inherit the panels and the
    shared out-of-fold matrices through fork, so only units, their errors
    and outcomes are pickled. With one worker the same passes run in this
    process through the built-in `map`, and the pool modules are not
    imported. Any other exception a unit raises is raised here; a worker
    that dies raises `SnapGapError`.
    """
    units = _first_pass(cfg, tasks)
    oof = _shared_oof(cfg, tasks, units)
    state = (cfg, tasks, p1_panel, p2_panel, flagged_dir, models_dir, oof)
    workers = _pool_size(max(len(units), len(tasks)))
    if workers < 2:

        def run(fn, batch):
            return map(partial(_run_unit, fn, state), batch)

        yield from _reissue_warnings(_two_passes(units, len(tasks), run))
        return

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    owners: list[int] = []  # the task of each unit submitted, by unit number
    running = context.RawArray("b", len(units) + len(tasks))
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_init_worker, initargs=(state, running)
    ) as pool:

        def run(fn, batch):
            start = len(owners)
            owners.extend(i for i, *_ in batch)
            return pool.map(partial(_worker_unit, fn), range(start, len(owners)), batch)

        try:
            yield from _reissue_warnings(_two_passes(units, len(tasks), run))
        except BrokenProcessPool as exc:
            labels = dict.fromkeys(tasks[i].label for i, flag in zip(owners, running) if flag)
            raise SnapGapError(
                f"a worker process exited abruptly while running {' or '.join(labels)}"
                if labels
                else "a worker process exited abruptly"
            ) from exc


def _run_plan(
    cfg: BacktestConfig,
    p1_panel: LabeledPanel,
    p2_panel: LabeledPanel | None = None,
    flagged_dir: Path | None = None,
    models_dir: Path | None = None,
) -> tuple[dict[str, dict], dict[str, str]]:
    """Each cohort's manifest entry: the error of a cohort with nothing to
    train on (see `_plan_tasks`), or its `models`, each task's manifest
    entry or `{"error": message}` (see `_task_outcome`) by model name; and
    the message of each failure, in plan order: a cohort's by its name, a
    task's by its label. Raises `CohortError` when every cohort and task
    failed."""
    tasks, cohort_errors = _plan_tasks(cfg, p1_panel, p2_panel)
    cohort_models: dict[str, dict] = {c: {} for c in _cohorts(cfg)}
    failures = {c: {c: cohort_errors[c]} if c in cohort_errors else {} for c in cohort_models}
    outcomes = _task_outcomes(cfg, tasks, p1_panel, p2_panel, flagged_dir, models_dir)
    for outcome, task in zip(outcomes, tasks, strict=True):
        if isinstance(outcome, str):
            failures[task.cohort][task.label] = outcome
            outcome = {"error": outcome}
        cohort_models[task.cohort][task.model] = outcome
    failed = {label: message for cohort in failures.values() for label, message in cohort.items()}
    if len(failed) == len(tasks) + len(cohort_errors):
        raise CohortError(f"every cohort failed: {'; '.join(sorted(set(failed.values())))}")
    cohorts = {
        cohort: {"error": cohort_errors[cohort]}
        if cohort in cohort_errors
        else {"models": dict(sorted(models.items()))}
        for cohort, models in cohort_models.items()
    }
    return cohorts, failed


def train_scorers(cfg: BacktestConfig, panel: Panel, models_dir: Path) -> dict[str, str]:
    """Fit calibrated scorers on the training period only (no test rows
    needed), each task writing its scorer file into the existing directory
    `models_dir`. Returns the message of each failure, in plan order: a
    cohort with no labeled training rows by its name, such as `Mixed`, and
    a failed task by its label, such as `All/logistic[pct_no_vehicle]`.
    Raises `CohortError` when no task succeeds, and `IoFailure` when a
    scorer file cannot be written; files written before a failure stay."""
    p1 = _rows_in_years(panel, cfg.p1_years)
    if not len(p1):
        raise CohortError(f"no rows in training years {cfg.p1_years}")
    p1_panel = build_labels(p1, cfg.label, by=cfg.label_by)
    return _run_plan(cfg, p1_panel, models_dir=models_dir)[1]


def run_backtest(
    cfg: BacktestConfig,
    panel: Panel,
    flagged_dir: Path,
    input_digests: dict[str, str] | None = None,
    *,
    models_dir: Path | None = None,
) -> dict:
    """Full train-on-P1 / evaluate-on-P2 run, returning its reproducible
    manifest body.

    Each flagged CSV the body names is written into the existing directory
    `flagged_dir` by the task that rendered it, and, unless `models_dir` is
    None, each task's scorer file into the existing directory `models_dir`;
    a failed task writes neither. No fitted model leaves the task that fit
    it, and the body is the same either way. Raises `CohortError` when no
    task succeeds, and `IoFailure` when a file cannot be written; files
    written before a failure stay.
    """
    p1 = _rows_in_years(panel, cfg.p1_years)
    p2 = _rows_in_years(panel, cfg.p2_years)
    if not len(p1) or not len(p2):
        raise CohortError(
            f"panel must cover both periods: {len(p1)} training rows, {len(p2)} test rows"
        )

    p1_panel = build_labels(p1, cfg.label, by=cfg.label_by)
    frozen = p1_panel.thresholds if cfg.threshold_mode == THRESHOLD_FROZEN else None
    p2_panel = build_labels(p2, cfg.label, frozen, by=cfg.label_by)
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
    cohorts, _ = _run_plan(cfg, p1_panel, p2_panel, flagged_dir, models_dir)

    config = cfg.to_dict()
    body = {
        "format": MANIFEST_FORMAT,
        "version": __version__,
        "seed": cfg.seed,
        "config": config,
        "config_hash": digest_of(config),
        "input_digests": dict(sorted((input_digests or {}).items())),
        "periods": {
            name: {**labeled.summary(), "anomaly_rows": int(np.count_nonzero(labeled.s_raw > 1.0))}
            for name, labeled in (("p1", p1_panel), ("p2", p2_panel))
        },
        "cohorts": cohorts,
        **diagnostics,
    }
    body["manifest_digest"] = digest_of(body)
    return body
