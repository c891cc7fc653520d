"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of snapgap from outside the package: each
wrapper is installed on the name its caller looks up (a module global or a
class attribute), so nothing under `src/` changes. A span records its name,
start, end, parent span and a few work counters taken from the call's
arguments or result. Spans stay in memory until the run ends.

A name that no longer exists (after a refactor, say) is recorded as absent
instead of raising, and every metric built on it reads zero.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """`fn` recording one span per call; `count(args, result)` gives counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, perf_counter(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def install(self, where: str, attr: str, name: str, count: Callable | None = None) -> None:
        """Replace `attr` on `where` ("pkg.module" or "pkg.module:Class")."""
        module_name, _, class_name = where.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{where}.{attr}")
            return
        if class_name:
            owner = getattr(owner, class_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{where}.{attr}")
            return
        # vars() gives the raw attribute, so restore() puts back exactly what was there
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(original, name, count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children[i]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def inside(spans: list[Span], ancestor: str) -> list[bool]:
    """Whether each span has an enclosing span named `ancestor`."""
    out: list[bool] = []
    for span in spans:  # parents precede children, so their answers exist
        p = span.parent
        out.append(p >= 0 and (spans[p].name == ancestor or out[p]))
    return out


def _rows(args, result):
    return {"rows": len(args[1])}


# (span name, where, attribute, counters): the wrappers of the traced run.
# `where` is the module whose global the caller reads, or a class.
WRAPS: list[tuple[str, str, str, Callable | None]] = [
    ("synth.generate_synthetic", "snapgap.cli", "generate_synthetic", None),
    ("ingest.write_records", "snapgap.cli", "write_records", None),
    (
        "ingest.parse_panel",
        "snapgap.cli",
        "parse_panel",
        lambda a, r: {"rows": len(r[0]) + len(r[1]), "rejects": len(r[1])},
    ),
    ("ingest.dedupe", "snapgap.cli", "dedupe", lambda a, r: {"merged": len(a[0]) - len(r)}),
    ("pipeline.run_backtest", "snapgap.cli", "run_backtest", None),
    ("report.emit_report", "snapgap.cli", "emit_report",
     lambda a, r: {"bytes": sum(p.stat().st_size for p in r)}),
    ("labeling.build_labels", "snapgap.pipeline", "build_labels", None),
    ("labeling.apply_thresholds", "snapgap.pipeline", "apply_thresholds", None),
    ("labeling.fit_uptake_ols", "snapgap.pipeline", "fit_uptake_ols", None),
    ("pipeline.run_yearly_diagnostics", "snapgap.pipeline", "run_yearly_diagnostics", None),
    ("pipeline.digest_of", "snapgap.pipeline", "digest_of", None),
    ("selection.cv_grid_search", "snapgap.pipeline", "cv_grid_search", None),
    ("selection.fit_family", "snapgap.pipeline", "fit_family", lambda a, r: {a[1]: 1}),
    ("selection.fit_family", "snapgap.models.selection", "fit_family", lambda a, r: {a[1]: 1}),
    ("selection.out_of_fold_proba", "snapgap.models.selection", "out_of_fold_proba", None),
    ("logistic.fit_logistic", "snapgap.models.selection", "fit_logistic", None),
    ("ensemble.fit_tree_ensemble", "snapgap.models.selection", "fit_tree_ensemble", None),
    ("tree.grow_tree", "snapgap.models.ensemble", "grow_tree",
     lambda a, r: {"nodes": r.n_nodes}),
    ("tree.predict", "snapgap.models.tree:DecisionTree", "predict", _rows),
    ("ensemble.predict_proba", "snapgap.models.ensemble:TreeEnsembleModel", "predict_proba", _rows),
    ("logistic.predict_proba", "snapgap.models.logistic:LogisticModel", "predict_proba", _rows),
    ("calibration.fit_isotonic", "snapgap.pipeline", "fit_isotonic", None),
    ("calibration.youden_threshold", "snapgap.pipeline", "youden_threshold", None),
    ("calibration.reliability_curve", "snapgap.pipeline", "reliability_curve", None),
    ("metrics.evaluate", "snapgap.pipeline", "evaluate", None),
    ("metrics.permutation_importance", "snapgap.pipeline", "permutation_importance", None),
    ("io.model_to_dict", "snapgap.pipeline", "model_to_dict", None),
]

FAMILIES = ("logistic", "random_forest", "gradient_boosting")


def install_all(tracer: Tracer) -> None:
    for name, where, attr, count in WRAPS:
        tracer.install(where, attr, name, count)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced job: name -> (value, unit).

    Every `.s` and `.self_s` figure is self time summed over the layer's
    spans; `.total_s` includes child spans.
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        self_s[span.name] += t
        total_s[span.name] += span.end - span.start
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value

    in_oof = inside(spans, "selection.out_of_fold_proba")
    in_importance = inside(spans, "metrics.permutation_importance")
    refits = sum(1 for s, flag in zip(spans, in_oof) if flag and s.name == "selection.fit_family")
    importance_predicts = sum(
        1
        for s, flag in zip(spans, in_importance)
        if flag and s.name in ("ensemble.predict_proba", "logistic.predict_proba")
    )

    m: dict[str, tuple[float, str]] = {}

    def seconds(metric: str, span: str) -> None:
        m[metric] = (self_s[span], "s")

    seconds("ingest.parse_panel.s", "ingest.parse_panel")
    m["ingest.parse_panel.us_per_row"] = (
        1e6 * _ratio(self_s["ingest.parse_panel"], counts["ingest.parse_panel.rows"]), "us")
    seconds("ingest.dedupe.s", "ingest.dedupe")
    m["ingest.rejects"] = (counts["ingest.parse_panel.rejects"], "count")
    m["ingest.dedupe.merged"] = (counts["ingest.dedupe.merged"], "count")
    seconds("labeling.build_labels.s", "labeling.build_labels")
    m["labeling.build_labels.calls"] = (calls["labeling.build_labels"], "count")
    seconds("labeling.apply_thresholds.s", "labeling.apply_thresholds")
    seconds("labeling.fit_uptake_ols.s", "labeling.fit_uptake_ols")
    seconds("pipeline.run_backtest.self_s", "pipeline.run_backtest")
    seconds("pipeline.run_yearly_diagnostics.self_s", "pipeline.run_yearly_diagnostics")
    seconds("pipeline.digest_of.s", "pipeline.digest_of")
    seconds("selection.cv_grid_search.self_s", "selection.cv_grid_search")
    m["selection.fit_family.calls"] = (calls["selection.fit_family"], "count")
    for family in FAMILIES:
        m[f"selection.fit_family.{family}.calls"] = (
            counts[f"selection.fit_family.{family}"], "count")
    seconds("selection.out_of_fold_proba.s", "selection.out_of_fold_proba")
    m["selection.out_of_fold_proba.total_s"] = (total_s["selection.out_of_fold_proba"], "s")
    m["selection.refit_frac"] = (_ratio(refits, calls["selection.fit_family"]), "ratio")
    seconds("tree.grow_tree.s", "tree.grow_tree")
    m["tree.grow_tree.calls"] = (calls["tree.grow_tree"], "count")
    m["tree.nodes"] = (counts["tree.grow_tree.nodes"], "count")
    m["tree.grow_us_per_node"] = (
        1e6 * _ratio(self_s["tree.grow_tree"], counts["tree.grow_tree.nodes"]), "us")
    seconds("tree.predict.s", "tree.predict")
    m["tree.predict.calls"] = (calls["tree.predict"], "count")
    m["tree.predict.ns_per_row_tree"] = (
        1e9 * _ratio(self_s["tree.predict"], counts["tree.predict.rows"]), "ns")
    seconds("ensemble.fit_tree_ensemble.self_s", "ensemble.fit_tree_ensemble")
    seconds("ensemble.predict_proba.s", "ensemble.predict_proba")
    m["ensemble.predict_proba.rows"] = (counts["ensemble.predict_proba.rows"], "count")
    seconds("logistic.fit_logistic.s", "logistic.fit_logistic")
    m["logistic.fit_logistic.calls"] = (calls["logistic.fit_logistic"], "count")
    seconds("calibration.fit_isotonic.s", "calibration.fit_isotonic")
    seconds("calibration.youden_threshold.s", "calibration.youden_threshold")
    seconds("calibration.reliability_curve.s", "calibration.reliability_curve")
    seconds("metrics.permutation_importance.self_s", "metrics.permutation_importance")
    m["metrics.permutation_importance.predict_calls"] = (importance_predicts, "count")
    seconds("metrics.evaluate.s", "metrics.evaluate")
    seconds("io.model_to_dict.s", "io.model_to_dict")
    seconds("report.emit_report.s", "report.emit_report")
    m["report.bytes_written"] = (counts["report.emit_report.bytes"], "bytes")
    seconds("synth.generate_synthetic.s", "synth.generate_synthetic")
    seconds("ingest.write_records.s", "ingest.write_records")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return m

