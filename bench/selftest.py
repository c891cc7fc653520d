"""Self-tests of the benchmark's own arithmetic; no timing is checked.

    python3 -m pytest -q bench/selftest.py
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import quality
import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_subtracts_only_direct_children():
    # a [0, 10] holds b [1, 4] and c [3, 6] (overlapping) and d [8, 12] (clipped);
    # b holds e [2, 3]
    tree = [
        spans.Span("a", 0.0, 10.0, -1),
        spans.Span("b", 1.0, 4.0, 0),
        spans.Span("e", 2.0, 3.0, 1),
        spans.Span("c", 3.0, 6.0, 0),
        spans.Span("d", 8.0, 12.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])
    assert spans.inside(tree, "b") == [False, False, True, False, False]
    assert spans.inside(tree, "a") == [False, True, True, True, True]


def test_layer_metrics_count_refits_and_importance_predicts():
    tree = [
        spans.Span("selection.cv_grid_search", 0.0, 10.0, -1),
        spans.Span("selection.fit_family", 0.0, 2.0, 0, {"logistic": 1}),
        spans.Span("selection.out_of_fold_proba", 2.0, 6.0, 0),
        spans.Span("selection.fit_family", 2.0, 5.0, 2, {"logistic": 1}),
        spans.Span("metrics.permutation_importance", 10.0, 12.0, -1),
        spans.Span("logistic.predict_proba", 10.5, 11.0, 4, {"rows": 100}),
    ]
    m = spans.layer_metrics(tree, untraced_s=10.0, traced_s=11.0)
    assert m["selection.fit_family.calls"] == (2, "count")
    assert m["selection.fit_family.logistic.calls"] == (2, "count")
    assert m["selection.refit_frac"] == (0.5, "ratio")
    assert m["selection.cv_grid_search.self_s"][0] == pytest.approx(4.0)
    assert m["selection.out_of_fold_proba.s"][0] == pytest.approx(1.0)
    assert m["selection.out_of_fold_proba.total_s"][0] == pytest.approx(4.0)
    assert m["metrics.permutation_importance.predict_calls"] == (1, "count")
    assert m["trace.overhead_frac"][0] == pytest.approx(0.1)


MANIFEST_FRAGMENT = {
    "config": {"feature_subsets": [["pct_no_vehicle"], ["pct_hs_only"]], "families": ["logistic"]},
    "cohorts": {
        "Mixed": {"error": "cohort 'Mixed': no labeled training rows"},
        "Rural": {
            "models": {
                "logistic[pct_hs_only]": {"error": "cohort 'Rural': too few positives"},
                "logistic[pct_no_vehicle]": {
                    "features": ["pct_no_vehicle"],
                    "eval": {"ap": 0.2, "auc": 0.7, "precision": 0.1},
                    "reliability": [
                        {"count": 30, "mean_predicted": 0.1, "observed_rate": 0.2},
                        {"count": 10, "mean_predicted": 0.5, "observed_rate": 0.3},
                    ],
                    "importance": {"features": [{"name": "pct_no_vehicle", "delta_auc": 0.1}]},
                },
            }
        },
        "Urban": {
            "models": {
                "logistic[pct_hs_only]": {
                    "features": ["pct_hs_only"],
                    "eval": {"ap": 0.4, "auc": 0.9, "precision": 0.3},
                    "reliability": [{"count": 5, "mean_predicted": 0.2, "observed_rate": 0.2}],
                    "importance": {"features": [{"name": "pct_hs_only", "delta_auc": 0.0}]},
                },
                "logistic[pct_no_vehicle]": {
                    "features": ["pct_no_vehicle", "pct_hs_only"],
                    "eval": {"ap": 0.3, "auc": 0.8, "precision": 0.2},
                    "reliability": [{"count": 5, "mean_predicted": 0.2, "observed_rate": 0.4}],
                    "importance": {
                        "features": [
                            {"name": "pct_no_vehicle", "delta_auc": 0.01},
                            {"name": "pct_hs_only", "delta_auc": 0.02},
                        ]
                    },
                },
            }
        },
    },
}


def test_manifest_figures():
    # 3 cohorts x 2 tasks; the Mixed error fails both of its tasks, Rural one
    assert quality.task_counts(MANIFEST_FRAGMENT) == (6, 3)
    # Rural: (30 * 0.1 + 10 * 0.2) / 40
    assert quality.calib_gap(
        MANIFEST_FRAGMENT["cohorts"]["Rural"]["models"]["logistic[pct_no_vehicle]"]["reliability"]
    ) == pytest.approx(0.125)
    q = quality.quality(MANIFEST_FRAGMENT)
    assert q["p2_ap_mean"] == pytest.approx(0.3)
    assert q["p2_auc_mean"] == pytest.approx(0.8)
    assert q["flag_precision_mean"] == pytest.approx(0.2)
    assert q["calib_gap_mean"] == pytest.approx((0.125 + 0.0 + 0.2) / 3)
    # over the models using pct_no_vehicle its mean drop, (0.1 + 0.01) / 2,
    # beats pct_hs_only's 0.02, though the Urban model alone ranks pct_hs_only first
    assert quality.importance_miss(MANIFEST_FRAGMENT) is None
    weak = json.loads(json.dumps(MANIFEST_FRAGMENT))
    weak["cohorts"]["Rural"]["models"]["logistic[pct_no_vehicle]"]["importance"] = {
        "features": [{"name": "pct_no_vehicle", "delta_auc": 0.0}]}
    assert quality.importance_miss(weak) == "pct_hs_only"


TINY_CONFIG = """\
synth: {n_zips: 300, true_coefficients: {pct_no_vehicle: -0.5}, anomaly_rate: 0.01}
feature_subsets: [[pct_no_vehicle, pct_hs_only]]
families: [logistic]
grids: {logistic: [{c: 0.1}, {c: 1.0}]}
importance_repeats: 1
"""


def test_tracing_leaves_the_manifest_unchanged(tmp_path):
    sys.path.insert(0, str(SRC))
    from snapgap import cli

    config = tmp_path / "tiny.yaml"
    config.write_text(TINY_CONFIG)
    panel = tmp_path / "panel.csv"
    digests = []
    tracer = spans.Tracer()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--config", str(config), "--seed", "3", "--out", str(panel)]) == 0
        for run in ("plain", "traced"):
            if run == "traced":
                spans.install_all(tracer)
                tracer.install("snapgap.no_such_module", "f", "absent.module")
                tracer.install("snapgap.pipeline", "no_such_function", "absent.function")
            out = tmp_path / run
            try:
                args = ["backtest", "--config", str(config), "--seed", "3",
                        "--panel", str(panel), "--out", str(out)]
                assert cli.main(args) == 0
            finally:
                tracer.restore()
            digests.append(json.loads((out / "manifest.json").read_text())["manifest_digest"])
    assert digests[0] == digests[1]
    assert tracer.absent == ["snapgap.no_such_module.f", "snapgap.pipeline.no_such_function"]
    m = spans.layer_metrics(tracer.spans, 1.0, 1.0)
    assert m["logistic.fit_logistic.calls"][0] > 0
    assert m["labeling.build_labels.calls"][0] == 16
    from snapgap import pipeline
    assert not hasattr(pipeline.build_labels, "__wrapped__")  # restored
