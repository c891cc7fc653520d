"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line (run with -s to see them live) and
enforces its runtime budget.
"""
import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import json_text, new_dir, random_records, scorers_in
from oracles import (
    Record,
    ap_rank_enum,
    auc_pairwise,
    fd_gradient,
    label_oracle,
    monotone_sse,
    ols_normal_equations,
    panel_of,
    pav_perturbations,
    records_of,
)
from snapgap.calibration import apply_isotonic, classify, fit_isotonic, prevalence_threshold
from snapgap.ingest import PREDICTOR_FIELDS, Area
from snapgap.labeling import UNLABELED, LabelConfig, build_labels, ols_fit
from snapgap.metrics import average_precision, permutation_importance, roc_auc
from snapgap.models import FeatureMatrix, fit_logistic, penalized_loss_grad, sample_weights
from snapgap.pipeline import BacktestConfig, run_backtest
from snapgap.synth import SyntheticSpec, generate_synthetic


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s > {budget_s}s"
    print(f"ACCEPTANCE {number:2d} PASS  {description} ({elapsed:.1f}s)")


def test_criterion_1_labeling_oracle_equivalence():
    with criterion(1, "build_labels matches brute-force oracle on 200 random panels", 5.0):
        rng = np.random.default_rng(101)
        cfg = LabelConfig()
        mismatches = 0
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 51))
            records = random_records(rng, n)
            try:
                panel = build_labels(panel_of(records), cfg)
            except Exception:
                continue  # no eligible rows; draw another panel
            checked += 1
            rows = [
                {
                    "p": p,
                    "s": s,
                    "area": rec.area.value,
                    "predictors_present": all(
                        getattr(rec, f) is not None for f in PREDICTOR_FIELDS
                    ),
                }
                for rec, p, s in zip(records, panel.p.tolist(), panel.s_raw.tolist())
            ]
            expected = label_oracle(rows, cfg.poverty_floor, cfg.hi_q, cfg.lo_q)
            got = [None if y == UNLABELED else y for y in panel.y.tolist()]
            mismatches += sum(1 for a, b in zip(got, expected) if a != b)
        assert mismatches == 0


def test_criterion_2_ols_against_normal_equations():
    with criterion(2, "OLS matches normal-equations oracle to 1e-10", 1.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            x = rng.normal(0, 50, size=n)
            x[0] += 1.0
            y = rng.normal(0, 50, size=n)
            fit = ols_fit(x, y)
            alpha, beta = ols_normal_equations(x, y)
            scale_a = max(1.0, abs(alpha))
            scale_b = max(1.0, abs(beta))
            assert abs(fit.alpha - alpha) / scale_a < 1e-10
            assert abs(fit.beta - beta) / scale_b < 1e-10
            resid = y - fit.alpha - fit.beta * x
            assert abs(resid.sum()) < 1e-9 * max(1.0, np.abs(y).sum())


def test_criterion_3_logistic_gradient_check():
    with criterion(3, "analytic gradient matches central differences to 1e-6", 2.0):
        rng = np.random.default_rng(303)
        for _ in range(5):
            n, d = int(rng.integers(30, 80)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.3).astype(int)
            y[0], y[1] = 1, 0
            w = sample_weights(y)
            c = float(rng.uniform(0.1, 10))
            yf = y.astype(float)
            for _ in range(10):
                theta = rng.normal(scale=1.2, size=d + 1)
                _, grad = penalized_loss_grad(theta, X, yf, w, c)
                approx = fd_gradient(lambda t: penalized_loss_grad(t, X, yf, w, c)[0], theta)
                rel = np.abs(grad - approx) / np.maximum(np.abs(grad), 1.0)
                assert rel.max() < 1e-6


def test_criterion_4_pav_optimality_and_mean_preservation():
    with criterion(4, "PAV beats all monotone +-1e-3 perturbations, preserves mean", 5.0):
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            scores = np.sort(rng.normal(size=n))
            scores += np.arange(n) * 1e-9  # force distinct breakpoints
            labels = rng.integers(0, 2, size=n).astype(float)
            iso = fit_isotonic(scores, labels)
            fitted = np.asarray(apply_isotonic(iso, scores))
            base = monotone_sse(fitted, labels)
            for cand in pav_perturbations(fitted, eps=1e-3):
                assert monotone_sse(cand, labels) >= base - 1e-12
            # exact up to float associativity
            assert abs(fitted.mean() - labels.mean()) <= 1e-12


def test_criterion_5_metric_oracles():
    with criterion(5, "AUC matches pairwise oracle, AP matches rank enumeration", 5.0):
        rng = np.random.default_rng(505)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            if rng.random() < 0.5:
                scores = rng.integers(0, 8, size=n) / 7.0
            else:
                scores = rng.random(n)
            labels = (rng.random(n) < 0.35).astype(int)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            if labels.sum() == n:
                labels[int(rng.integers(0, n))] = 0
            assert abs(roc_auc(scores, labels) - auc_pairwise(scores, labels)) <= 1e-12
            assert (
                abs(average_precision(scores, labels) - ap_rank_enum(scores.tolist(), labels.tolist()))
                <= 1e-12
            )


def _crafted_panel_with_exact_prevalence(n_planted=31, n_total=1000):
    """Panel whose labeled prevalence is exactly n_planted / n_total."""
    records = []
    n_rest = n_total - n_planted
    for i in range(n_planted):
        records.append(
            Record(
                zip=f"{i + 1:05d}", year=2015, pov_fam=1000.0, snap_fam=10.0,
                pov_rate=0.9,
                pct_no_vehicle=20.0, pct_no_internet=15.0, pct_no_computer=10.0,
                pct_hs_only=35.0 + i * 0.01, area=Area.RURAL,
            )
        )
    for i in range(n_rest):
        frac = i / (n_rest - 1)
        records.append(
            Record(
                zip=f"{1000 + i:05d}", year=2015,
                pov_fam=1000.0, snap_fam=round(1000 * (0.6 + 0.4 * frac)),
                pov_rate=0.15 + 0.35 * frac,
                pct_no_vehicle=10.0 + 10 * frac, pct_no_internet=15.0,
                pct_no_computer=10.0, pct_hs_only=30.0, area=Area.URBAN,
            )
        )
    return records


def test_criterion_6_prevalence_anchored_rule_exact():
    with criterion(6, "threshold equals training prevalence 0.031 exactly, inclusive", 5.0):
        records = _crafted_panel_with_exact_prevalence()
        panel = build_labels(panel_of(records), LabelConfig())
        assert panel.n_eligible() == 1000
        assert panel.n_positive() == 31
        assert panel.prevalence == 0.031
        rule = prevalence_threshold(panel.prevalence)
        assert rule.threshold == 0.031
        decisions = classify([0.031, np.nextafter(0.031, 0.0), 0.0309], rule)
        assert decisions.tolist() == [1, 0, 0]


def test_criterion_7_effect_recovery_over_20_seeds():
    with criterion(7, "planted vehicle effect: sign 20/20, top importance >=19/20", 60.0):
        cfg = LabelConfig()
        sign_hits = 0
        importance_hits = 0
        univariate_hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            spec = SyntheticSpec(
                n_zips=2000,
                years=(2014, 2023),
                true_coefficients={"pct_no_vehicle": -0.5},
                target_prevalence=0.031,
                seed=900 + seed,
            )
            panel, _ = generate_synthetic(spec)
            p1 = build_labels(panel.take(panel.year <= 2018), cfg)
            p2 = build_labels(panel.take(panel.year >= 2019), cfg)

            def matrix(panel, subset):
                rows = (panel.y >= 0) & (panel.panel.area != Area.UNKNOWN.value)
                cols = [PREDICTOR_FIELDS.index(f) for f in subset]
                X = panel.panel.predictors[np.ix_(rows, cols)]
                y = panel.y[rows].astype(int)
                return X, y

            X1, y1 = matrix(p1, PREDICTOR_FIELDS)
            X2, y2 = matrix(p2, PREDICTOR_FIELDS)
            model = fit_logistic(
                FeatureMatrix(X=X1, y=y1, feature_names=PREDICTOR_FIELDS), c=1.0
            )
            vehicle_idx = PREDICTOR_FIELDS.index("pct_no_vehicle")
            if model.coefficients[vehicle_idx] < 0:
                sign_hits += 1
            report = permutation_importance(model, X2, y2, repeats=10, seed=seed)
            if max(report.features, key=lambda f: f.delta_auc).name == "pct_no_vehicle":
                importance_hits += 1

            # univariate sweep: the planted feature should top the AUC table
            aucs = {}
            for feat in PREDICTOR_FIELDS:
                Xa, ya = matrix(p1, (feat,))
                Xb, yb = matrix(p2, (feat,))
                uni = fit_logistic(FeatureMatrix(X=Xa, y=ya, feature_names=(feat,)), c=1.0)
                aucs[feat] = roc_auc(uni.predict_proba(Xb), yb)
            if max(aucs, key=aucs.get) == "pct_no_vehicle":
                univariate_hits += 1

        assert sign_hits == n_seeds
        assert importance_hits >= 19
        assert univariate_hits >= 19


ACCEPT_GRIDS = {
    "logistic": [{"c": 0.1}, {"c": 1.0}],
    "random_forest": [{"n_trees": 10, "max_depth": 3}],
    "gradient_boosting": [{"n_trees": 10, "max_depth": 2, "learning_rate": 0.1}],
}


def _acceptance_cfg(**kwargs):
    base = dict(
        feature_subsets=(("pct_no_vehicle",), ("pct_no_vehicle", "pct_hs_only")),
        families=("logistic", "random_forest", "gradient_boosting"),
        grids=ACCEPT_GRIDS,
        folds=3,
        seed=4242,
        importance_repeats=2,
    )
    base.update(kwargs)
    return BacktestConfig(**base)


@pytest.fixture(scope="module")
def acceptance_panel():
    spec = SyntheticSpec(
        n_zips=400,
        years=(2014, 2023),
        true_coefficients={"pct_no_vehicle": -0.5},
        target_prevalence=0.031,
        anomaly_rate=0.01,
        seed=777,
    )
    return generate_synthetic(spec)


def test_criterion_8_out_of_time_hygiene(acceptance_panel, tmp_path):
    with criterion(8, "mutating test-period rows leaves training fits bit-identical", 10.0):
        panel, _ = acceptance_panel
        cfg = _acceptance_cfg()
        base_models, other_models = new_dir(tmp_path / "base"), new_dir(tmp_path / "other")
        base = run_backtest(cfg, panel, tmp_path, models_dir=base_models)
        rng = np.random.default_rng(1)
        mutated = [
            dataclasses.replace(
                r,
                snap_fam=(r.snap_fam or 0) + float(rng.integers(1, 80)),
                pct_no_vehicle=min(100.0, (r.pct_no_vehicle or 0.0) + float(rng.uniform(0, 15))),
                pct_hs_only=max(0.0, (r.pct_hs_only or 0.0) - float(rng.uniform(0, 10))),
            )
            if r.year >= 2019
            else r
            for r in records_of(panel)
        ]
        other = run_backtest(cfg, panel_of(mutated), tmp_path, models_dir=other_models)
        base_scorers, other_scorers = scorers_in(base_models), scorers_in(other_models)

        from snapgap.models import model_to_dict

        assert base["periods"]["p1"] == other["periods"]["p1"]
        assert len(base_scorers) == 6
        assert set(base_scorers) == set(other_scorers)
        for key, scorer in base_scorers.items():
            twin = other_scorers[key]
            assert model_to_dict(scorer.model) == model_to_dict(twin.model)
            assert scorer.rule == twin.rule
            assert np.array_equal(scorer.isotonic.scores, twin.isotonic.scores)
            assert np.array_equal(scorer.isotonic.values, twin.isotonic.values)


def test_criterion_9_backtest_determinism(acceptance_panel, tmp_path):
    with criterion(9, "byte-identical manifests across reruns", 60.0):
        records, _ = acceptance_panel
        cfg = _acceptance_cfg()
        runs = [run_backtest(cfg, records, tmp_path), run_backtest(cfg, records, tmp_path)]
        blobs = {json_text(m) for m in runs}
        assert len(blobs) == 1
        digests = {m["manifest_digest"] for m in runs}
        assert len(digests) == 1


def test_criterion_10_null_calibration(tmp_path):
    with criterion(10, "null effects: mean reliability gap <= 0.05 on n=5000 test rows", 30.0):
        spec = SyntheticSpec(
            n_zips=1000,
            years=(2014, 2023),
            true_coefficients={},
            target_prevalence=0.031,
            seed=55,
        )
        records, _ = generate_synthetic(spec)
        cfg = _acceptance_cfg(
            feature_subsets=(PREDICTOR_FIELDS,),
            families=("logistic",),
            grids={"logistic": [{"c": 1.0}]},
            folds=5,
        )
        manifest = run_backtest(cfg, records, tmp_path)
        assert manifest["periods"]["p2"]["n_rows"] == 5000
        label = "logistic[{}]".format("+".join(PREDICTOR_FIELDS))
        rows = manifest["cohorts"]["All"]["models"][label]["reliability"]
        gaps = [abs(r["observed_rate"] - r["mean_predicted"]) for r in rows]
        assert np.mean(gaps) <= 0.05
