import csv
import dataclasses
import io
import json
import multiprocessing
import os
import pickle
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import files_in, json_text, make_record, new_dir, scorers_in
from oracles import flagged_rows_reference, panel_of, records_of, yearly_reference
from snapgap import pipeline
from snapgap.errors import CohortError, IoFailure, NonConvergence, SnapGapError, ValidationError
from snapgap.ingest import PREDICTOR_FIELDS, Area
from snapgap.jsonio import plain
from snapgap.labeling import LabelConfig
from snapgap.models import io as models_io
from snapgap.models import selection
from snapgap.pipeline import (
    BacktestConfig,
    sha256,
    all_feature_subsets,
    run_backtest,
    run_yearly_diagnostics,
)
from snapgap.synth import SyntheticSpec, generate_synthetic

FAST_GRIDS = {
    "logistic": [{"c": 1.0}],
    "random_forest": [{"n_trees": 8, "max_depth": 3}],
    "gradient_boosting": [{"n_trees": 8, "max_depth": 2, "learning_rate": 0.1}],
}


def fast_cfg(**kwargs):
    base = dict(
        feature_subsets=(("pct_no_vehicle",), ("pct_no_vehicle", "pct_hs_only")),
        families=("logistic",),
        grids=FAST_GRIDS,
        folds=3,
        seed=123,
        importance_repeats=2,
    )
    base.update(kwargs)
    return BacktestConfig(**base)


@pytest.fixture(scope="module")
def synth_panel():
    spec = SyntheticSpec(
        n_zips=600,
        years=(2014, 2023),
        true_coefficients={"pct_no_vehicle": -0.6},
        target_prevalence=0.031,
        anomaly_rate=0.02,
        seed=31,
    )
    return generate_synthetic(spec)


class TestGuards:
    def test_periods_overlap(self):
        overlap = r"training years \(2014, 2019\) must end before test years \(2019, 2023\)"
        with pytest.raises(ValidationError, match=overlap):
            BacktestConfig(p1_years=(2014, 2019), p2_years=(2019, 2023))
        reversed_periods = r"training years \(2019, 2023\) must end before test years \(2014, 2018\)"
        with pytest.raises(ValidationError, match=reversed_periods):
            BacktestConfig(p1_years=(2019, 2023), p2_years=(2014, 2018))

    def test_config_dict_holds_every_setting_in_manifest_form(self):
        cfg = fast_cfg(area_mode="stratified", label=LabelConfig(lo_q=0.2, use_capped_uptake=False))
        assert cfg.to_dict() == {
            "p1_years": [2014, 2018],
            "p2_years": [2019, 2023],
            "label": {
                "poverty_floor": 0.15,
                "hi_q": 0.70,
                "lo_q": 0.2,
                "stratify_by_area": True,
                "use_capped_uptake": False,
            },
            "feature_subsets": [["pct_no_vehicle"], ["pct_no_vehicle", "pct_hs_only"]],
            "families": ["logistic"],
            "grids": {"logistic": [{"c": 1.0}]},
            "folds": 3,
            "seed": 123,
            "area_mode": "stratified",
            "threshold_mode": "refit",
            "decision": "prevalence",
            "selection": "cv",
            "hidden_tail": 0.05,
            "reliability_bins": 10,
            "importance_repeats": 2,
        }
        assert BacktestConfig().to_dict()["feature_subsets"] == [list(s) for s in all_feature_subsets()]

    def test_all_subsets_enumerated(self):
        subsets = all_feature_subsets()
        assert len(subsets) == 15
        assert ("pct_no_vehicle",) in subsets
        assert subsets[-1] == (
            "pct_no_vehicle", "pct_no_internet", "pct_no_computer", "pct_hs_only",
        )

    def test_panel_must_cover_both_periods(self, synth_panel, tmp_path):
        panel, _ = synth_panel
        p1_only = panel.take(panel.year <= 2018)
        with pytest.raises(CohortError, match="panel must cover both periods: .* training rows, 0 test rows"):
            run_backtest(fast_cfg(), p1_only, tmp_path)


class TestDeterminism:
    def test_identical_runs_identical_manifests(self, synth_panel, tmp_path):
        records, _ = synth_panel
        cfg = fast_cfg()
        m1 = run_backtest(cfg, records, tmp_path)
        m2 = run_backtest(cfg, records, tmp_path)
        assert m1 == m2
        assert json_text(m1) == json_text(m2)
        assert m1["manifest_digest"] == m2["manifest_digest"]

    def test_seed_changes_results(self, synth_panel, tmp_path):
        records, _ = synth_panel
        m1 = run_backtest(fast_cfg(seed=1), records, tmp_path)
        m2 = run_backtest(fast_cfg(seed=2), records, tmp_path)
        assert m1["manifest_digest"] != m2["manifest_digest"]


class TestNoLeakage:
    def test_mutating_p2_leaves_p1_fits_bit_identical(self, synth_panel, tmp_path):
        records, _ = synth_panel
        cfg = fast_cfg()
        base_models, other_models = new_dir(tmp_path / "base"), new_dir(tmp_path / "other")
        base = run_backtest(cfg, records, tmp_path, models_dir=base_models)

        mutated = []
        rng = np.random.default_rng(0)
        for r in records_of(records):
            if r.year >= 2019 and rng.random() < 0.5:
                mutated.append(
                    dataclasses.replace(
                        r,
                        snap_fam=(r.snap_fam or 0) + 25.0,
                        pct_no_vehicle=min(100.0, (r.pct_no_vehicle or 0) + 9.0),
                    )
                )
            else:
                mutated.append(r)
        other = run_backtest(cfg, panel_of(mutated), tmp_path, models_dir=other_models)

        assert base["periods"]["p1"] == other["periods"]["p1"]
        base_scorers, other_scorers = scorers_in(base_models), scorers_in(other_models)
        assert len(base_scorers) == 2
        for key, scorer in base_scorers.items():
            twin = other_scorers[key]
            assert scorer.rule == twin.rule
            assert np.array_equal(scorer.isotonic.scores, twin.isotonic.scores)
            assert np.array_equal(scorer.isotonic.values, twin.isotonic.values)
            a, b = scorer.model, twin.model
            if hasattr(a, "coefficients"):
                assert np.array_equal(a.coefficients, b.coefficients)
                assert a.intercept == b.intercept
                assert np.array_equal(a.standardization.mean, b.standardization.mean)
                assert np.array_equal(a.standardization.sd, b.standardization.sd)
            else:
                from snapgap.models import model_to_dict

                assert model_to_dict(a) == model_to_dict(b)
        # P2-side numbers do change
        assert base["periods"]["p2"] != other["periods"]["p2"]


class TestBacktestBody:
    def test_threshold_modes(self, synth_panel, tmp_path):
        records, _ = synth_panel
        refit = run_backtest(fast_cfg(threshold_mode="refit"), records, tmp_path)
        frozen = run_backtest(fast_cfg(threshold_mode="frozen"), records, tmp_path)
        p1_th = refit["periods"]["p1"]["thresholds"]["All"]
        assert frozen["periods"]["p2"]["thresholds"]["All"] == p1_th
        assert refit["periods"]["p2"]["thresholds"]["All"] != p1_th

    def test_prevalence_anchored_rule_uses_p1(self, synth_panel, tmp_path):
        records, _ = synth_panel
        manifest = run_backtest(fast_cfg(), records, tmp_path)
        p1_prev = manifest["periods"]["p1"]["prevalence"]
        for detail in manifest["cohorts"]["All"]["models"].values():
            assert detail["rule"]["threshold"] == p1_prev
            assert detail["rule"]["policy"] == "prevalence_anchored"

    def test_anomaly_accounting_matches_planted(self, synth_panel, tmp_path):
        records, truth = synth_panel
        manifest = run_backtest(fast_cfg(), records, tmp_path)
        total = (
            manifest["periods"]["p1"]["anomaly_rows"]
            + manifest["periods"]["p2"]["anomaly_rows"]
        )
        assert total == truth["n_planted_anomalies"]

    def test_flagged_lists_sorted_and_thresholded(self, synth_panel, tmp_path):
        records, _ = synth_panel
        manifest = run_backtest(fast_cfg(), records, tmp_path)
        models = manifest["cohorts"]["All"]["models"]
        flagged_csvs = files_in(tmp_path)
        assert sorted(flagged_csvs) == sorted(d["flagged"]["file"] for d in models.values())
        for label, detail in models.items():
            entry = detail["flagged"]
            assert entry["file"] == pipeline.model_file("flagged", "All", label, ".csv")
            data = flagged_csvs[entry["file"]]
            assert sha256(data).hexdigest() == entry["sha256"]
            header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
            assert header == ["zip", "year", "calibrated_probability"]
            assert len(rows) == entry["rows"] == detail["eval"]["n_flagged"] > 0
            flagged = [(z, int(y), float(p)) for z, y, p in rows]
            keys = [(-p, z, y) for z, y, p in flagged]
            assert keys == sorted(keys)
            assert all(p >= detail["rule"]["threshold"] for _, _, p in flagged)

    def test_univariate_auc_ordering_vehicle_dominant(self, synth_panel, tmp_path):
        records, _ = synth_panel
        cfg = fast_cfg(
            feature_subsets=tuple((f,) for f in (
                "pct_no_vehicle", "pct_no_internet", "pct_no_computer", "pct_hs_only",
            )),
        )
        manifest = run_backtest(cfg, records, tmp_path)
        aucs = {
            detail["features"][0]: detail["eval"]["auc"]
            for detail in manifest["cohorts"]["All"]["models"].values()
        }
        assert max(aucs, key=aucs.get) == "pct_no_vehicle"

    def test_youden_split_path(self, synth_panel, tmp_path):
        records, _ = synth_panel
        cfg = fast_cfg(selection="split70", decision="youden")
        manifest = run_backtest(cfg, records, tmp_path)
        for detail in manifest["cohorts"]["All"]["models"].values():
            assert detail["cv"] is None
            assert detail["rule"]["policy"] == "youden"

    def test_importance_present(self, synth_panel, tmp_path):
        records, _ = synth_panel
        manifest = run_backtest(fast_cfg(), records, tmp_path)
        detail = manifest["cohorts"]["All"]["models"]["logistic[pct_no_vehicle+pct_hs_only]"]
        names = [f["name"] for f in detail["importance"]["features"]]
        assert names == ["pct_no_vehicle", "pct_hs_only"]


def fit_logistic_failing_at(monkeypatch, failing_c):
    """Make every logistic fit with C in `failing_c` raise NonConvergence."""
    fit_logistic = selection.fit_logistic

    def fit(fm, c=1.0, **kw):
        if c in failing_c:
            raise NonConvergence(f"no convergence at c={c}")
        return fit_logistic(fm, c=c, **kw)

    monkeypatch.setattr(selection, "fit_logistic", fit)


class TestNonConvergence:
    """A fit that fails to converge fails its grid candidate or its task only."""

    SUBSET = (("pct_no_vehicle", "pct_hs_only"),)

    def test_failed_candidate_is_an_entry_and_cannot_win(self, synth_panel, monkeypatch, tmp_path):
        records, _ = synth_panel
        grids = dict(FAST_GRIDS, logistic=[{"c": 1.0}, {"c": 100.0}])
        expected = run_backtest(fast_cfg(feature_subsets=self.SUBSET), records, tmp_path)
        fit_logistic_failing_at(monkeypatch, {100.0})
        manifest = run_backtest(fast_cfg(feature_subsets=self.SUBSET, grids=grids), records, tmp_path)
        (detail,) = manifest["cohorts"]["All"]["models"].values()
        (want,) = expected["cohorts"]["All"]["models"].values()
        assert detail["winner"] == {"c": 1.0}
        assert detail["cv"] == want["cv"] + [
            {"params": {"c": 100.0}, "error": "no convergence at c=100.0"}
        ]
        assert {k: v for k, v in detail.items() if k != "cv"} == {
            k: v for k, v in want.items() if k != "cv"
        }

    @pytest.mark.parametrize("selection_mode", ["cv", "split70"])
    def test_task_without_a_converged_fit_gets_an_error(
        self, synth_panel, monkeypatch, selection_mode, tmp_path
    ):
        records, _ = synth_panel
        fit_logistic_failing_at(monkeypatch, {0.01, 0.1, 1.0, 10.0, 100.0})
        cfg = fast_cfg(
            feature_subsets=self.SUBSET,
            families=("logistic", "random_forest"),
            selection=selection_mode,
        )
        models = run_backtest(cfg, records, tmp_path)["cohorts"]["All"]["models"]
        assert set(models["logistic[pct_no_vehicle+pct_hs_only]"]) == {"error"}
        assert "no convergence" in models["logistic[pct_no_vehicle+pct_hs_only]"]["error"]
        assert "eval" in models["random_forest[pct_no_vehicle+pct_hs_only]"]


def pool_size(monkeypatch, workers):
    """Run every plan's tasks in `workers` forked processes (1: in-process),
    whatever the CPU count."""
    monkeypatch.setattr(pipeline, "_pool_size", lambda n_tasks: min(n_tasks, workers))


class TestWorkerPool:
    """Forked workers change where tasks run, never what they produce."""

    SUBSETS = (("pct_no_vehicle",), ("pct_no_vehicle", "pct_hs_only"))

    @pytest.mark.parametrize(
        "selection_mode,failing_c",
        [("cv", {100.0}), ("cv", {1.0, 100.0}), ("split70", {1.0})],
    )
    def test_non_convergence_entries_match_in_process(
        self, synth_panel, monkeypatch, selection_mode, failing_c, tmp_path
    ):
        records, _ = synth_panel
        fit_logistic_failing_at(monkeypatch, failing_c)
        cfg = fast_cfg(
            feature_subsets=self.SUBSETS,
            families=("logistic", "random_forest"),
            # split70 fits one candidate per family
            grids=dict(FAST_GRIDS, logistic=[{"c": 1.0}, {"c": 100.0}]) if selection_mode == "cv" else FAST_GRIDS,
            selection=selection_mode,
        )
        runs = []
        for workers in (1, 2):
            pool_size(monkeypatch, workers)
            models_dir = new_dir(tmp_path / f"models-{workers}")
            runs.append(run_backtest(cfg, records, tmp_path, models_dir=models_dir))
        serial, pooled = runs
        assert json_text(pooled) == json_text(serial)
        assert files_in(tmp_path / "models-2") == files_in(tmp_path / "models-1")
        models = pooled["cohorts"]["All"]["models"]
        entries = json.dumps(plain(models))
        assert "no convergence" in entries
        assert all("eval" in models[f"random_forest[{'+'.join(s)}]"] for s in self.SUBSETS)

    def test_flagged_cells_are_the_panels_own(self, synth_panel, monkeypatch, tmp_path):
        # each task renders its flagged CSV from the panel's ZIP and year
        # cells, with the same bytes in a worker and in this process
        panel, _ = synth_panel
        late = {(z, y) for z, y in zip(panel.zip.tolist(), panel.year.tolist()) if y >= 2019}
        cfg = fast_cfg(feature_subsets=self.SUBSETS, families=("logistic", "random_forest"))
        runs, flagged = [], []
        for workers in (1, 2):
            pool_size(monkeypatch, workers)
            runs.append(run_backtest(cfg, panel, new_dir(tmp_path / str(workers))))
            flagged.append(files_in(tmp_path / str(workers)))
        serial, pooled = runs
        assert json_text(pooled) == json_text(serial)
        assert flagged[1] == flagged[0]
        assert len(flagged[0]) == 4
        for data in flagged[0].values():
            _, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
            assert rows and {(z, int(y)) for z, y, _ in rows} <= late

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask here")
    def test_pool_size_follows_the_affinity_mask_and_threads(self):
        cpus = len(os.sched_getaffinity(0))
        assert pipeline._pool_size(1) == 1
        assert pipeline._pool_size(1000) == cpus
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert pipeline._pool_size(1000) == 1  # fork would copy only this thread
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert pipeline._pool_size(1000) == cpus

    def test_worker_death_names_its_task(self, synth_panel, monkeypatch, tmp_path):
        self.assert_death_in_forest_unit_named(synth_panel, monkeypatch, tmp_path, "_task_outcome")

    def test_fold_unit_death_names_its_task(self, synth_panel, monkeypatch, tmp_path):
        self.assert_death_in_forest_unit_named(synth_panel, monkeypatch, tmp_path, "_fold_outcome")

    def assert_death_in_forest_unit_named(self, synth_panel, monkeypatch, tmp_path, unit):
        # a forest CV task runs as fold units (`_fold_outcome`) and then its
        # tail (`_task_outcome`); a worker dies in one of them
        records, _ = synth_panel
        parent, run_unit = os.getpid(), getattr(pipeline, unit)

        def die_in_forest_worker(state, i, *part):
            family = state[1][i][2]
            if family == "random_forest" and os.getpid() != parent:
                os._exit(1)
            return run_unit(state, i, *part)

        monkeypatch.setattr(pipeline, unit, die_in_forest_worker)
        pool_size(monkeypatch, 2)
        cfg = fast_cfg(feature_subsets=self.SUBSETS[:1], families=("logistic", "random_forest"))
        with pytest.raises(SnapGapError, match=r"while running .*All/random_forest\[pct_no_vehicle\]"):
            run_backtest(cfg, records, tmp_path)

    def test_split_tasks_match_in_process(self, synth_panel, monkeypatch, tmp_path):
        # Mixed holds 7 training positives, too few for 8 stratified folds;
        # a logistic candidate fails beside each forest and boosting search
        panel, _ = synth_panel
        fit_logistic_failing_at(monkeypatch, {100.0})
        cfg = fast_cfg(
            area_mode="stratified",
            feature_subsets=self.SUBSETS,
            families=("logistic", "random_forest", "gradient_boosting"),
            grids=dict(
                FAST_GRIDS,
                logistic=[{"c": 1.0}, {"c": 100.0}],
                random_forest=[{"n_trees": 4, "max_depth": 3}, {"n_trees": 8, "max_depth": 3}],
            ),
            folds=8,
        )
        runs = []
        for workers in (1, 2):
            pool_size(monkeypatch, workers)
            run_dir = new_dir(tmp_path / str(workers))
            runs.append(run_backtest(cfg, panel, run_dir, models_dir=new_dir(run_dir / "models")))
        serial, pooled = runs
        assert json_text(pooled) == json_text(serial)
        assert files_in(tmp_path / "2") == files_in(tmp_path / "1")
        assert len(list((tmp_path / "1" / "models").iterdir())) == 12  # Urban's and Rural's
        cohorts = serial["cohorts"]
        for models in (cohorts["Urban"]["models"], cohorts["Rural"]["models"]):
            assert len(models) == 6 and all("eval" in d for d in models.values())
            for subset in self.SUBSETS:
                logistic = models[f"logistic[{'+'.join(subset)}]"]["cv"]
                assert logistic[1] == {"params": {"c": 100.0}, "error": "no convergence at c=100.0"}
        mixed = cohorts["Mixed"]["models"]
        assert len(mixed) == 6
        assert all("minimum feasible folds: 7" in d["error"] for d in mixed.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_pass_order_changes_nothing(self, synth_panel, monkeypatch, tmp_path, workers):
        # fold units handed out in reverse give the same manifest, flagged
        # CSVs and warnings: their results are gathered in fold order
        records, _ = synth_panel
        predictors = records.predictors.copy()
        predictors[:, PREDICTOR_FIELDS.index("pct_hs_only")] = 30.0
        panel = dataclasses.replace(records, predictors=predictors)
        fold_proba, first_pass = pipeline.fold_proba, pipeline._first_pass

        def announced(fm, family, grid, val, *args):
            warnings.warn(f"{family}[{'+'.join(fm.feature_names)}] fold from row {val[0]}")
            return fold_proba(fm, family, grid, val, *args)

        monkeypatch.setattr(pipeline, "fold_proba", announced)
        pool_size(monkeypatch, workers)
        cfg = fast_cfg(
            feature_subsets=self.SUBSETS, families=("logistic", "random_forest", "gradient_boosting")
        )
        runs = []
        for order in (list, reversed):
            def ordered(cfg, tasks, order=order):
                return list(order(first_pass(cfg, tasks)))

            monkeypatch.setattr(pipeline, "_first_pass", ordered)
            flagged_dir = new_dir(tmp_path / order.__name__)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                manifest = run_backtest(cfg, panel, flagged_dir)
            messages = [str(w.message) for w in caught]
            runs.append((json_text(manifest), files_in(flagged_dir), messages))
        assert runs[0] == runs[1]
        messages = runs[0][2]
        assert sum("fold from row" in m for m in messages) == 4 * cfg.folds
        assert any("constant feature" in m for m in messages)

    def test_one_forest_task_uses_two_workers(self, synth_panel, monkeypatch, tmp_path):
        # the first two fold units wait for each other, so they must run at
        # once, in two processes
        panel, _ = synth_panel
        meet = multiprocessing.get_context("fork").Barrier(2, timeout=60)
        parent, fold_outcome, sizes = os.getpid(), pipeline._fold_outcome, []

        def meeting(state, i, k):
            assert os.getpid() != parent, "a fold unit ran in the parent process"
            if k < 2:
                meet.wait()
            return fold_outcome(state, i, k)

        cfg = fast_cfg(feature_subsets=self.SUBSETS[:1], families=("random_forest",))
        real_pool_size = pipeline._pool_size
        pool_size(monkeypatch, 1)
        expected = run_backtest(cfg, panel, tmp_path)
        monkeypatch.setattr(pipeline, "_fold_outcome", meeting)
        monkeypatch.setattr(
            pipeline, "_pool_size", lambda n_units: sizes.append(n_units) or min(n_units, 2)
        )
        assert json_text(run_backtest(cfg, panel, tmp_path)) == json_text(expected)
        assert sizes == [cfg.folds]
        if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
            assert real_pool_size(cfg.folds) == 2


class TestDroppedScorers:
    """No fitted model leaves the task that fit it, with or without a models
    directory; writing scorer files changes nothing else."""

    SUBSETS = TestWorkerPool.SUBSETS

    def test_same_body_and_no_model_sent_back(self, synth_panel, monkeypatch, tmp_path):
        panel, _ = synth_panel
        task_outcome = pipeline._task_outcome

        pipe = new_dir(tmp_path / "pipe")

        def recorded(state, i, fold_errors=None):
            # runs in a worker when pooled, so it writes what the pipe carries
            outcome = task_outcome(state, i, fold_errors)
            (pipe / f"{state[5] is not None}-{i}.pickle").write_bytes(pickle.dumps(outcome))
            return outcome

        monkeypatch.setattr(pipeline, "_task_outcome", recorded)
        cfg = fast_cfg(feature_subsets=self.SUBSETS, families=("logistic", "random_forest"))
        for workers in (1, 2):
            pool_size(monkeypatch, workers)
            kept_dir, dropped_dir = (new_dir(tmp_path / f"{name}-{workers}") for name in ("kept", "dropped"))
            models_dir = new_dir(tmp_path / f"models-{workers}")
            kept = run_backtest(cfg, panel, kept_dir, models_dir=models_dir)
            dropped = run_backtest(cfg, panel, dropped_dir)
            assert json_text(dropped) == json_text(kept)
            assert files_in(dropped_dir) == files_in(kept_dir)
            scorers = scorers_in(models_dir)
            assert len(scorers) == 4
            assert b"CalibratedScorer" in pickle.dumps(next(iter(scorers.values())))
            sent = {}
            for path in pipe.iterdir():
                sent[path.stem] = path.read_bytes()
                path.unlink()
            assert sorted(sent) == [f"{models}-{i}" for models in (False, True) for i in range(4)]
            for data in sent.values():
                assert "eval" in pickle.loads(data)
                assert b"calibrated_probability" not in data  # the task wrote its CSV
                assert b"CalibratedScorer" not in data
                assert b"snapgap.models" not in data  # nor any fitted model

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_scorer_file_that_cannot_be_written_fails_the_run(
        self, synth_panel, monkeypatch, tmp_path, workers
    ):
        panel, _ = synth_panel
        pool_size(monkeypatch, workers)
        path = tmp_path / "missing" / "model_All_logistic_pct_no_vehicle.json"
        with pytest.raises(IoFailure, match=f"cannot write scorer file {re.escape(str(path))}: "):
            run_backtest(fast_cfg(), panel, tmp_path, models_dir=path.parent)

    def test_every_task_failing_still_raises(self, synth_panel, monkeypatch, tmp_path):
        panel, _ = synth_panel
        fit_logistic_failing_at(monkeypatch, {1.0})
        cfg = fast_cfg(feature_subsets=self.SUBSETS)
        models_dir = new_dir(tmp_path / "models")
        for workers in (1, 2):
            pool_size(monkeypatch, workers)
            with pytest.raises(CohortError, match="every cohort failed: no logistic grid"):
                run_backtest(cfg, panel, tmp_path, models_dir=models_dir)
            assert not any(models_dir.iterdir())

    def test_a_task_converts_its_model_once(self, synth_panel, monkeypatch, tmp_path):
        # the manifest's model_digest and the scorer file share one conversion
        panel, _ = synth_panel
        pool_size(monkeypatch, 1)
        calls = []
        convert = models_io.model_to_dict

        def counted(model):
            calls.append(type(model).__name__)
            return convert(model)

        monkeypatch.setattr(pipeline, "model_to_dict", counted)
        monkeypatch.setattr(models_io, "model_to_dict", counted)
        cfg = fast_cfg(feature_subsets=(("pct_no_vehicle",), ("pct_hs_only",), ("pct_no_vehicle", "pct_hs_only")))
        models_dir = new_dir(tmp_path / "models")
        assert pipeline.train_scorers(cfg, panel, models_dir) == {}
        assert len(scorers_in(models_dir)) == 3
        assert calls == ["LogisticModel"] * 3


class TestStratified:
    def test_per_area_thresholds_and_models(self, synth_panel, tmp_path):
        records, _ = synth_panel
        cfg = fast_cfg(area_mode="stratified", feature_subsets=(("pct_no_vehicle",),))
        manifest = run_backtest(cfg, records, tmp_path)
        th = manifest["periods"]["p1"]["thresholds"]
        assert {"Urban", "Rural", "Mixed"} <= set(th)
        assert set(manifest["cohorts"]) == {"Urban", "Rural", "Mixed"}

    def test_zero_positive_area_isolated(self, tmp_path):
        # Urban rows constant: all fragile together (prevalence 1) is
        # impossible to model; craft urban rows with no positives instead
        records = []
        rng = np.random.default_rng(8)
        spec = SyntheticSpec(
            n_zips=400,
            years=(2014, 2023),
            area_mix={"Rural": 1.0},
            target_prevalence=0.05,
            seed=77,
        )
        rural, _ = generate_synthetic(spec)
        records.extend(records_of(rural))
        # a handful of urban rows whose uptake is uniformly high -> no positives
        for i in range(30):
            for year in range(2014, 2024):
                records.append(
                    make_record(
                        zip=f"{9000 + i:05d}",
                        year=year,
                        pov_fam=200.0 + i,
                        snap_fam=195.0 + i,
                        fam_universe=800.0,
                        area=Area.URBAN,
                    )
                )
        cfg = fast_cfg(area_mode="stratified", feature_subsets=(("pct_no_vehicle",),))
        manifest = run_backtest(cfg, panel_of(records), tmp_path)
        urban_models = manifest["cohorts"]["Urban"]["models"]
        assert all("error" in d for d in urban_models.values())
        rural_models = manifest["cohorts"]["Rural"]["models"]
        assert any("error" not in d for d in rural_models.values())

    def test_single_area_stratified_matches_pooled_metrics(self, tmp_path):
        spec = SyntheticSpec(
            n_zips=500,
            years=(2014, 2023),
            area_mix={"Rural": 1.0},
            target_prevalence=0.04,
            seed=15,
        )
        records, _ = generate_synthetic(spec)
        pooled = run_backtest(fast_cfg(), records, tmp_path)
        strat = run_backtest(fast_cfg(area_mode="stratified"), records, tmp_path)
        pooled_models = pooled["cohorts"]["All"]["models"]
        strat_models = strat["cohorts"]["Rural"]["models"]
        for label, detail in pooled_models.items():
            strat_eval = dict(strat_models[label]["eval"], cohort="All")
            assert strat_eval == detail["eval"]
            assert strat_models[label]["model_digest"] == detail["model_digest"]

    def test_fragile_distribution_shape(self, synth_panel, tmp_path):
        records, _ = synth_panel
        manifest = run_backtest(fast_cfg(), records, tmp_path)
        dist = manifest["fragile_distribution"]["p2"]
        assert set(dist) == {"0.10", "0.30"}
        for group in dist.values():
            assert group["total"] == sum(a["count"] for a in group["by_area"].values())
            assert abs(sum(a["share"] for a in group["by_area"].values()) - 1.0) < 1e-9


class TestYearlyDiagnostics:
    def test_single_year_panel(self):
        records = [
            make_record(zip=f"{i:05d}", year=2015, pov_fam=100.0 + i, snap_fam=60.0, fam_universe=400.0)
            for i in range(30)
        ]
        cfg = fast_cfg()
        table = run_yearly_diagnostics(cfg, panel_of(records))
        rows_2015 = [row for row in table if row["year"] == 2015]
        assert rows_2015[0]["n_eligible"] > 0
        empty = [row for row in table if row["year"] != 2015]
        assert all(row["n_rows"] == 0 for row in empty)

    def test_constant_panel_replicated_identical_rows(self):
        records = []
        for year in (2014, 2015, 2016):
            for i in range(25):
                records.append(
                    make_record(
                        zip=f"{i:05d}", year=year,
                        pov_fam=100.0 + 7 * i, snap_fam=40.0 + 3 * i, fam_universe=500.0,
                    )
                )
        cfg = fast_cfg(p1_years=(2014, 2016), p2_years=(2017, 2018))
        table = run_yearly_diagnostics(cfg, panel_of(records))
        filled = [row for row in table if row["n_rows"] > 0]
        base = {k: v for k, v in filled[0].items() if k != "year"}
        for row in filled[1:]:
            assert {k: v for k, v in row.items() if k != "year"} == base

    def test_monotone_drift_recovered(self):
        spec = SyntheticSpec(
            n_zips=1200,
            years=(2014, 2023),
            target_prevalence=(0.031, 0.038),
            seed=2,
        )
        records, _ = generate_synthetic(spec)
        table = run_yearly_diagnostics(fast_cfg(), records)
        prevs = [row["prevalence"] for row in table]
        # trend, not strict monotonicity: late-half mean above early-half mean
        assert np.mean(prevs[5:]) > np.mean(prevs[:5])
        corr = np.corrcoef(np.arange(10), prevs)[0, 1]
        assert corr > 0.5

    def test_a_year_without_eligible_rows_counts_its_anomalies(self, tmp_path):
        spec = SyntheticSpec(
            n_zips=500,
            years=(2014, 2023),
            true_coefficients={"pct_no_vehicle": -0.5},
            anomaly_rate=0.01,
            seed=3,
        )
        panel, _ = generate_synthetic(spec)
        # every 2016 row below the poverty floor, with more benefit families than poverty families
        moved = panel.year == 2016
        panel = dataclasses.replace(
            panel,
            pov_fam=np.where(moved, 10.0, panel.pov_fam),
            snap_fam=np.where(moved, 20.0, panel.snap_fam),
            fam_universe=np.where(moved, 1000.0, panel.fam_universe),
        )
        body = run_backtest(fast_cfg(feature_subsets=(("pct_no_vehicle",),)), panel, tmp_path)
        yearly = {entry["year"]: entry for entry in body["yearly"]}
        assert yearly[2016]["n_eligible"] == 0 and yearly[2016]["tau_hi"] is None
        assert yearly[2016]["anomaly_rows"] == 500
        for period, years in (("p1", range(2014, 2019)), ("p2", range(2019, 2024))):
            for key in ("n_rows", "n_eligible", "anomaly_rows"):
                assert sum(yearly[year][key] for year in years) == body["periods"][period][key]
        assert body["periods"]["p1"]["anomaly_rows"] == 520


@st.composite
def yearly_records(draw):
    """Rows over 2013-2019, around periods 2014-2015 and 2016-2018: each
    year empty, with no eligible row (every poverty rate under the floor),
    or mixed, with missing, zero and fractional counts, anomalies, rows
    outside the periods and all four areas."""
    count = st.one_of(st.sampled_from([None, 0.0, 2.0, 40.0, 100.0, 300.0]), st.floats(0.5, 400.0))
    records = []
    for year in range(2013, 2020):
        kind = draw(st.sampled_from(["empty", "ineligible", "mixed", "mixed"]))
        if kind == "empty":
            continue
        for i in range(draw(st.integers(1, 12))):
            universe = 1e6 if kind == "ineligible" else draw(st.sampled_from([None, 0.0, 500.0, 900.0]))
            records.append(
                make_record(
                    zip=f"{i + 1:05d}",
                    year=year,
                    pov_fam=draw(count),
                    snap_fam=draw(count),
                    fam_universe=universe,
                    pov_rate=None if kind == "ineligible" else draw(st.sampled_from([None, 0.1, 0.4])),
                    pct_no_vehicle=draw(st.sampled_from([None, 5.0, 20.0])),
                    area=draw(st.sampled_from(list(Area))),
                )
            )
    return records


@settings(max_examples=150, deadline=None)
@given(
    records=yearly_records(),
    area_mode=st.sampled_from(["pooled", "stratified"]),
    quantiles=st.sampled_from([(0.10, 0.70), (0.50, 0.60)]),
)
def test_yearly_table_matches_the_per_year_reference(records, area_mode, quantiles):
    lo_q, hi_q = quantiles
    cfg = fast_cfg(
        p1_years=(2014, 2015),
        p2_years=(2016, 2018),
        area_mode=area_mode,
        label=LabelConfig(lo_q=lo_q, hi_q=hi_q),
    )
    panel = panel_of(records)
    got, want = run_yearly_diagnostics(cfg, panel), yearly_reference(cfg, panel)
    assert got == want
    assert [[(k, type(v)) for k, v in entry.items()] for entry in got] == [
        [(k, type(v)) for k, v in entry.items()] for entry in want
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 40),
            st.integers(2019, 2023),
            st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.1 + 0.2, 0.3, 0.0, -0.0]),
        ),
        unique_by=lambda t: t[:2],
        max_size=60,
    )
)
def test_flagged_rows_match_a_sort_on_tuples(rows):
    zips = [f"{z:05d}" for z, _, _ in rows]
    years = [yr for _, yr, _ in rows]
    probs = [p for _, _, p in rows]
    columns = np.array(zips, dtype=object), np.array(years, dtype=np.int64), np.array(probs)
    order = pipeline._flagged_order(*columns)
    got = list(map(list, zip(*(column[order].tolist() for column in columns))))
    want = flagged_rows_reference(zips, years, probs)
    assert got == want
    assert [list(map(type, row)) for row in got] == [[str, int, float]] * len(got)
    # -0.0 == 0.0, so compare signs too.
    assert [np.signbit(p) for _, _, p in got] == [np.signbit(p) for _, _, p in want]


def test_task_warnings_meet_module_filters(synth_panel, monkeypatch, tmp_path):
    records, _ = synth_panel
    predictors = records.predictors.copy()
    predictors[:, PREDICTOR_FIELDS.index("pct_hs_only")] = 30.0
    panel = dataclasses.replace(records, predictors=predictors)
    cfg = fast_cfg(feature_subsets=(("pct_no_vehicle", "pct_hs_only"),))
    for workers in (1, 2):
        pool_size(monkeypatch, workers)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", category=UserWarning, module=r"snapgap\.models\.matrix\Z")
            with pytest.raises(UserWarning, match="constant feature"):
                run_backtest(cfg, panel, tmp_path)
