import dataclasses
import json
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from oracles import flagged_rows_reference, panel_of, records_of
from snapgap import pipeline
from snapgap.errors import InsufficientCohort, NonConvergence, PeriodsOverlap, WorkerDied
from snapgap.ingest import PREDICTOR_FIELDS, Area
from snapgap.jsonio import RowTable, plain
from snapgap.labeling import LabelConfig
from snapgap.models import selection
from snapgap.pipeline import (
    BacktestConfig,
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
        with pytest.raises(PeriodsOverlap):
            BacktestConfig(p1_years=(2014, 2019), p2_years=(2019, 2023)).validate()
        with pytest.raises(PeriodsOverlap):
            BacktestConfig(p1_years=(2019, 2023), p2_years=(2014, 2018)).validate()

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

    def test_panel_must_cover_both_periods(self, synth_panel):
        panel, _ = synth_panel
        p1_only = panel.take(panel.year <= 2018)
        with pytest.raises(InsufficientCohort):
            run_backtest(fast_cfg(), p1_only)


class TestDeterminism:
    def test_identical_runs_identical_manifests(self, synth_panel):
        records, _ = synth_panel
        cfg = fast_cfg()
        m1 = run_backtest(cfg, records)
        m2 = run_backtest(cfg, records)
        assert m1.body == m2.body
        assert m1.to_json() == m2.to_json()
        assert m1.digest == m2.digest

    def test_seed_changes_results(self, synth_panel):
        records, _ = synth_panel
        m1 = run_backtest(fast_cfg(seed=1), records)
        m2 = run_backtest(fast_cfg(seed=2), records)
        assert m1.digest != m2.digest


class TestNoLeakage:
    def test_mutating_p2_leaves_p1_fits_bit_identical(self, synth_panel):
        records, _ = synth_panel
        cfg = fast_cfg()
        base = run_backtest(cfg, records)

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
        other = run_backtest(cfg, panel_of(mutated))

        assert base.body["periods"]["p1"] == other.body["periods"]["p1"]
        for key, scorer in base.scorers.items():
            twin = other.scorers[key]
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
        assert base.body["periods"]["p2"] != other.body["periods"]["p2"]


class TestBacktestBody:
    def test_threshold_modes(self, synth_panel):
        records, _ = synth_panel
        refit = run_backtest(fast_cfg(threshold_mode="refit"), records)
        frozen = run_backtest(fast_cfg(threshold_mode="frozen"), records)
        p1_th = refit.body["periods"]["p1"]["thresholds"]["All"]
        assert frozen.body["periods"]["p2"]["thresholds"]["All"] == p1_th
        assert refit.body["periods"]["p2"]["thresholds"]["All"] != p1_th

    def test_prevalence_anchored_rule_uses_p1(self, synth_panel):
        records, _ = synth_panel
        manifest = run_backtest(fast_cfg(), records)
        p1_prev = manifest.body["periods"]["p1"]["prevalence"]
        for detail in manifest.body["cohorts"]["All"]["models"].values():
            assert detail["rule"]["threshold"] == p1_prev
            assert detail["rule"]["policy"] == "prevalence_anchored"

    def test_anomaly_accounting_matches_planted(self, synth_panel):
        records, truth = synth_panel
        manifest = run_backtest(fast_cfg(), records)
        total = (
            manifest.body["periods"]["p1"]["anomaly_rows"]
            + manifest.body["periods"]["p2"]["anomaly_rows"]
        )
        assert total == truth["n_planted_anomalies"]

    def test_flagged_lists_sorted_and_thresholded(self, synth_panel):
        records, _ = synth_panel
        manifest = run_backtest(fast_cfg(), records)
        for detail in manifest.body["cohorts"]["All"]["models"].values():
            flagged = plain(detail["flagged"])
            keys = [(-p, z, y) for z, y, p in flagged]
            assert keys == sorted(keys)
            assert all(p >= detail["rule"]["threshold"] for _, _, p in flagged)

    def test_univariate_auc_ordering_vehicle_dominant(self, synth_panel):
        records, _ = synth_panel
        cfg = fast_cfg(
            feature_subsets=tuple((f,) for f in (
                "pct_no_vehicle", "pct_no_internet", "pct_no_computer", "pct_hs_only",
            )),
        )
        manifest = run_backtest(cfg, records)
        aucs = {
            detail["features"][0]: detail["eval"]["auc"]
            for detail in manifest.body["cohorts"]["All"]["models"].values()
        }
        assert max(aucs, key=aucs.get) == "pct_no_vehicle"

    def test_youden_split_path(self, synth_panel):
        records, _ = synth_panel
        cfg = fast_cfg(selection="split70", decision="youden")
        manifest = run_backtest(cfg, records)
        for detail in manifest.body["cohorts"]["All"]["models"].values():
            assert detail["cv"] is None
            assert detail["rule"]["policy"] == "youden"

    def test_importance_present(self, synth_panel):
        records, _ = synth_panel
        manifest = run_backtest(fast_cfg(), records)
        detail = manifest.body["cohorts"]["All"]["models"]["logistic[pct_no_vehicle+pct_hs_only]"]
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

    def test_failed_candidate_is_an_entry_and_cannot_win(self, synth_panel, monkeypatch):
        records, _ = synth_panel
        grids = dict(FAST_GRIDS, logistic=[{"c": 1.0}, {"c": 100.0}])
        expected = run_backtest(fast_cfg(feature_subsets=self.SUBSET), records)
        fit_logistic_failing_at(monkeypatch, {100.0})
        manifest = run_backtest(fast_cfg(feature_subsets=self.SUBSET, grids=grids), records)
        (detail,) = manifest.body["cohorts"]["All"]["models"].values()
        (want,) = expected.body["cohorts"]["All"]["models"].values()
        assert detail["winner"] == {"c": 1.0}
        assert detail["cv"] == want["cv"] + [
            {"params": {"c": 100.0}, "error": "no convergence at c=100.0"}
        ]
        assert {k: v for k, v in detail.items() if k != "cv"} == {
            k: v for k, v in want.items() if k != "cv"
        }

    @pytest.mark.parametrize("selection_mode", ["cv", "split70"])
    def test_task_without_a_converged_fit_gets_an_error(
        self, synth_panel, monkeypatch, selection_mode
    ):
        records, _ = synth_panel
        fit_logistic_failing_at(monkeypatch, {0.01, 0.1, 1.0, 10.0, 100.0})
        cfg = fast_cfg(
            feature_subsets=self.SUBSET,
            families=("logistic", "random_forest"),
            selection=selection_mode,
        )
        models = run_backtest(cfg, records).body["cohorts"]["All"]["models"]
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
        self, synth_panel, monkeypatch, selection_mode, failing_c
    ):
        records, _ = synth_panel
        fit_logistic_failing_at(monkeypatch, failing_c)
        cfg = fast_cfg(
            feature_subsets=self.SUBSETS,
            families=("logistic", "random_forest"),
            grids=dict(FAST_GRIDS, logistic=[{"c": 1.0}, {"c": 100.0}]),
            selection=selection_mode,
        )
        runs = []
        for workers in (1, 2):
            pool_size(monkeypatch, workers)
            runs.append(run_backtest(cfg, records))
        serial, pooled = runs
        assert pooled.to_json() == serial.to_json()
        assert pooled.scorers.keys() == serial.scorers.keys()
        models = pooled.body["cohorts"]["All"]["models"]
        entries = json.dumps(plain(models))
        assert "no convergence" in entries
        assert all("eval" in models[f"random_forest[{'+'.join(s)}]"] for s in self.SUBSETS)

    def test_flagged_cells_are_the_panels_own(self, synth_panel, monkeypatch):
        # tasks return row numbers, so no worker's copy of a ZIP string
        # reaches the manifest
        panel, _ = synth_panel
        own = {id(z) for z in panel.zip.tolist()}
        cfg = fast_cfg(feature_subsets=self.SUBSETS, families=("logistic", "random_forest"))
        for workers in (1, 2):
            pool_size(monkeypatch, workers)
            models = run_backtest(cfg, panel).body["cohorts"]["All"]["models"]
            assert len(models) == 4
            for detail in models.values():
                zips, years, probs = detail["flagged"].columns
                assert [zips.dtype, years.dtype, probs.dtype] == [object, np.int64, np.float64]
                assert len(zips) and all(id(z) in own for z in zips.tolist())

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

    def test_worker_death_names_its_task(self, synth_panel, monkeypatch):
        records, _ = synth_panel
        parent, task_outcome = os.getpid(), pipeline._task_outcome

        def die_in_forest_worker(state, i):
            family = state[1][i][2]
            if family == "random_forest" and os.getpid() != parent:
                os._exit(1)
            return task_outcome(state, i)

        monkeypatch.setattr(pipeline, "_task_outcome", die_in_forest_worker)
        pool_size(monkeypatch, 2)
        cfg = fast_cfg(feature_subsets=self.SUBSETS[:1], families=("logistic", "random_forest"))
        with pytest.raises(WorkerDied, match=r"while running .*All/random_forest\[pct_no_vehicle\]"):
            run_backtest(cfg, records)


class TestStratified:
    def test_per_area_thresholds_and_models(self, synth_panel):
        records, _ = synth_panel
        cfg = fast_cfg(area_mode="stratified", feature_subsets=(("pct_no_vehicle",),))
        manifest = run_backtest(cfg, records)
        th = manifest.body["periods"]["p1"]["thresholds"]
        assert {"Urban", "Rural", "Mixed"} <= set(th)
        assert set(manifest.body["cohorts"]) == {"Urban", "Rural", "Mixed"}

    def test_zero_positive_area_isolated(self):
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
        manifest = run_backtest(cfg, panel_of(records))
        urban_models = manifest.body["cohorts"]["Urban"]["models"]
        assert all("error" in d for d in urban_models.values())
        rural_models = manifest.body["cohorts"]["Rural"]["models"]
        assert any("error" not in d for d in rural_models.values())

    def test_single_area_stratified_matches_pooled_metrics(self):
        spec = SyntheticSpec(
            n_zips=500,
            years=(2014, 2023),
            area_mix={"Rural": 1.0},
            target_prevalence=0.04,
            seed=15,
        )
        records, _ = generate_synthetic(spec)
        pooled = run_backtest(fast_cfg(), records)
        strat = run_backtest(fast_cfg(area_mode="stratified"), records)
        pooled_models = pooled.body["cohorts"]["All"]["models"]
        strat_models = strat.body["cohorts"]["Rural"]["models"]
        for label, detail in pooled_models.items():
            strat_eval = dict(strat_models[label]["eval"], cohort="All")
            assert strat_eval == detail["eval"]
            assert strat_models[label]["model_digest"] == detail["model_digest"]

    def test_fragile_distribution_shape(self, synth_panel):
        records, _ = synth_panel
        manifest = run_backtest(fast_cfg(), records)
        dist = manifest.body["fragile_distribution"]["p2"]
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
    got = plain(RowTable(*(column[order] for column in columns)))
    want = flagged_rows_reference(zips, years, probs)
    assert got == want
    assert [list(map(type, row)) for row in got] == [[str, int, float]] * len(got)
    # -0.0 == 0.0, so compare signs too.
    assert [np.signbit(p) for _, _, p in got] == [np.signbit(p) for _, _, p in want]


def test_task_warnings_meet_module_filters(synth_panel, monkeypatch):
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
                run_backtest(cfg, panel)
