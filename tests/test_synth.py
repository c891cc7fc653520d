import numpy as np
import pytest

from oracles import records_of
from snapgap.errors import InvalidSpec
from snapgap.ingest import FLAG_SNAP_EXCEEDS_POVERTY, Area
from snapgap.labeling import LabelConfig, build_labels
from snapgap.synth import SyntheticSpec, _direct_labeler, generate_synthetic


def small_spec(**kwargs):
    base = dict(n_zips=300, years=(2014, 2016), target_prevalence=0.031, seed=5)
    base.update(kwargs)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_bad_area_mix(self):
        with pytest.raises(InvalidSpec):
            small_spec(area_mix={"Urban": 0.5, "Rural": 0.2}).validate()

    def test_bad_prevalence(self):
        with pytest.raises(InvalidSpec):
            small_spec(target_prevalence=0.0).validate()

    def test_unreachable_prevalence(self):
        with pytest.raises(InvalidSpec, match="unreachable"):
            small_spec(target_prevalence=0.25).validate()

    def test_unknown_predictor(self):
        with pytest.raises(InvalidSpec):
            small_spec(true_coefficients={"pct_no_tv": 1.0}).validate()

    def test_bad_years(self):
        with pytest.raises(InvalidSpec):
            small_spec(years=(2020, 2015)).validate()


class TestGeneration:
    def test_shape_and_fields(self):
        panel, truth = generate_synthetic(small_spec())
        records = records_of(panel)
        assert len(records) == 300 * 3
        assert {r.year for r in records} == {2014, 2015, 2016}
        assert len({r.zip for r in records}) == 300
        for r in records[:20]:
            assert r.fam_universe is not None and r.fam_universe > 0
            assert r.pct_no_vehicle is not None

    def test_deterministic(self):
        a, truth_a = generate_synthetic(small_spec())
        b, truth_b = generate_synthetic(small_spec())
        assert records_of(a) == records_of(b)
        assert truth_a == truth_b

    def test_seed_changes_panel(self):
        a, _ = generate_synthetic(small_spec(seed=1))
        b, _ = generate_synthetic(small_spec(seed=2))
        assert records_of(a) != records_of(b)

    def test_area_fixed_per_zip(self):
        panel, _ = generate_synthetic(small_spec())
        by_zip = {}
        for r in records_of(panel):
            by_zip.setdefault(r.zip, set()).add(r.area)
        assert all(len(areas) == 1 for areas in by_zip.values())

    def test_prevalence_recovery_binomial_band(self):
        spec = SyntheticSpec(n_zips=2000, years=(2014, 2018), target_prevalence=0.03, seed=9)
        records, _ = generate_synthetic(spec)
        panel = build_labels(records, LabelConfig())
        assert 0.02 <= panel.prevalence <= 0.04

    def test_zero_anomaly_rate_means_zero_flags(self):
        panel, truth = generate_synthetic(small_spec(anomaly_rate=0.0))
        assert truth["n_planted_anomalies"] == 0
        assert all(FLAG_SNAP_EXCEEDS_POVERTY not in r.flags for r in records_of(panel))

    def test_planted_anomaly_accounting(self):
        panel, truth = generate_synthetic(small_spec(anomaly_rate=0.05))
        flagged = [r for r in records_of(panel) if FLAG_SNAP_EXCEEDS_POVERTY in r.flags]
        assert len(flagged) == truth["n_planted_anomalies"]
        planted = {(z, y) for z, y in truth["planted_anomalies"]}
        assert {(r.zip, r.year) for r in flagged} == planted
        for r in flagged:
            assert r.snap_fam > r.pov_fam > 0

    def test_sidecar_labels_match_build_labels_per_year(self):
        records, truth = generate_synthetic(small_spec(n_zips=500))
        for year in (2014, 2015, 2016):
            year_records = records.take(records.year == year)
            panel = build_labels(year_records, LabelConfig())
            fragile = sorted(panel.panel.zip[panel.y == 1].tolist())
            assert fragile == sorted(truth["years"][str(year)]["fragile_zips"])

    def test_sidecar_labels_follow_the_uncapped_rule(self):
        # With most rows anomalous (uptake above 1), capping changes the
        # low-uptake quantile: in 2014 the uncapped rule flags 4 ZIPs, the
        # capped one 79.
        label = LabelConfig(use_capped_uptake=False)
        spec = SyntheticSpec(n_zips=300, years=(2014, 2015), anomaly_rate=0.95, label=label)
        records, truth = generate_synthetic(spec)
        for year in (2014, 2015):
            panel = build_labels(records.take(records.year == year), label)
            fragile = sorted(panel.panel.zip[panel.y == 1].tolist())
            assert fragile == sorted(truth["years"][str(year)]["fragile_zips"])

    def test_labeler_follows_the_eligible_rows(self):
        # The labeler keeps its poverty-rate cutpoint while the eligible rows
        # stay the same; a fresh labeler computes everything from scratch.
        rng = np.random.default_rng(0)
        universe = rng.integers(200, 5000, 400).astype(float)
        pov = np.round(rng.uniform(0.02, 0.9, 400) * universe)
        spec = small_spec(label=LabelConfig(poverty_floor=0.0))
        label = _direct_labeler(pov, universe, spec)
        # zero uptake makes a row ineligible; here, the highest-poverty rows
        zeros = {"none": np.zeros(400, dtype=bool), "some": pov / universe > 0.6}
        for pattern in ("none", "none", "some", "some", "none"):
            snap = np.round(rng.uniform(0.2, 1.2, 400) * pov)
            snap[zeros[pattern]] = 0.0
            eligible, fragile = label(snap)
            want_eligible, want_fragile = _direct_labeler(pov, universe, spec)(snap)
            assert np.array_equal(eligible, want_eligible) and np.array_equal(fragile, want_fragile)
            assert fragile.any() and eligible.all() == (pattern == "none")

    def test_drift_schedule_monotone(self):
        spec = SyntheticSpec(
            n_zips=1500,
            years=(2014, 2023),
            target_prevalence=(0.031, 0.038),
            seed=4,
        )
        records, truth = generate_synthetic(spec)
        targets = [truth["years"][str(y)]["target_prevalence"] for y in range(2014, 2024)]
        assert targets == sorted(targets)
        realized = [truth["years"][str(y)]["realized_prevalence"] for y in range(2014, 2024)]
        assert realized[-1] > realized[0]

    def test_null_effects_give_chance_level_auc(self):
        from snapgap.metrics import roc_auc
        from snapgap.models import FeatureMatrix, fit_logistic
        from snapgap.ingest import PREDICTOR_FIELDS

        spec = SyntheticSpec(n_zips=1000, years=(2014, 2023), target_prevalence=0.031, seed=13)
        records, _ = generate_synthetic(spec)
        p1 = records.take(records.year <= 2018)
        p2 = records.take(records.year >= 2019)
        cfg = LabelConfig()
        panel1, panel2 = build_labels(p1, cfg), build_labels(p2, cfg)

        def matrix(panel):
            rows = (panel.y >= 0) & (panel.panel.area != Area.UNKNOWN.value)
            X = panel.panel.predictors[rows]
            y = panel.y[rows].astype(int)
            return X, y

        X1, y1 = matrix(panel1)
        X2, y2 = matrix(panel2)
        model = fit_logistic(
            FeatureMatrix(X=X1, y=y1, feature_names=PREDICTOR_FIELDS), c=1.0
        )
        auc = roc_auc(model.predict_proba(X2), y2)
        assert 0.45 <= auc <= 0.55
