import math

import numpy as np
import pytest

from conftest import make_record, random_records
from oracles import label_oracle, ols_normal_equations, quantile_interp
from snapgap.errors import DegenerateDesign, EmptyInput, NoEligibleRows, ZeroPoverty
from snapgap.ingest import Area
from snapgap.labeling import (
    LabelConfig,
    build_labels,
    eligibility,
    fit_uptake_ols,
    flag_hidden_fragility,
    ols_fit,
    quantile,
    uptake_ratio,
)


class TestUptakeRatio:
    def test_direct_division(self):
        assert uptake_ratio(40, 100) == (0.40, 0.40, False)

    def test_capping(self):
        s_raw, s_capped, anomaly = uptake_ratio(120, 100)
        assert (s_raw, s_capped, anomaly) == (1.20, 1.0, True)

    def test_zero_numerator(self):
        assert uptake_ratio(0, 100) == (0.0, 0.0, False)

    def test_zero_poverty(self):
        with pytest.raises(ZeroPoverty):
            uptake_ratio(10, 0)


class TestEligibility:
    CFG = LabelConfig()

    def test_below_floor(self):
        assert eligibility(0.10, 0.5, True, self.CFG) is False

    def test_all_conditions_met(self):
        assert eligibility(0.30, 0.5, True, self.CFG) is True

    def test_missing_uptake(self):
        assert eligibility(0.30, None, True, self.CFG) is False

    def test_zero_uptake_excluded(self):
        assert eligibility(0.30, 0.0, True, self.CFG) is False

    def test_missing_predictors(self):
        assert eligibility(0.30, 0.5, False, self.CFG) is False

    def test_floor_inclusive(self):
        assert eligibility(0.15, 0.5, True, self.CFG) is True

    def test_monotone_in_floor(self, rng):
        records = random_records(rng, 200)
        counts = []
        for floor in (0.05, 0.15, 0.30, 0.60):
            cfg = LabelConfig(poverty_floor=floor)
            try:
                panel = build_labels(records, cfg)
                counts.append(panel.n_eligible())
            except NoEligibleRows:
                counts.append(0)
        assert counts == sorted(counts, reverse=True)


class TestQuantile:
    def test_linear_interpolation_value(self):
        assert quantile(list(range(1, 11)), 0.70) == pytest.approx(7.3, abs=1e-12)

    def test_singleton(self):
        assert quantile([4.2], 0.3) == 4.2

    def test_constant_list(self):
        assert quantile([5, 5, 5], 0.10) == 5

    def test_empty(self):
        with pytest.raises(EmptyInput):
            quantile([], 0.5)

    def test_matches_hand_rolled_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            values = rng.normal(size=n).tolist()
            q = float(rng.uniform(0.01, 0.99))
            assert quantile(values, q) == pytest.approx(quantile_interp(values, q), abs=1e-12)

    def test_sandwich_and_monotone_in_q(self, rng):
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(2, 30))).tolist()
            qs = sorted(rng.uniform(0.01, 0.99, size=4))
            results = [quantile(values, q) for q in qs]
            assert min(values) <= results[0] and results[-1] <= max(values)
            assert results == sorted(results)


def brute_force_check(records, cfg):
    panel = build_labels(records, cfg)
    rows = []
    for r in panel.rows:
        rows.append(
            {
                "p": r.p,
                "s": r.s_raw,
                "area": r.record.area.value,
                "predictors_present": all(
                    getattr(r.record, f) is not None
                    for f in (
                        "pct_no_vehicle",
                        "pct_no_internet",
                        "pct_no_computer",
                        "pct_hs_only",
                    )
                ),
            }
        )
    expected = label_oracle(
        rows,
        poverty_floor=cfg.poverty_floor,
        hi_q=cfg.hi_q,
        lo_q=cfg.lo_q,
        by_area=cfg.stratify_by_area,
    )
    got = [r.y for r in panel.rows]
    assert got == expected
    return panel


class TestBuildLabels:
    def test_constant_panel_all_fragile(self):
        records = [make_record(zip=f"{i:05d}") for i in range(10)]
        panel = build_labels(records, LabelConfig())
        assert all(r.y == 1 for r in panel.rows)
        assert panel.prevalence == 1.0

    def test_label_consistency_invariant(self, rng):
        records = random_records(rng, 300)
        panel = build_labels(records, LabelConfig())
        for r in panel.rows:
            if r.y == 1:
                assert r.eligible
                assert r.p >= panel.tau_hi
                assert r.s_capped <= panel.tau_lo
            if not r.eligible:
                assert r.y is None

    def test_prevalence_definition(self, rng):
        records = random_records(rng, 400)
        panel = build_labels(records, LabelConfig())
        n_elig = panel.n_eligible()
        n_pos = panel.n_positive()
        assert panel.prevalence == n_pos / n_elig

    def test_matches_bruteforce_small_panels(self, rng):
        cfg = LabelConfig()
        for _ in range(50):
            n = int(rng.integers(3, 51))
            records = random_records(rng, n)
            brute_force_check(records, cfg)

    def test_matches_bruteforce_stratified(self, rng):
        cfg = LabelConfig(stratify_by_area=True)
        for _ in range(30):
            records = random_records(rng, int(rng.integers(8, 51)))
            try:
                brute_force_check(records, cfg)
            except NoEligibleRows:
                pass

    def test_stratified_partition(self, rng):
        records = random_records(rng, 400)
        panel = build_labels(records, LabelConfig(stratify_by_area=True))
        for r in panel.rows:
            if r.eligible:
                key = r.record.area.value
                assert key in panel.thresholds
                th = panel.thresholds[key]
                assert r.y == (1 if (r.p >= th.tau_hi and r.s_capped <= th.tau_lo) else 0)

    def test_no_eligible_rows(self):
        records = [make_record(pov_fam=0.0, snap_fam=0.0)]
        with pytest.raises(NoEligibleRows):
            build_labels(records, LabelConfig())

    def test_raw_uptake_thresholding_option(self, rng):
        records = random_records(rng, 200)
        capped = build_labels(records, LabelConfig(use_capped_uptake=True))
        raw = build_labels(records, LabelConfig(use_capped_uptake=False))
        assert raw.tau_lo >= 0
        # anomalies (s>1) can push the raw threshold above the capped one
        assert raw.tau_lo >= capped.tau_lo or math.isclose(raw.tau_lo, capped.tau_lo)

    def test_apply_frozen_thresholds(self, rng):
        p1 = random_records(rng, 300, year=2015)
        p2 = random_records(rng, 300, year=2020)
        cfg = LabelConfig()
        panel1 = build_labels(p1, cfg)
        panel2 = build_labels(p2, cfg, thresholds=panel1.thresholds)
        assert panel2.thresholds == panel1.thresholds
        for r in panel2.rows:
            if r.y == 1:
                assert r.p >= panel1.tau_hi and r.s_capped <= panel1.tau_lo

    @pytest.mark.parametrize("stratified", [False, True])
    def test_own_thresholds_reproduce_the_panel(self, rng, stratified):
        records = random_records(rng, 400)
        cfg = LabelConfig(stratify_by_area=stratified)
        fitted = build_labels(records, cfg)
        relabeled = build_labels(records, cfg, thresholds=fitted.thresholds)
        assert relabeled.rows == fitted.rows
        assert relabeled.prevalence == fitted.prevalence
        assert relabeled.prevalences == fitted.prevalences

    def test_frozen_thresholds_missing_an_area(self, rng):
        cfg = LabelConfig(stratify_by_area=True)
        frozen = dict(build_labels(random_records(rng, 400, year=2015), cfg).thresholds)
        del frozen[Area.RURAL.value]
        panel = build_labels(random_records(rng, 400, year=2020), cfg, thresholds=frozen)
        eligible = panel.eligible_rows()
        rural = [r for r in eligible if r.record.area is Area.RURAL]
        others = [r for r in eligible if r.record.area is not Area.RURAL]
        assert rural and all(r.y is None for r in rural)
        assert others and all(r.y in (0, 1) for r in others)
        assert Area.RURAL.value not in panel.prevalences
        assert set(panel.prevalences) == set(frozen)
        assert panel.prevalence == sum(r.y for r in others) / len(others)
        with pytest.raises(NoEligibleRows, match="no eligible rows fall under the supplied thresholds"):
            build_labels([r.record for r in rural], cfg, thresholds=frozen)


class TestOls:
    def test_exact_line(self):
        fit = ols_fit([1, 2], [2, 4])
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.beta == pytest.approx(2.0, abs=1e-12)

    def test_constant_target(self):
        fit = ols_fit([0, 1, 2], [1, 1, 1])
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.beta == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesign):
            ols_fit([3, 3, 3], [1, 2, 3])
        with pytest.raises(DegenerateDesign):
            ols_fit([1], [1])

    def test_matches_normal_equations(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.normal(0, 10, size=n)
            x[0] += 1.0  # guarantee two distinct values
            y = rng.normal(0, 10, size=n)
            fit = ols_fit(x, y)
            alpha, beta = ols_normal_equations(x, y)
            assert fit.alpha == pytest.approx(alpha, rel=1e-10, abs=1e-10)
            assert fit.beta == pytest.approx(beta, rel=1e-10, abs=1e-10)

    def test_residuals_sum_to_zero(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 200))
            x = rng.uniform(0, 1000, size=n)
            y = 0.6 * x + rng.normal(0, 25, size=n)
            fit = ols_fit(x, y)
            resid = y - fit.alpha - fit.beta * x
            assert abs(resid.sum()) <= 1e-9 * max(1.0, np.abs(y).sum())

    def test_r2_in_unit_interval(self, rng):
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert 0.0 <= ols_fit(x, y).r2 <= 1.0


class TestHiddenFragility:
    def _panel(self, rng, n=100):
        records = random_records(rng, n)
        panel = build_labels(records, LabelConfig())
        return fit_uptake_ols(panel)

    def test_zero_tail_empty(self, rng):
        panel, fit = self._panel(rng)
        assert flag_hidden_fragility(panel, fit, 0.0) == set()

    def test_no_disagreement_is_empty(self, rng):
        panel, fit = self._panel(rng)
        scored = sorted(
            (r for r in panel.rows if r.residual is not None),
            key=lambda r: (r.residual, r.record.zip, r.record.year),
        )
        k = 0.10
        n_tail = math.floor(k * len(scored))
        if all(r.y == 1 for r in scored[:n_tail]):
            assert flag_hidden_fragility(panel, fit, k) == set()

    def test_planted_mid_poverty_under_enrollment(self):
        # Mid-poverty rows cannot clear tau_hi, so a deep uptake shortfall
        # there is invisible to the quantile rule but glaring to the OLS line.
        records = []
        for i in range(60):
            universe = 1000.0
            pov = 200.0 + 10.0 * (i % 20)  # rates 0.2 - 0.39
            snap = 0.8 * pov
            records.append(
                make_record(zip=f"{i + 1:05d}", pov_fam=pov, snap_fam=snap, fam_universe=universe)
            )
        # high-poverty, low-uptake rows so thresholds have a real tail
        for i in range(6):
            records.append(
                make_record(
                    zip=f"{900 + i:05d}", pov_fam=600.0, snap_fam=30.0, fam_universe=1000.0
                )
            )
        # the planted row: poverty below tau_hi, uptake far under the line
        records.append(
            make_record(zip="88888", pov_fam=300.0, snap_fam=10.0, fam_universe=1000.0)
        )
        panel = build_labels(records, LabelConfig())
        planted = next(r for r in panel.rows if r.record.zip == "88888")
        assert planted.y == 0  # below tau_hi, not caught by the quantile rule
        panel, fit = fit_uptake_ols(panel)
        flagged = flag_hidden_fragility(panel, fit, 0.05)
        assert "88888" in flagged

    def test_flagged_rows_never_y1(self, rng):
        panel, fit = self._panel(rng, n=200)
        flagged = flag_hidden_fragility(panel, fit, 0.2)
        fragile = {r.record.zip for r in panel.rows if r.y == 1}
        # a zip flagged here had a non-fragile deep-residual row; it may still
        # have a fragile row in another year, so compare per-row via the rule
        scored = sorted(
            (r for r in panel.rows if r.residual is not None),
            key=lambda r: (r.residual, r.record.zip, r.record.year),
        )
        n_tail = math.floor(0.2 * len(scored))
        expected = {r.record.zip for r in scored[:n_tail] if r.y != 1}
        assert flagged == expected
