import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, random_records
from oracles import label_oracle, ols_normal_equations, prepare_reference, quantile_interp
from snapgap.errors import DegenerateDesign, EmptyInput, NoEligibleRows
from snapgap.ingest import PREDICTOR_FIELDS, Area
from snapgap.labeling import (
    UNLABELED,
    LabelConfig,
    Thresholds,
    build_labels,
    fit_uptake_ols,
    flag_hidden_fragility,
    ols_fit,
    quantile,
)


def labels(panel):
    """The target column as 1 / 0 / None, the oracle's form."""
    return [None if y == UNLABELED else y for y in panel.y.tolist()]


def label_first(**fields):
    """Label one record beside an always-eligible anchor row, so an ineligible
    record still yields a panel; row 0 is the record."""
    return build_labels([make_record(**fields), make_record(zip="99999")], LabelConfig())


class TestUptakeRatio:
    def test_direct_division(self):
        panel = label_first(snap_fam=40.0, pov_fam=100.0)
        assert (panel.s_raw[0], panel.s_capped[0], panel.s_raw[0] > 1.0) == (0.40, 0.40, False)

    def test_capping(self):
        panel = label_first(snap_fam=120.0, pov_fam=100.0)
        s_raw, s_capped, anomaly = panel.s_raw[0], panel.s_capped[0], panel.s_raw[0] > 1.0
        assert (s_raw, s_capped, anomaly) == (1.20, 1.0, True)

    def test_zero_numerator(self):
        panel = label_first(snap_fam=0.0, pov_fam=100.0)
        assert (panel.s_raw[0], panel.s_capped[0], panel.s_raw[0] > 1.0) == (0.0, 0.0, False)

    def test_zero_poverty(self):
        # the ratio is undefined, so the row has none and cannot be eligible
        panel = label_first(snap_fam=10.0, pov_fam=0.0)
        assert math.isnan(panel.s_raw[0]) and not panel.eligible[0]


class TestEligibility:
    # p is taken from pov_rate as given; s_raw = snap_fam / pov_fam = 0.5
    @staticmethod
    def eligible(p, snap_fam=50.0, **fields):
        panel = label_first(fam_universe=None, pov_rate=p, pov_fam=100.0, snap_fam=snap_fam, **fields)
        return bool(panel.eligible[0])

    def test_below_floor(self):
        assert self.eligible(0.10) is False

    def test_all_conditions_met(self):
        assert self.eligible(0.30) is True

    def test_missing_uptake(self):
        assert self.eligible(0.30, snap_fam=None) is False

    def test_zero_uptake_excluded(self):
        assert self.eligible(0.30, snap_fam=0.0) is False

    def test_missing_predictors(self):
        assert self.eligible(0.30, pct_hs_only=None) is False

    def test_floor_inclusive(self):
        assert self.eligible(0.15) is True

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
    rows = [
        {
            "p": p,
            "s": s,
            "area": rec.area.value,
            "predictors_present": all(
                getattr(rec, f) is not None
                for f in (
                    "pct_no_vehicle",
                    "pct_no_internet",
                    "pct_no_computer",
                    "pct_hs_only",
                )
            ),
        }
        for rec, p, s in zip(records, panel.p.tolist(), panel.s_raw.tolist())
    ]
    expected = label_oracle(
        rows,
        poverty_floor=cfg.poverty_floor,
        hi_q=cfg.hi_q,
        lo_q=cfg.lo_q,
        by_area=cfg.stratify_by_area,
    )
    got = labels(panel)
    assert got == expected
    return panel


class TestBuildLabels:
    def test_constant_panel_all_fragile(self):
        records = [make_record(zip=f"{i:05d}") for i in range(10)]
        panel = build_labels(records, LabelConfig())
        assert all(y == 1 for y in panel.y)
        assert panel.prevalence == 1.0

    def test_label_consistency_invariant(self, rng):
        records = random_records(rng, 300)
        panel = build_labels(records, LabelConfig())
        for y, eligible, p, s_capped in zip(panel.y, panel.eligible, panel.p, panel.s_capped):
            if y == 1:
                assert eligible
                assert p >= panel.tau_hi
                assert s_capped <= panel.tau_lo
            if not eligible:
                assert y == UNLABELED

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
        for i in np.flatnonzero(panel.eligible):
            key = panel.panel.area[i]
            assert key in panel.thresholds
            th = panel.thresholds[key]
            p, s_capped = panel.p[i], panel.s_capped[i]
            assert panel.y[i] == (1 if (p >= th.tau_hi and s_capped <= th.tau_lo) else 0)

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
        for y, p, s_capped in zip(panel2.y, panel2.p, panel2.s_capped):
            if y == 1:
                assert p >= panel1.tau_hi and s_capped <= panel1.tau_lo

    @pytest.mark.parametrize("stratified", [False, True])
    def test_own_thresholds_reproduce_the_panel(self, rng, stratified):
        records = random_records(rng, 400)
        cfg = LabelConfig(stratify_by_area=stratified)
        fitted = build_labels(records, cfg)
        relabeled = build_labels(records, cfg, thresholds=fitted.thresholds)
        for column in ("p", "s_raw", "eligible", "y"):
            assert np.array_equal(
                getattr(relabeled, column), getattr(fitted, column), equal_nan=column != "y"
            )
        assert relabeled.prevalence == fitted.prevalence
        assert relabeled.prevalences == fitted.prevalences

    def test_frozen_thresholds_missing_an_area(self, rng):
        cfg = LabelConfig(stratify_by_area=True)
        frozen = dict(build_labels(random_records(rng, 400, year=2015), cfg).thresholds)
        del frozen[Area.RURAL.value]
        records = random_records(rng, 400, year=2020)
        panel = build_labels(records, cfg, thresholds=frozen)
        is_rural = panel.panel.area == Area.RURAL.value
        rural = np.flatnonzero(panel.eligible & is_rural)
        others = np.flatnonzero(panel.eligible & ~is_rural)
        assert rural.size and all(panel.y[i] == UNLABELED for i in rural)
        assert others.size and all(panel.y[i] in (0, 1) for i in others)
        assert Area.RURAL.value not in panel.prevalences
        assert set(panel.prevalences) == set(frozen)
        assert panel.prevalence == sum(int(panel.y[i]) for i in others) / len(others)
        with pytest.raises(NoEligibleRows, match="no eligible rows fall under the supplied thresholds"):
            build_labels([records[i] for i in rural], cfg, thresholds=frozen)


def draw_count(draw, high):
    """A positive count three times in four, else missing or zero."""
    kind = draw(st.sampled_from(("value",) * 6 + ("missing", "zero")))
    if kind == "value":
        return float(draw(st.integers(1, high)))
    return None if kind == "missing" else 0.0


@st.composite
def labeling_records(draw):
    """Panels with missing fields, zero universes (pov_rate fallback), zero
    poverty counts, snap > pov anomalies, tied values and all four areas."""
    records = []
    for i in range(draw(st.integers(1, 30))):
        missing = draw(st.sampled_from((None,) * 12 + PREDICTOR_FIELDS))
        predictors = {name: draw(st.floats(0.0, 100.0)) for name in PREDICTOR_FIELDS}
        if missing is not None:
            predictors[missing] = None
        records.append(
            make_record(
                zip=f"{i + 1:05d}",
                pov_fam=draw_count(draw, 2000),
                snap_fam=draw_count(draw, 2000),
                fam_universe=draw_count(draw, 4000),
                pov_rate=draw(st.one_of(st.none(), st.sampled_from([0.1, 0.15, 0.3]), st.floats(0.0, 1.0))),
                area=draw(st.sampled_from(list(Area))),
                **predictors,
            )
        )
    return records


class TestRowWiseReference:
    """Every column of build_labels against the row-wise reference and the
    sort-and-threshold oracle."""

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("capped", [True, False])
    @settings(max_examples=50, deadline=None)
    @given(
        records=labeling_records(),
        quantiles=st.sampled_from([(0.10, 0.70), (0.50, 0.60), (0.90, 0.95)]),
        frozen=st.booleans(),
        data=st.data(),
    )
    def test_columns_match_reference(self, stratified, capped, records, quantiles, frozen, data):
        lo_q, hi_q = quantiles
        cfg = LabelConfig(hi_q=hi_q, lo_q=lo_q, stratify_by_area=stratified, use_capped_uptake=capped)
        thresholds = oracle_thresholds = None
        if frozen:
            keys = [a.value for a in Area] if stratified else ["All"]
            kept = data.draw(st.lists(st.sampled_from(keys), unique=True))
            thresholds = {
                key: Thresholds(tau_hi=data.draw(st.floats(0.0, 1.0)), tau_lo=data.draw(st.floats(0.0, 2.0)))
                for key in kept
            }
            oracle_thresholds = {key: (th.tau_hi, th.tau_lo) for key, th in thresholds.items()}
        rows = [prepare_reference(rec, cfg) for rec in records]
        expected = label_oracle(
            rows,
            poverty_floor=cfg.poverty_floor,
            hi_q=cfg.hi_q,
            lo_q=cfg.lo_q,
            by_area=stratified,
            capped=capped,
            thresholds=oracle_thresholds,
        )
        if all(y is None for y in expected):
            with pytest.raises(NoEligibleRows):
                build_labels(records, cfg, thresholds)
            return
        panel = build_labels(records, cfg, thresholds)

        def column(key):
            return np.array([np.nan if r[key] is None else r[key] for r in rows], dtype=float)

        assert np.array_equal(panel.p, column("p"), equal_nan=True)
        assert np.array_equal(panel.s_raw, column("s_raw"), equal_nan=True)
        assert panel.eligible.tolist() == [r["eligible"] for r in rows]
        assert labels(panel) == expected
        labeled = [y for y in expected if y is not None]
        assert panel.prevalence == sum(labeled) / len(labeled)


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

    @staticmethod
    def _by_residual(panel):
        """Indices of rows with a residual, by (residual, zip, year)."""
        cols = panel.panel
        return sorted(
            (i for i, r in enumerate(panel.residual.tolist()) if not math.isnan(r)),
            key=lambda i: (panel.residual[i], cols.zip[i], cols.year[i]),
        )

    def test_zero_tail_empty(self, rng):
        panel, fit = self._panel(rng)
        assert flag_hidden_fragility(panel, fit, 0.0) == set()

    def test_no_disagreement_is_empty(self, rng):
        panel, fit = self._panel(rng)
        scored = self._by_residual(panel)
        k = 0.10
        n_tail = math.floor(k * len(scored))
        if all(panel.y[i] == 1 for i in scored[:n_tail]):
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
        planted = panel.panel.zip.tolist().index("88888")
        assert panel.y[planted] == 0  # below tau_hi, not caught by the quantile rule
        panel, fit = fit_uptake_ols(panel)
        flagged = flag_hidden_fragility(panel, fit, 0.05)
        assert "88888" in flagged

    def test_residual_ties_break_by_zip_then_year(self):
        # rows on the line snap = 0.8 pov, plus four identical under-uptake
        # rows whose zip order and year order disagree; the tail takes two
        records = []
        for i in range(60):
            pov = 200.0 + 10.0 * (i % 20)
            records.append(
                make_record(zip=f"{100 + i:05d}", pov_fam=pov, snap_fam=0.8 * pov, fam_universe=1000.0)
            )
        for zip_code, year in (("00003", 2015), ("00001", 2017), ("00004", 2014), ("00002", 2016)):
            records.append(
                make_record(zip=zip_code, year=year, pov_fam=300.0, snap_fam=150.0, fam_universe=1000.0)
            )
        panel, fit = fit_uptake_ols(build_labels(records, LabelConfig()))
        tied = panel.residual[-4:]
        assert (tied == tied[0]).all() and tied[0] == panel.residual.min()
        assert (panel.y[-4:] == 0).all()
        assert flag_hidden_fragility(panel, fit, 2.5 / len(records)) == {"00001", "00002"}

    def test_flagged_rows_never_y1(self, rng):
        panel, fit = self._panel(rng, n=200)
        flagged = flag_hidden_fragility(panel, fit, 0.2)
        # a zip flagged here had a non-fragile deep-residual row; it may still
        # have a fragile row in another year, so compare per-row via the rule
        scored = self._by_residual(panel)
        n_tail = math.floor(0.2 * len(scored))
        expected = {panel.panel.zip[i] for i in scored[:n_tail] if panel.y[i] != 1}
        assert flagged == expected
