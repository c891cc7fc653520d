import math

import numpy as np
import pytest

from oracles import monotone_sse, pav_perturbations, youden_best_threshold, youden_scan
from snapgap.calibration import (
    DecisionRule,
    IsotonicMap,
    apply_isotonic,
    classify,
    fit_isotonic,
    prevalence_threshold,
    reliability_curve,
    youden_threshold,
)
from snapgap.errors import (
    CohortError,
    ValidationError,
    ValidationError,
)


class TestFitIsotonic:
    def test_already_monotone_identity_feasible(self):
        iso = fit_isotonic([0.1, 0.9], [0, 1])
        assert np.array_equal(iso.scores, [0.1, 0.9])
        assert np.array_equal(iso.values, [0.0, 1.0])

    def test_single_violation_pools_to_half(self):
        iso = fit_isotonic([0.1, 0.9], [1, 0])
        assert np.array_equal(iso.values, [0.5, 0.5])

    def test_ties_pooled_before_fit(self):
        iso = fit_isotonic([0.5, 0.5, 0.9], [0, 1, 1])
        assert np.array_equal(iso.scores, [0.5, 0.9])
        assert iso.values[0] == 0.5
        assert iso.values[1] == 1.0

    def test_insufficient_data(self):
        with pytest.raises(CohortError, match="need at least 2 pairs, got 1"):
            fit_isotonic([0.4], [1])

    def test_values_nondecreasing(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            iso = fit_isotonic(scores, labels)
            assert np.all(np.diff(iso.values) >= -1e-15)
            assert np.all(np.diff(iso.scores) > 0)

    def test_mean_preserved(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 25))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n).astype(float)
            iso = fit_isotonic(scores, labels)
            fitted = apply_isotonic(iso, np.sort(scores))
            assert float(np.mean(fitted)) == pytest.approx(float(labels.mean()), abs=1e-12)

    def test_no_monotone_perturbation_beats_pav(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 15))
            scores = np.sort(rng.normal(size=n)) + np.arange(n) * 1e-6  # distinct
            labels = rng.integers(0, 2, size=n).astype(float)
            iso = fit_isotonic(scores, labels)
            fitted = apply_isotonic(iso, scores)
            base = monotone_sse(fitted, labels)
            for cand in pav_perturbations(fitted, eps=1e-3):
                assert monotone_sse(cand, labels) >= base - 1e-12

    def test_ranking_preserved(self, rng):
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        iso = fit_isotonic(scores, labels)
        a = np.sort(rng.normal(size=20))
        cal = apply_isotonic(iso, a)
        assert np.all(np.diff(cal) >= -1e-15)


class TestApplyIsotonic:
    ISO = IsotonicMap(scores=np.array([0.2, 0.4]), values=np.array([0.1, 0.3]), fitted_on=2)

    def test_clamp_below(self):
        assert apply_isotonic(self.ISO, np.array([-5.0])).tolist() == [0.1]

    def test_clamp_above(self):
        assert apply_isotonic(self.ISO, np.array([99.0])).tolist() == [0.3]

    def test_exact_breakpoint(self):
        assert apply_isotonic(self.ISO, np.array([0.4])).tolist() == [0.3]

    def test_linear_between(self):
        assert apply_isotonic(self.ISO, np.array([0.3])) == pytest.approx([0.2], abs=1e-12)

    def test_vectorized(self):
        out = apply_isotonic(self.ISO, np.array([0.2, 0.3, 0.4]))
        assert out == pytest.approx([0.1, 0.2, 0.3], abs=1e-12)


class TestPrevalenceThreshold:
    def test_paper_scale_prevalence(self):
        rule = prevalence_threshold(0.031)
        assert rule.threshold == 0.031
        assert rule.source_prevalence == 0.031

    def test_symmetric(self):
        assert prevalence_threshold(0.5).threshold == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_degenerate(self, bad):
        with pytest.raises(ValidationError, match=r"prevalence must be in \(0,1\), got "):
            prevalence_threshold(bad)


class TestYoudenThreshold:
    def test_perfect_separation_midpoint(self):
        rule = youden_threshold([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert rule.threshold == pytest.approx(0.5)
        # J at that threshold is 1
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        flags = scores >= rule.threshold
        j = np.mean(flags[labels == 1]) - np.mean(flags[labels == 0])
        assert j == 1.0

    def test_uninformative_scores_flag_none(self):
        rule = youden_threshold([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0])
        assert rule.threshold > 0.4
        assert classify([0.4, 0.4], rule).sum() == 0

    def test_matches_bruteforce_scan(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 16))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            rule = youden_threshold(scores, labels)
            n_pos = labels.sum()
            n_neg = n - n_pos
            flags = scores >= rule.threshold
            j = flags[labels == 1].sum() / n_pos - flags[labels == 0].sum() / n_neg
            assert j == pytest.approx(youden_scan(scores.tolist(), labels.tolist()), abs=1e-12)

    @pytest.mark.parametrize("n, levels", [(12, 3), (60, 5), (400, 40), (20_000, 25)])
    def test_tie_heavy_matches_oracle_threshold(self, rng, n, levels):
        for _ in range(20 if n < 1000 else 1):
            scores = rng.integers(0, levels, size=n) / levels
            labels = (rng.random(n) < 0.2 + 0.6 * scores).astype(int)
            labels[:2] = [0, 1]
            rule = youden_threshold(scores, labels)
            assert rule.threshold == youden_best_threshold(scores.tolist(), labels.tolist())

    def test_ties_break_to_fewer_flags(self):
        # both cut points achieve J = 0.5; the higher threshold must win
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = [0, 1, 0, 1]
        rule = youden_threshold(scores, labels)
        assert rule.threshold == pytest.approx(0.85)

    def test_single_class(self):
        with pytest.raises(CohortError, match="Youden threshold needs both classes"):
            youden_threshold([0.1, 0.9], [1, 1])


class TestClassify:
    def test_inclusive_boundary(self):
        rule = DecisionRule(policy="fixed", threshold=0.031)
        assert classify([0.031], rule).tolist() == [1]

    def test_threshold_one(self):
        rule = DecisionRule(policy="fixed", threshold=1.0)
        assert classify([0.9999, 1.0], rule).tolist() == [0, 1]

    def test_threshold_zero(self):
        rule = DecisionRule(policy="fixed", threshold=0.0)
        assert classify([0.0, 0.5], rule).tolist() == [1, 1]

    def test_monotone_in_threshold(self, rng):
        probs = rng.random(200)
        counts = []
        for thr in np.linspace(0, 1, 21):
            counts.append(int(classify(probs, DecisionRule(policy="fixed", threshold=thr)).sum()))
        assert counts == sorted(counts, reverse=True)


class TestReliabilityCurve:
    def test_counts_and_occupancy(self, rng):
        probs = rng.random(500)
        labels = rng.integers(0, 2, size=500)
        rows = reliability_curve(probs, labels, bins=10)
        assert sum(r["count"] for r in rows) == 500
        for r in rows:
            assert r["count"] >= 1
            assert 0.0 <= r["observed_rate"] <= 1.0

    def test_constant_probability_single_bin(self):
        rows = reliability_curve([0.42] * 50, [0] * 25 + [1] * 25, bins=10)
        assert len(rows) == 1
        assert rows[0]["mean_predicted"] == pytest.approx(0.42)
        assert rows[0]["observed_rate"] == 0.5

    def test_bad_bins(self):
        with pytest.raises(ValidationError):
            reliability_curve([0.5], [1], bins=0)
