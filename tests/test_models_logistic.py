from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient, fit_logistic_reference, grid_minimize_2d
from snapgap.errors import CohortError, NonConvergence, ValidationError
from snapgap.models import (
    FeatureMatrix,
    LogisticModel,
    Standardization,
    fit_logistic,
    penalized_loss_grad,
    sample_weights,
    sigmoid,
    standardize,
)
from snapgap.models import logistic


def make_fm(rng, n=120, d=3, beta=None, seed_shift=0.0):
    X = rng.normal(size=(n, d))
    beta = np.zeros(d) if beta is None else np.asarray(beta)
    logits = X @ beta + seed_shift
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(int)
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == n:
        y[0] = 0
    return FeatureMatrix(X=X, y=y, feature_names=tuple(f"f{i}" for i in range(d)))


def two_branch_sigmoid(z):
    """1 / (1 + e^-z) on z >= 0 and e^z / (1 + e^z) elsewhere, filled by mask."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_bits_match_two_branch_form(self, rng):
        edges = [0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.0, -745.0, 5e-324, -5e-324, 1e-300]
        z = np.concatenate([edges, rng.normal(0, 4, 5000), rng.normal(0, 400, 5000)])
        assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
        assert sigmoid(z[:4]).tolist() == [0.5, 0.5, 1.0, 0.0]


class TestStandardize:
    def test_two_point_population_sd(self):
        fm = FeatureMatrix(X=np.array([[0.0], [10.0]]), y=np.array([0, 1]), feature_names=("x",))
        out = standardize(fm)
        assert out.X[:, 0] == pytest.approx([-1.0, 1.0])
        assert out.standardization.mean[0] == 5.0
        assert out.standardization.sd[0] == 5.0

    def test_idempotent_on_restandardized(self, rng):
        fm = make_fm(rng)
        once = standardize(fm)
        twice = standardize(FeatureMatrix(X=once.X, y=once.y, feature_names=once.feature_names))
        assert np.abs(twice.X - once.X).max() < 1e-12

    def test_constant_column_centered_with_warning(self):
        fm = FeatureMatrix(
            X=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
            y=np.array([0, 1, 0]),
            feature_names=("const", "x"),
        )
        with pytest.warns(UserWarning, match="constant"):
            out = standardize(fm)
        assert np.all(out.X[:, 0] == 0.0)
        assert out.standardization.sd[0] == 1.0

    def test_test_data_uses_training_constants(self, rng):
        fm = standardize(make_fm(rng))
        X_new = rng.normal(size=(10, fm.d))
        shift = 3.7
        base = fm.standardization.apply(X_new)
        shifted = fm.standardization.apply(X_new + shift)
        expected = base + shift / fm.standardization.sd
        assert np.abs(shifted - expected).max() < 1e-12


class TestLossGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(5):
            fm = make_fm(rng, n=60, d=4, beta=rng.normal(size=4))
            w = sample_weights(fm.y)
            c = float(rng.uniform(0.05, 20))
            for _ in range(10):
                theta = rng.normal(scale=1.5, size=fm.d + 1)
                _, grad = penalized_loss_grad(theta, fm.X, fm.y.astype(float), w, c)
                approx = fd_gradient(
                    lambda t: penalized_loss_grad(t, fm.X, fm.y.astype(float), w, c)[0], theta
                )
                denom = np.maximum(np.abs(grad), 1.0)
                assert np.max(np.abs(grad - approx) / denom) < 1e-6

    def test_midpoint_convexity(self, rng):
        fm = make_fm(rng, n=80, d=3)
        w = sample_weights(fm.y)
        for _ in range(25):
            a = rng.normal(scale=2, size=fm.d + 1)
            b = rng.normal(scale=2, size=fm.d + 1)
            fa, _ = penalized_loss_grad(a, fm.X, fm.y.astype(float), w, 1.0)
            fb, _ = penalized_loss_grad(b, fm.X, fm.y.astype(float), w, 1.0)
            fm_mid, _ = penalized_loss_grad((a + b) / 2, fm.X, fm.y.astype(float), w, 1.0)
            assert fm_mid <= (fa + fb) / 2 + 1e-9 * max(1.0, abs(fa) + abs(fb))


class TestFitLogistic:
    def test_infinite_regularization_limit(self, rng):
        fm = make_fm(rng, n=200, d=3, seed_shift=-1.2)
        model = fit_logistic(fm, c=1e-10)
        assert np.abs(model.coefficients).max() < 1e-6
        assert abs(model.intercept) < 1e-6
        probs = model.predict_proba(fm.X)
        assert np.abs(probs - 0.5).max() < 1e-6

    def test_separable_toy_matches_grid_oracle(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        fm = FeatureMatrix(X=X, y=y, feature_names=("x",))
        model = fit_logistic(fm, c=1.0)

        def objective(theta):
            beta, b = theta
            z = X[:, 0] * beta + b
            return float(np.sum(np.logaddexp(0.0, z) - y * z) + beta * beta / 2.0)

        oracle = grid_minimize_2d(objective, half_width=8.0, points=41, rounds=14)
        assert model.coefficients[0] > 0
        assert model.coefficients[0] == pytest.approx(oracle[0], abs=1e-6)
        assert model.intercept == pytest.approx(oracle[1], abs=1e-6)
        # frozen from the refined-grid minimizer above
        assert model.coefficients[0] == pytest.approx(0.6748316, abs=1e-6)

    def test_gradient_norm_at_solution(self, rng):
        fm = make_fm(rng, n=300, d=4, beta=[1.0, -0.5, 0.0, 0.2])
        model = fit_logistic(fm, c=1.0)
        assert model.grad_norm <= 1e-8

    def test_single_class_raises(self, rng):
        X = rng.normal(size=(10, 2))
        fm = FeatureMatrix(X=X, y=np.ones(10, dtype=int), feature_names=("a", "b"))
        with pytest.raises(CohortError, match="both classes required to fit"):
            fit_logistic(fm, c=1.0)

    def test_nonconvergence_reports_gradient_norm(self, rng, monkeypatch):
        fm = make_fm(rng, n=100, d=3, beta=[2.0, 1.0, -1.0])
        monkeypatch.setattr(logistic, "MAX_ITER", 1)
        with pytest.raises(NonConvergence, match="gradient norm .* after 1 iterations"):
            fit_logistic(fm, c=1.0)

    def test_invalid_c(self, rng):
        with pytest.raises(ValidationError):
            fit_logistic(make_fm(rng), c=0.0)
        with pytest.raises(ValidationError, match="l2 strength C must be positive, got nan"):
            fit_logistic(make_fm(rng), c=float("nan"))

    def test_scale_invariance_of_probabilities(self, rng):
        fm = make_fm(rng, n=150, d=3, beta=[1.0, -1.0, 0.5])
        model_a = fit_logistic(fm, c=1.0)
        X_scaled = fm.X.copy()
        X_scaled[:, 1] *= 37.5
        fm_b = FeatureMatrix(X=X_scaled, y=fm.y, feature_names=fm.feature_names)
        model_b = fit_logistic(fm_b, c=1.0)
        X_test = rng.normal(size=(40, 3))
        X_test_scaled = X_test.copy()
        X_test_scaled[:, 1] *= 37.5
        pa = model_a.predict_proba(X_test)
        pb = model_b.predict_proba(X_test_scaled)
        assert np.abs(pa - pb).max() < 1e-9

    def test_balanced_equals_duplicated_positives(self, rng):
        # duplicating each positive k = n_neg/n_pos times under uniform
        # weights reproduces the balanced objective once the L2 strength is
        # rescaled by the objective's overall factor 2*n_neg/n; the
        # duplicated panel holds 40 of each class, so its balanced weights
        # are all 1
        n_pos, n_neg = 8, 40
        X = np.vstack([rng.normal(1.0, 1.0, size=(n_pos, 2)), rng.normal(0.0, 1.0, size=(n_neg, 2))])
        y = np.array([1] * n_pos + [0] * n_neg)
        base = FeatureMatrix(X=X, y=y, feature_names=("a", "b"))
        std = standardize(base).standardization
        fm_bal = FeatureMatrix(
            X=std.apply(X), y=y, feature_names=base.feature_names, standardization=std
        )
        c = 1.0
        model_bal = fit_logistic(fm_bal, c=c)

        k = n_neg // n_pos
        X_dup = np.vstack([np.repeat(X[:n_pos], k, axis=0), X[n_pos:]])
        y_dup = np.array([1] * (n_pos * k) + [0] * n_neg)
        fm_dup = FeatureMatrix(
            X=std.apply(X_dup), y=y_dup, feature_names=base.feature_names, standardization=std
        )
        n = n_pos + n_neg
        c_dup = c * n / (2 * n_neg)
        model_dup = fit_logistic(fm_dup, c=c_dup)
        assert model_bal.coefficients == pytest.approx(model_dup.coefficients, abs=1e-7)
        assert model_bal.intercept == pytest.approx(model_dup.intercept, abs=1e-7)


def fit_outcome(fit, fm, c):
    """The bits of what `fit` gives: the model's coefficients, intercept,
    iteration count and gradient norm, or the error's type and message."""
    try:
        m = fit(fm, c=c)
    except (NonConvergence, CohortError) as exc:
        return type(exc), str(exc)
    return m.coefficients.tobytes(), m.intercept.hex(), m.n_iter, m.grad_norm.hex()


def drawn_problem(
    seed: int, n: int, d: int, separation: float, tails: float | None
) -> FeatureMatrix:
    """Predictors from Student's t with `tails` degrees of freedom (normal
    when None), and labels from a logistic model whose coefficients are
    scaled by `separation`: at 1e3 the classes are all but separable."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) if tails is None else rng.standard_t(tails, size=(n, d))
    y = (separation * (X @ rng.normal(size=d)) + rng.logistic(size=n) > 0).astype(int)
    return FeatureMatrix(X=X, y=y, feature_names=tuple(f"f{i}" for i in range(d)))


class TestLineSearchOrder:
    """`fit_logistic` tests gradient contraction before it computes a loss,
    and must give the bits of the loss-first loop of `tests/oracles.py`."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        d=st.integers(1, 4),
        separation=st.sampled_from([0.0, 0.5, 3.0, 1e3]),
        tails=st.sampled_from([None, 1.0, 3.0]),
        c=st.sampled_from([1e-3, 0.1, 1.0, 1e2, 1e6, 1e12]),
        max_iter=st.sampled_from([2, 5, logistic.MAX_ITER]),
    )
    def test_bits_equal_the_loss_first_loop(
        self, seed, n, d, separation, tails, c, max_iter
    ):
        fm = drawn_problem(seed, n, d, separation, tails)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logistic, "MAX_ITER", max_iter)
            got = fit_outcome(fit_logistic, fm, c)
            assert got == fit_outcome(fit_logistic_reference, fm, c)

    def test_backtracking_fits_take_the_armijo_branch(self, monkeypatch):
        # heavy-tailed predictors under a weak penalty: the gradient often
        # fails to contract, and now and then Newton overshoots and the
        # loss halves the step
        losses = Counter()
        loss = logistic._loss

        def counted(*args):
            losses["calls"] += 1
            return loss(*args)

        monkeypatch.setattr(logistic, "_loss", counted)
        counts = Counter()
        for seed in range(40):
            fm = drawn_problem(seed, 10, 2, 3.0, 1.0)
            for c in (1e6, 1e12):
                got = fit_outcome(fit_logistic, fm, c)
                reference = partial(fit_logistic_reference, counts=counts)
                assert got == fit_outcome(reference, fm, c)
        assert counts["halvings"] > 0
        assert losses["calls"] > 0

    def test_a_fit_whose_steps_contract_computes_no_loss(self, rng, monkeypatch):
        def no_loss(*args):
            raise AssertionError("computed a loss")

        monkeypatch.setattr(logistic, "_loss", no_loss)
        model = fit_logistic(make_fm(rng, n=300, d=4, beta=[1.0, -0.5, 0.0, 0.2]), c=1.0)
        assert model.grad_norm <= 1e-8


class TestPredictProba:
    def test_zero_model_gives_half(self):
        model = LogisticModel(
            coefficients=np.zeros(2),
            intercept=0.0,
            l2_strength=1.0,
            feature_names=("a", "b"),
            standardization=Standardization(mean=np.zeros(2), sd=np.ones(2)),
        )
        probs = model.predict_proba(np.array([[1.0, 2.0], [-4.0, 0.0]]))
        assert np.all(probs == 0.5)

    def test_feature_mismatch(self, rng):
        model = fit_logistic(make_fm(rng, d=3), c=1.0)
        with pytest.raises(ValidationError, match=r"expected 3 features, got shape \(5, 2\)"):
            model.predict_proba(np.zeros((5, 2)))
