"""Class-weighted L2-regularized logistic regression.

The objective is the sample-weighted negative log-likelihood plus an L2
penalty of strength 1/C on the coefficients (the intercept is unpenalized):

    J(beta, b) = sum_i w_i * [log(1 + exp(z_i)) - y_i * z_i] + ||beta||^2 / (2C)

with z_i = x_i . beta + b. The weighting is always balanced: class c gets
the weight n / (2 * n_c), since the fragility label is rare (about 3% of
eligible rows). It is no parameter and no model field; a scorer file names
it (see `io`). The problem is strictly convex, so a damped Newton iteration
driven to a hard gradient-norm tolerance gives a reproducible optimum.

The line search (Armijo backtracking, Nocedal & Wright, *Numerical
Optimization*, 2006, section 3.1) accepts a candidate step when its gradient
norm is at most half the current one, or when its loss meets the Armijo
condition; it halves the step otherwise, down to 2^-30. The gradient test
comes first, so a loss is computed only when it fails: then the current
iterate's, once per iteration, and the candidate's. Either test accepts the
same candidate in either order, so every iterate is the one the loss-first
order gives, bit for bit, and a fit whose every step contracts the
gradient computes no loss at all.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CohortError, NonConvergence, ValidationError
from .matrix import FeatureMatrix, Standardization, standardize

# The class weighting of every logistic and tree fit, as scorer files name it.
WEIGHTING_BALANCED = "balanced"

GRAD_TOL = 1e-8
MAX_ITER = 100


@dataclass(frozen=True)
class LogisticModel:
    coefficients: np.ndarray  # standardized scale
    intercept: float
    l2_strength: float  # C = 1/lambda
    feature_names: tuple[str, ...]
    standardization: Standardization
    n_iter: int = 0
    grad_norm: float = 0.0

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probabilities for raw (unstandardized) feature rows."""
        Xs = self.standardization.apply(np.asarray(X, dtype=float))
        return sigmoid(Xs @ self.coefficients + self.intercept)

    def permuted_proba(self, X: np.ndarray, perms: np.ndarray) -> np.ndarray:
        """(d, repeats, n) probabilities, where [j, r] is `predict_proba` of X
        with column j replaced by `X[perms[j, r], j]`: one `predict_proba` of
        the `repeats` permuted copies of column j stacked into one matrix,
        reused for every column. Each row scores independently of its batch."""
        X = np.asarray(X, dtype=float)
        d, repeats, n = perms.shape
        out = np.empty(perms.shape)
        stacked = np.tile(X, (repeats, 1))
        for j in range(d):
            stacked[:, j] = X[perms[j].ravel(), j]
            out[j] = self.predict_proba(stacked).reshape(repeats, n)
            stacked[:, j] = np.tile(X[:, j], repeats)
        return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sample_weights(y: np.ndarray) -> np.ndarray:
    """Balanced per-sample weights: class c gets the weight n / (2 * n_c)."""
    n = len(y)
    n_pos = int(np.sum(y == 1))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise CohortError("balanced weighting needs both classes")
    w_pos = n / (2.0 * n_pos)
    w_neg = n / (2.0 * n_neg)
    return np.where(y == 1, w_pos, w_neg)


def penalized_loss_grad(
    theta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    c: float,
) -> tuple[float, np.ndarray]:
    """Weighted penalized log-loss and its analytic gradient.

    theta = (coefficients..., intercept); the intercept is unpenalized.
    """
    z, grad, _ = _grad_proba(theta, X, y, weights, c)
    return _loss(theta, z, y, weights, c), grad


def _grad_proba(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray, weights: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear scores z = X beta + b at theta, the gradient of
    `penalized_loss_grad`, and the probabilities at theta, for the Hessian."""
    beta, b = theta[:-1], theta[-1]
    z = X @ beta + b
    p = sigmoid(z)
    wr = weights * (p - y)
    grad = np.empty_like(theta)
    grad[:-1] = X.T @ wr + beta / c
    grad[-1] = np.sum(wr)
    return z, grad, p


def _loss(theta: np.ndarray, z: np.ndarray, y: np.ndarray, weights: np.ndarray, c: float) -> float:
    """The loss of `penalized_loss_grad` at theta, from its scores z."""
    beta = theta[:-1]
    # log(1+e^z) - y z, computed stably
    loss = float(np.sum(weights * (np.logaddexp(0.0, z) - y * z)))
    return loss + float(beta @ beta) / (2.0 * c)


def check_l2_strength(c: float) -> None:
    """Raise a `ValidationError` unless `c` is positive; NaN is not."""
    if not c > 0:
        raise ValidationError(f"l2 strength C must be positive, got {c}")


def fit_logistic(fm: FeatureMatrix, c: float = 1.0) -> LogisticModel:
    """Fit by damped Newton to gradient norm <= GRAD_TOL, in at most MAX_ITER
    iterations.

    Standardizes the matrix first if it has not been already; the fitted
    (mean, sd) are stored on the model and reused at prediction time.
    """
    check_l2_strength(c)
    if fm.standardization is None:
        fm = standardize(fm)
    X, y = fm.X, fm.y.astype(float)
    if fm.y.min() == fm.y.max():
        raise CohortError("both classes required to fit")
    w = sample_weights(fm.y)

    theta = np.zeros(fm.d + 1)
    pen = np.ones(fm.d + 1) / c
    pen[-1] = 0.0
    z, grad, p = _grad_proba(theta, X, y, w, c)
    loss = None  # the loss at theta, once a line search has needed it
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= GRAD_TOL:
            break
        curv = w * p * (1.0 - p)
        H = np.empty((fm.d + 1, fm.d + 1))
        Xw = X * curv[:, None]
        H[:-1, :-1] = X.T @ Xw
        H[:-1, -1] = Xw.sum(axis=0)
        H[-1, :-1] = H[:-1, -1]
        H[-1, -1] = curv.sum()
        H[np.diag_indices_from(H)] += pen
        # tiny ridge keeps the Newton system solvable when p saturates;
        # it only shapes the step, the optimum is still judged by the gradient
        H[np.diag_indices_from(H)] += 1e-12
        step = np.linalg.solve(H, -grad)

        t = 1.0
        slope = float(grad @ step)
        while True:
            cand = theta + t * step
            cand_z, cand_grad, cand_p = _grad_proba(cand, X, y, w, c)
            cand_loss = None
            # near the optimum the loss sits at its float resolution floor;
            # the contracting gradient still certifies the Newton step
            if np.linalg.norm(cand_grad) <= 0.5 * gnorm:
                break
            if loss is None:
                loss = _loss(theta, z, y, w, c)
            cand_loss = _loss(cand, cand_z, y, w, c)
            if cand_loss <= loss + 1e-4 * t * slope:
                break
            if t < 2**-30:
                break
            t *= 0.5
        theta, z, loss, grad, p = cand, cand_z, cand_loss, cand_grad, cand_p
    else:
        gnorm = float(np.linalg.norm(grad))
        if gnorm > GRAD_TOL:
            raise NonConvergence(
                f"gradient norm {gnorm:.3e} > {GRAD_TOL:.1e} after {MAX_ITER} iterations"
            )

    return LogisticModel(
        coefficients=theta[:-1].copy(),
        intercept=float(theta[-1]),
        l2_strength=float(c),
        feature_names=fm.feature_names,
        standardization=fm.standardization,
        n_iter=n_iter,
        grad_norm=float(np.linalg.norm(grad)),
    )
