"""Numerical kernel: weighted logistic regression, the chi-square tail, sampling.

Everything here is deliberately small and self-contained so the estimation
layer can be audited without chasing library internals.  The one exception is
the regularized incomplete gamma function backing the chi-square tail, which
comes from scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

# Newton solver defaults for the weighted logistic fits.  The score tolerance
# is per unit of total weight: the score itself scales with the sample size,
# so an absolute cutoff would sit below the floating-point plateau at large n.
SCORE_TOL = 1e-8
MAX_ITER = 100
SEPARATION_BOUND = 30.0


def _logistic(eta, e):
    """expit(eta) from eta and e = exp(-|eta|), with no masked copies."""
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _bernoulli_loglik(eta, y):
    """Per-row Bernoulli log-likelihood at linear predictor ``eta``, and
    e = exp(-|eta|) for :func:`_logistic`.  softplus(eta) = log(1 + exp(eta))
    is evaluated as max(eta, 0) + log1p(e), so no exponential overflows."""
    e = np.exp(-np.abs(eta))
    return y * eta - (np.maximum(eta, 0.0) + np.log1p(e)), e


def _weighted_loglik(eta, y, w):
    """(weighted Bernoulli log-likelihood, e = exp(-|eta|)) at ``eta``.  The
    sum stays elementwise: as two dot products it loses precision to
    cancellation, enough to fail the step-halving test near convergence."""
    terms, e = _bernoulli_loglik(eta, y)
    return float(np.sum(w * terms)), e


def expit(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=float)
    out = _logistic(x, np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out


def chisq_sf(x, df):
    """Upper-tail probability P(chi2_df > x) for any real df > 0 (fractional
    df arise from moment-matched reference distributions)."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return float(gammaincc(df / 2.0, x / 2.0))


def sample_mvn(n, mean, covariance, rng):
    """Draw ``n`` i.i.d. multivariate normal rows via a Cholesky transform.

    Falls back to an eigendecomposition for singular PSD covariances (so a
    zero covariance yields constant draws).  Raises on non-PSD input.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(covariance, dtype=float)
    k = mean.shape[0]
    if cov.shape != (k, k):
        raise ValueError("covariance shape does not match mean")
    if not np.allclose(cov, cov.T):
        raise ValueError("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if w.min() < -1e-10:
            raise np.linalg.LinAlgError(
                f"covariance is not positive semi-definite (min eigenvalue {w.min():.3e})"
            )
        chol = v * np.sqrt(np.clip(w, 0.0, None))
    z = rng.standard_normal((n, k))
    return mean + z @ chol.T


def child_rng(seed, *key):
    """Independent child generator for (seed, key) -- order-insensitive streams.

    Replication r of a study uses ``child_rng(seed, r)`` so results do not
    depend on execution order or parallelism degree.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class DesignMatrix:
    """Feature matrix with named columns; the intercept is always first."""

    names: tuple
    values: np.ndarray  # (n, p)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "names", tuple(self.names))
        if vals.ndim != 2 or vals.shape[1] != len(self.names):
            raise ValueError("column count does not match names")
        if len(self.names) < 1:
            raise ValueError("need at least one column")
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")
        if not np.all(np.isfinite(vals)):
            raise ValueError("design matrix contains non-finite entries")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class PropensityFit:
    """Result of one weighted logistic fit."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    weighted_loglik: float
    n_effective: float
    column_names: tuple = ()
    message: str = ""

    def predict(self, design: DesignMatrix):
        """Fitted P(outcome = 1) for each row of ``design``."""
        return expit(design.values @ self.coefficients)

    def log_density(self, design: DesignMatrix, outcome):
        """Per-row Bernoulli log-likelihood of ``outcome`` under the fit."""
        eta = design.values @ self.coefficients
        return _bernoulli_loglik(eta, np.asarray(outcome, dtype=float))[0]


def weighted_bernoulli_loglik(beta, x, y, w):
    return _weighted_loglik(x @ beta, y, w)[0]


def fit_weighted_logistic(design: DesignMatrix, outcome, weights=None,
                          start=None, tol=None) -> PropensityFit:
    """Solve the weighted logistic score equation by Newton with step halving.

    The returned coefficients satisfy sum_i w_i (y_i - expit(x_i' b)) x_i = 0
    to within ``tol`` (default SCORE_TOL times the total weight) in max-norm
    when ``converged`` is True.  Complete separation and one-class outcomes are flagged, never
    raised.  ``start`` warm-starts the iteration (useful for bootstrap
    refits, which can also pass a looser ``tol``).
    """
    x = design.values
    y = np.asarray(outcome, dtype=float)
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=float)
    if len(y) != x.shape[0] or len(w) != x.shape[0]:
        raise ValueError("design, outcome, and weights lengths disagree")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("outcome must be binary")

    n_eff = float(w.sum())
    p = x.shape[1]
    beta = np.zeros(p) if start is None else np.asarray(start, dtype=float).copy()

    # One-class outcome under positive weight: the MLE runs off to infinity.
    if w[y == 1].sum() == 0 or w[y == 0].sum() == 0:
        ll = weighted_bernoulli_loglik(beta, x, y, w)
        return PropensityFit(beta, False, 0, ll, n_eff, design.names,
                             "degenerate outcome: one class has zero total weight")

    if tol is None:
        tol = SCORE_TOL * max(1.0, n_eff)
    # eta = x @ beta and e = exp(-|eta|) are computed once per candidate
    # step; the accepted candidate's pair gives the next iteration's mu.
    eta = x @ beta
    ll, e = _weighted_loglik(eta, y, w)
    for it in range(1, MAX_ITER + 1):
        mu = _logistic(eta, e)
        resid = w * (y - mu)
        score = x.T @ resid
        if np.max(np.abs(score)) < tol:
            return PropensityFit(beta, True, it - 1, ll, n_eff, design.names)
        wvar = w * mu * (1.0 - mu)
        hess = x.T @ (wvar[:, None] * x)
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, score, rcond=None)[0]
        # Step halving: never accept a move that lowers the weighted loglik.
        # When every halving fails, the move is the once-more-halved step.
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            eta = x @ cand
            ll_cand, e = _weighted_loglik(eta, y, w)
            if ll_cand >= ll - 1e-12:
                beta, ll = cand, ll_cand
                break
            scale *= 0.5
        else:
            beta = beta + scale * step
            eta = x @ beta
            ll, e = _weighted_loglik(eta, y, w)
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            return PropensityFit(beta, False, it, ll, n_eff, design.names,
                                 "complete separation suspected (coefficients diverging)")
    return PropensityFit(beta, False, MAX_ITER, ll, n_eff, design.names,
                         "maximum iterations reached")
