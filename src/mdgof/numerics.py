"""Numerical kernel: weighted logistic regression, the chi-square tail, seed streams.

Everything here is deliberately small and self-contained so the estimation
layer can be audited without chasing library internals.  The chi-square tail
serves integer degrees of freedom only, as sums of gamma-density terms, so
the package needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Newton solver defaults for the weighted logistic fits.  The score tolerance
# is per unit of total weight: the score itself scales with the sample size,
# so an absolute cutoff would sit below the floating-point plateau at large n.
SCORE_TOL = 1e-8
MAX_ITER = 100
MAX_HALVINGS = 30
SEPARATION_BOUND = 30.0
# Cells (rows x columns) of one row block of a weighted Gram product.  A
# block's scaled copy of the design, 1 MB, stays in a 2 MB L2 cache, while
# every design of the paper's size (n = 10 000, p <= 7) is one block.  The
# robust p-value forms its products' rows block by block, none n long.
GRAM_BLOCK_CELLS = 1 << 17


def _logistic(eta, e, out, scratch):
    """expit(eta) = exp(min(eta, 0)) / (1 + e) for e = exp(-|eta|), into ``out``."""
    np.exp(np.minimum(eta, 0.0, out=out), out=out)
    return np.divide(out, np.add(1.0, e, out=scratch), out=out)


def _weighted_loglik(eta, y, w, e=None, work=None, scratch=None):
    """Weighted Bernoulli log-likelihood along the last axis at linear
    predictor ``eta``, leaving e = exp(-|eta|) for :func:`_logistic` in
    ``e``.  softplus(eta) = log(1 + exp(eta)) is evaluated as max(eta, 0) +
    log1p(e), so no exponential overflows.  The sum stays elementwise: as
    two dot products it loses precision to cancellation, enough to fail the
    step-halving test near convergence.  Steps write into the arrays given."""
    e = np.exp(np.negative(np.abs(eta, out=e), out=e), out=e)
    work = np.maximum(eta, 0.0, out=work)
    work += np.log1p(e, out=scratch)
    work = np.subtract(np.multiply(y, eta, out=scratch), work, out=work)
    work *= w
    return work.sum(axis=-1)


def gram_sum(n, p, block):
    """sum_i d[b, i] x_i x_i' over n rows of p columns, summed block after
    block of GRAM_BLOCK_CELLS // p rows: ``block(rows)`` gives a slice's
    (x (m, p), d (B, m)), so only a block of each is formed at a time."""
    size = max(1, GRAM_BLOCK_CELLS // p)
    xb, db = block(slice(0, size))
    gram = xb.T @ (db[:, :, None] * xb)
    for first in range(size, n, size):
        xb, db = block(slice(first, first + size))
        gram += xb.T @ (db[:, :, None] * xb)
    return gram


def weighted_gram(x, d):
    """sum_i d[b, i] x_i x_i' for every row b of ``d`` (B, n): (B, p, p).

    The sum runs over :func:`gram_sum`'s blocks, so the rows per block do
    not depend on B; a design that fits in one block is the one product
    x' (d x)."""
    return gram_sum(*x.shape, lambda rows: (x[rows], d[:, rows]))


def expit(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=float)
    out = _logistic(x, np.exp(-np.abs(x)), np.empty_like(x), np.empty_like(x))
    return float(out) if out.ndim == 0 else out


# A series term this small against the sum ends the series.
_GAMMA_EPS = 1e-15


def chisq_sf(x, df):
    """P(chi2_df > x) for a positive integer df (a nested test's column
    count).  With h = x / 2 it is a sum of terms h^b e^-h / Gamma(b + 1).
    Above x = df + 2 it is erfc(sqrt(h)) (odd df) or e^-h (even df) plus
    the terms for b = 1/2 or 1 up to df / 2 - 1, each exp of a sum of
    logs, so a large term survives where e^-h underflows.  Below, it is
    1 - P, with P the fast-falling series of the terms for b = df / 2,
    df / 2 + 1, ..., so a tail near 1 still falls as x grows.  Returns 1
    at x = 0, 0 at x = inf and NaN at x = NaN."""
    if not (math.isfinite(df) and df >= 1 and df == int(df)):
        raise ValueError(f"df must be a positive integer, got {df}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if math.isnan(x):
        return math.nan
    if x == math.inf:
        return 0.0
    h = x / 2.0
    if h == 0.0:
        return 1.0
    a, log_h = df / 2.0, math.log(h)

    def term(b):
        return math.exp(b * log_h - h - math.lgamma(b + 1.0))

    if h < a + 1.0:
        b = a
        step = total = term(a)
        while step > total * _GAMMA_EPS:
            b += 1.0
            step *= h / b
            total += step
        return 1.0 - total
    odd = df % 2 == 1
    total = math.erfc(math.sqrt(h)) if odd else math.exp(-h)
    b = 0.5 if odd else 1.0
    while b < a:
        total += term(b)
        b += 1.0
    return total


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
    weighted_loglik: float      # at ``coefficients``
    fitted: np.ndarray          # P(outcome = 1) at ``coefficients``, per row
    message: str = ""


DEGENERATE = "degenerate outcome: one class has zero total weight"
_SEPARATED = "complete separation suspected (coefficients diverging)"
_EXHAUSTED = "maximum iterations reached"


def _solve(hess, score):
    """Newton steps of a stack of fits; a singular Hessian takes the
    least-squares step, fit by fit."""
    try:
        return np.linalg.solve(hess, score[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(score)
        for i, (h, s) in enumerate(zip(hess, score)):
            try:
                step[i] = np.linalg.solve(h, s)
            except np.linalg.LinAlgError:
                step[i] = np.linalg.lstsq(h, s, rcond=None)[0]
        return step


def _newton(x, y, w, beta, tol):
    """Newton with step halving for every row of the weight matrix ``w``
    (B, m) at once: fit b maximises sum_i w[b, i] l_i(beta_b) from
    ``beta[b]`` until its max-norm score is below ``tol[b]``.

    Each fit keeps its own step, halving and exit.  Fits exit in one
    place, at the top of an iteration once its score is known, for the
    first of these that holds: a one-class outcome (first iteration only),
    coefficients past SEPARATION_BOUND after the previous step, the
    iteration limit, a score below tolerance.  Only then are the active
    arrays compacted, so a batch where every fit is active and takes its
    full step does no gather.  Each Hessian is :func:`weighted_gram`'s
    blocked sum, which at the paper's size is one product.  Its (B, m) arrays
    eta, e = exp(-|eta|), work and residual are allocated once, written in
    expression order (same bits); fits exiting together return the last mu.
    Returns (coefficients (B, p), converged, iterations, loglik, fitted
    probabilities (B, m), messages), each fit's at its exit.
    """
    B, m = w.shape
    coef = np.empty_like(beta)
    loglik = np.empty(B)
    iterations = np.empty(B, dtype=np.intp)
    messages, fitted = [""] * B, None
    idx = np.arange(B)
    eta, e, work, resid = buffers = [np.empty((B, m)) for _ in range(4)]
    # eta = beta x' and e = exp(-|eta|) are computed once per candidate
    # step; the accepted candidate's pair gives the next iteration's mu.
    ll = _weighted_loglik(np.matmul(beta, x.T, out=eta), y, w, e, work, resid)
    for it in range(1, MAX_ITER + 2):
        mu = _logistic(eta, e, work, resid)
        score = np.multiply(w, np.subtract(y, mu, out=resid), out=resid) @ x
        # Every exit is decided here.  A one-class outcome under positive
        # weight (its MLE runs off to infinity) can only be met at the
        # start, separation only after a step; either beats the iteration
        # limit, which beats convergence.
        if it == 1:
            first, why = (w @ y == 0) | (w @ (1.0 - y) == 0), DEGENERATE
        else:
            first, why = np.abs(beta).max(axis=1) > SEPARATION_BOUND, _SEPARATED
        otherwise = _EXHAUSTED if it > MAX_ITER else ""
        done = first | (it > MAX_ITER) | (np.abs(score).max(axis=1) < tol)
        if done.any():
            rows = idx[done]
            coef[rows], loglik[rows], iterations[rows] = beta[done], ll[done], it - 1
            for i, f in zip(rows, first[done]):
                messages[i] = why if f else otherwise
            if fitted is None:
                fitted = mu if done.all() else np.empty((B, m))
            if fitted is not mu:
                fitted[rows] = mu[done]
            if done.all():
                break
            keep = ~done
            idx, w, tol, beta, ll, score = (
                a[keep] for a in (idx, w, tol, beta, ll, score))
            mu[:len(idx)] = mu[keep]  # eta and e are written before they are read
            eta, e, work, resid = (buffer[:len(idx)] for buffer in buffers)
            mu = work
        np.subtract(1.0, mu, out=resid)
        np.multiply(np.multiply(w, mu, out=work), resid, out=work)  # w mu (1 - mu)
        step = _solve(weighted_gram(x, work), score)
        # Step halving: never accept a move that lowers the weighted loglik,
        # except the last halving, which is taken whatever its loglik.  A
        # NaN loglik fails the test and halves.  Fits still halving share
        # one scale: they all started at 1.
        cand = beta + step
        ll_cand = _weighted_loglik(np.matmul(cand, x.T, out=eta), y, w, e, work, resid)
        pending = np.flatnonzero(~(ll_cand >= ll - 1e-12))
        for halving in range(1, MAX_HALVINGS + 1):
            if not pending.size:
                break
            scale = 0.5 ** halving
            c = beta[pending] + scale * step[pending]
            every = pending.size == len(beta)  # then overwrite eta and e in place
            ce, cexp = (eta, e) if every else np.empty((2, pending.size, m))
            cl = _weighted_loglik(np.matmul(c, x.T, out=ce), y, w if every else w[pending],
                                  cexp, work[:pending.size], resid[:pending.size])
            ok = (cl >= ll[pending] - 1e-12) | (halving == MAX_HALVINGS)
            rows = pending[ok]
            cand[rows], ll_cand[rows] = c[ok], cl[ok]
            if not every:
                eta[rows], e[rows] = ce[ok], cexp[ok]
            pending = pending[~ok]
        beta, ll = cand, ll_cand
    converged = np.array([not message for message in messages])
    return coef, converged, iterations, loglik, fitted, tuple(messages)


@dataclass(frozen=True)
class BatchFit:
    """Results of :func:`fit_weighted_logistic_batch`, one entry per fit."""

    coefficients: np.ndarray    # (B, p)
    converged: np.ndarray       # (B,) bool
    iterations: np.ndarray      # (B,) int
    weighted_loglik: np.ndarray  # (B,)
    fitted: np.ndarray          # (B, m)
    messages: tuple             # (B,) str, "" when converged


def fit_weighted_logistic_batch(design: DesignMatrix, outcome, weights,
                                start=None, tol=None) -> BatchFit:
    """One weighted logistic fit per row of ``weights`` (B, m), all on
    ``design`` and ``outcome``, in one Newton solve.

    Fit b is :func:`fit_weighted_logistic` with weights ``weights[b]``:
    ``start`` (p,) or (B, p) warm-starts it and ``tol`` (scalar or (B,))
    is its score tolerance, by default SCORE_TOL times its total weight.
    """
    x = design.values
    y = np.asarray(outcome)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or len(y) != x.shape[0] or w.shape[1] != x.shape[0]:
        raise ValueError("design, outcome, and weights lengths disagree")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and nonnegative")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("outcome must be binary")
    beta = np.zeros((w.shape[0], x.shape[1]))
    if start is not None:
        # A NaN start would halve through every iteration, an infinite one
        # read as separation: refuse both, and a start of the wrong shape.
        start = np.asarray(start, dtype=float)
        if start.shape not in (beta.shape[1:], beta.shape):
            raise ValueError(f"start must have shape {beta.shape[1:]} or "
                             f"{beta.shape}, got {start.shape}")
        if not np.all(np.isfinite(start)):
            raise ValueError("start contains non-finite entries")
        beta[:] = start
    tol = (SCORE_TOL * np.maximum(1.0, w.sum(axis=1)) if tol is None
           else np.full(w.shape[0], tol, dtype=float))
    if not np.all((tol >= 0) & (tol < np.inf)):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    return BatchFit(*_newton(x, y, w, beta, tol))


def fit_weighted_logistic(design: DesignMatrix, outcome, weights=None,
                          start=None, tol=None) -> PropensityFit:
    """Solve the weighted logistic score equation by Newton with step halving.

    The returned coefficients satisfy sum_i w_i (y_i - expit(x_i' b)) x_i = 0
    to within ``tol`` (default SCORE_TOL times the total weight) in max-norm
    when ``converged`` is True.  Complete separation and one-class outcomes
    are flagged, never raised.  ``start`` warm-starts the iteration.  This
    is :func:`fit_weighted_logistic_batch` with one row of weights.
    """
    y = np.asarray(outcome)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    fit = fit_weighted_logistic_batch(design, y, w[None, :], start, tol)
    return PropensityFit(fit.coefficients[0], bool(fit.converged[0]),
                         int(fit.iterations[0]), float(fit.weighted_loglik[0]),
                         fit.fitted[0], fit.messages[0])
