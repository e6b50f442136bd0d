"""Estimation primitives shared by all three goodness-of-fit procedures.

Each step k of a sequential cascade compares two logistic propensity models
for R_k: a null, and an alternative that adds one block of proxies.  Both
are fit on the one design :func:`build_features` returns for the step: the
intercept, R_j for j < k, then the zero-imputed proxies X*_j of the other
variables, the null's first and the tested block last, so the null (and any
smaller model the step needs) is the design's leading columns.  One column
serves every role of a proxy: the product R_j X*_j is the zero-imputed
proxy, and so is the counterfactual X_j on the rows where R_j = 1, which is
why a step's row mask keeps the rows where every later proxy is observed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .data import ObservedDataset
from .graph import MDag, detect_structures
from .numerics import (DEGENERATE, DesignMatrix, PropensityFit, chisq_sf, expit,
                       fit_weighted_logistic, fit_weighted_logistic_batch)

PROPENSITY_CLIP = 1e-6
# The odds-ratio bootstrap needs at least this many usable resamples.
MIN_BOOTSTRAP = 10
# Cells (resamples x distinct rows) of one batch of bootstrap fits: binary
# data (at most 3^K rows) fit every resample in one batch, while continuous
# data at large n fit one resample at a time and never hold B x n arrays.
BOOTSTRAP_CHUNK_CELLS = 1 << 16
# Why a resample gave no estimate, in the order the equation checks them.
NO_VARIATION, NOT_CONVERGED = FAILURE_REASONS = (
    "no variation", "fit not converged")


class EstimationError(ValueError):
    pass


def build_features(data: ObservedDataset, k, null_proxies, tested_proxies):
    """(design on every row, row mask) of cascade step ``k``.

    Columns: intercept, R_j for j < k, then the zero-imputed proxies of
    ``null_proxies`` and of ``tested_proxies``, in that order.  An earlier
    proxy is named as the product R*Xs it equals, a later one as the
    counterfactual X it equals on the masked rows.
    """
    proxies = [*null_proxies, *tested_proxies]
    mask = np.all(data.r[:, [j for j in proxies if j > k]] == 1, axis=1)
    if not mask.any():
        raise EstimationError(
            "no rows left after restricting to observed counterfactual columns")
    values = np.empty((data.n, 1 + k + len(proxies)))
    values[:, 0] = 1.0
    values[:, 1:k + 1] = data.r[:, :k]
    values[:, k + 1:] = np.nan_to_num(data.xstar[:, proxies], nan=0.0, copy=False)
    names = (("intercept",) + tuple(f"R[{data.names[j]}]" for j in range(k))
             + tuple(f"R*Xs[{data.names[j]}]" if j < k else f"X[{data.names[j]}]"
                     for j in proxies))
    return DesignMatrix(names, values), mask


def _leading(design: DesignMatrix, p, rows=slice(None)):
    """The first ``p`` columns of ``design`` on ``rows``, C-contiguous for
    the Newton kernel (a copy unless they already are)."""
    return DesignMatrix(design.names[:p],
                        np.ascontiguousarray(design.values[rows, :p]))


@dataclass(frozen=True)
class CascadeStep:
    k: int                      # 0-based index into the ordering
    null_fit: PropensityFit     # the likelihood-ratio fits under weights;
    alt_fit: PropensityFit      # the null's columns lead the alternative's
    design: DesignMatrix        # the alternative's, on the masked rows
    weights: np.ndarray         # inverse-propensity weights on masked rows
    mask: np.ndarray
    clip_events: int            # clipped propensities in the weights
    stabilized: bool            # see _fit_step


@dataclass(frozen=True)
class PropensityCascade:
    steps: tuple  # the tested CascadeSteps, in fitting order


@dataclass(frozen=True)
class OddsRatioEstimate:
    theta_hat: float
    pair: tuple
    bootstrap_ci: tuple
    n_bootstrap: int
    alpha: float
    n_failed_resamples: int = 0
    n_patterns: int = 0         # distinct (R, X*) rows the fits ran on
    numerator_cell: int = 0     # rows with R_{-kj} = 1 and R_k = R_j = 0
    failed_by_reason: dict = field(default_factory=dict)  # FAILURE_REASONS

    @property
    def ci_excludes_one(self):
        lo, hi = self.bootstrap_ci
        return not (lo <= 1.0 <= hi)


def _clipped_probs(fit: PropensityFit, design: DesignMatrix):
    return np.maximum(fit.predict(design), PROPENSITY_CLIP)


def _full_sample_probs(data: ObservedDataset, k, design: DesignMatrix):
    """MAR's full-sample null: R_k's clipped propensities, unweighted."""
    fit = fit_weighted_logistic(design, data.r[:, k])
    if not fit.converged:
        raise EstimationError(
            f"null propensity fit for {data.names[k]} failed: {fit.message}")
    return _clipped_probs(fit, design)


def _fit_step(data: ObservedDataset, k, null_proxies, tested_proxies, stab_p,
              weights, clipped, full_null):
    """(tested cascade step ``k``, its masked null design, MAR's full-sample
    null probabilities of R_k if ``full_null``, else None).

    One copy of the design's first ``stab_p`` columns serves the full-sample
    null and the stabilizer, the fitted probability of the row mask, which
    multiplies ``weights`` unless its fit did not converge.  ``clipped``
    counts the clipped propensities in each row's weights.  The masked null
    is the leading columns: intercept, R_j for j < k, ``null_proxies``.
    """
    design, mask = build_features(data, k, null_proxies, tested_proxies)
    name = data.names[k]
    lead = _leading(design, stab_p) if full_null or not mask.all() else None
    probs = _full_sample_probs(data, k, lead) if full_null else None
    if not np.any(weights[mask] > 0):
        raise EstimationError(f"all weights vanished before index {name}")
    w = weights.copy()
    stabilized = True  # a mask that keeps every row has probability 1
    if not mask.all():
        stab = fit_weighted_logistic(lead, mask.astype(np.int8))
        stabilized = stab.converged
        if stabilized:
            w *= stab.predict(lead)
    del lead
    w = w[mask]
    masked = _leading(design, design.p, mask)
    # The step keeps its masked design until it is tested; holding the
    # full-row design through the masked fits as well would raise peak memory.
    del design
    null = _leading(masked, 1 + k + len(null_proxies))
    y = data.r[mask, k]
    null_fit = fit_weighted_logistic(null, y, w)
    alt_fit = fit_weighted_logistic(masked, y, w)
    for fit in (null_fit, alt_fit):
        if not fit.converged:
            raise EstimationError(f"propensity fit for {name} failed: {fit.message}")
    return CascadeStep(k, null_fit, alt_fit, masked, w, mask,
                       int(clipped[mask].sum()), stabilized), null, probs


def mar_steps(data: ObservedDataset):
    """The tested steps of the sequential-MAR cascade of ``data``'s columns
    in their order, backward, each fit when the caller asks for it.

    Each index but the last is tested: the observed-data null against the
    inverse-weighted alternative, with weights built from the already-fitted
    full-sample nulls of all later indices.  The null is the earlier
    indicators and proxies; the alternative adds the later proxies.  The
    last index has nothing after it to test against, and a fully observed
    index has a vacuous restriction and a propensity identically one:
    neither is a step.  An index's full-sample null is fit only when a step
    before it will read it.

    Two departures from the naive construction keep the test calibrated:

    * The null fit stored on each step (the one entering the
      likelihood-ratio) is re-estimated under the same weights and row mask
      as the alternative; without this the statistic compares maximizers of
      two different objectives.  The weight products themselves always come
      from the unweighted full-sample fits, which use every observed row.
    * Weights are stabilized by the fitted probability of the row mask given
      the null features.  Multiplying the weights by any function of the
      conditioning features leaves the population maximizer of the weighted
      likelihood unchanged under the null, and the stabilizer cancels most
      of the inverse-propensity tail, so the statistic's reference
      distribution is far better behaved.
    """
    K = data.K
    partial = [k for k in range(K) if not np.all(data.r[:, k] == 1)]
    weights = np.ones(data.n)  # 1 / prod of the later full-sample nulls
    clipped = np.zeros(data.n, dtype=int)  # clipped propensities in weights
    for k in reversed(partial):
        full_null = k > partial[0]
        if k < K - 1:
            step, null, probs = _fit_step(data, k, range(k), range(k + 1, K),
                                          1 + 2 * k, weights, clipped, full_null)
            del null  # the test reads the step alone
            yield step
        elif full_null:
            design, _ = build_features(data, k, range(k), ())
            probs = _full_sample_probs(data, k, design)
            del design
        if full_null:
            weights /= probs
            clipped += probs <= PROPENSITY_CLIP
            del probs  # the next step's fits need not hold it


def fit_cascade_mar(data: ObservedDataset, order) -> PropensityCascade:
    """Every step of :func:`mar_steps` under ``order``."""
    return PropensityCascade(tuple(mar_steps(data.reorder(order))))


def mnar_steps(data: ObservedDataset, graph: MDag | None):
    """The tested steps of the sequential-MNAR cascade (indices K .. 2) of
    ``data``'s columns in their order, each fit when the caller asks for it.

    Both the null (past indicators + future counterfactuals) and the
    alternative (plus past proxies) are fit under the running weights; the
    weights are rebuilt from an accepted null before the next step.
    Refuses to run when a declared graph contains a colluder or
    criss-cross, since the needed propensities are then not identified.
    """
    if graph is not None:
        report = detect_structures(graph)
        if report.colluders or report.criss_crosses:
            raise EstimationError(
                f"declared graph blocks identification of the cascade: {report}")
    K = data.K
    tested = [k for k in range(K - 1, 0, -1) if not np.all(data.r[:, k] == 1)]
    omega = np.ones(data.n)  # running I(R_succ = 1) / prod of accepted nulls
    clipped = np.zeros(data.n, dtype=int)  # clipped propensities in omega
    for k in tested:
        # The likelihood-ratio fits use stabilized weights: omega times the
        # fitted mask probability given the past indicators (the only null
        # features available on every row).  See mar_steps.
        step, null, _ = _fit_step(data, k, range(k + 1, K), range(k), 1 + k,
                                  omega, clipped, False)
        yield step
        if k == tested[-1]:
            return  # no later step reads the weights

        # Weight update from the accepted null, fit under the raw running
        # weights: divide by its fitted propensity and zero out rows where
        # R_k = 0.  Weights without a fitted stabilizer are those raw
        # weights, so the step's null fit is that fit.
        mask = step.mask
        update_fit = step.null_fit
        if not mask.all() and step.stabilized:
            update_fit = fit_weighted_logistic(null, data.r[mask, k], omega[mask])
        if not update_fit.converged:
            raise EstimationError(
                f"weight-update fit for {data.names[k]} failed: {update_fit.message}")
        p_full = np.ones(data.n)  # rows off the mask get zero weight below
        p_full[mask] = _clipped_probs(update_fit, null)
        clipped += p_full <= PROPENSITY_CLIP
        omega = np.where((data.r[:, k] == 1) & mask, omega / p_full, 0.0)


def fit_cascade_mnar(data: ObservedDataset, order, graph: MDag | None = None) -> PropensityCascade:
    """Every step of :func:`mnar_steps` under ``order``."""
    return PropensityCascade(tuple(mnar_steps(data.reorder(order), graph)))


def _nested_df(null_fit: PropensityFit, alt_fit: PropensityFit):
    """Degrees of freedom of a nested likelihood-ratio test.  The
    alternative's columns must be the null's, in order, then at least one
    more: the tested block is the alternative's trailing columns."""
    p0 = len(null_fit.column_names)
    df = len(alt_fit.column_names) - p0
    if df <= 0 or alt_fit.column_names[:p0] != null_fit.column_names:
        raise EstimationError("alternative must strictly nest the null")
    return df


def weighted_lr_stat(null_fit: PropensityFit, alt_fit: PropensityFit):
    """Inverse-weighted log-likelihood-ratio statistic of two fits under
    the same weights on the same rows.

    Returns (rho, 2*rho, df): rho is the difference of the fits' weighted
    log-likelihoods at their maximizers, and df the column-count difference
    between the alternative and the null, whose columns must lead the
    alternative's.
    """
    if not (null_fit.converged and alt_fit.converged):
        raise EstimationError("both fits must have converged")
    df = _nested_df(null_fit, alt_fit)
    rho = alt_fit.weighted_loglik - null_fit.weighted_loglik
    return rho, 2.0 * rho, df


def robust_lr_pvalue(two_rho, null_fit: PropensityFit, alt_fit: PropensityFit,
                     design: DesignMatrix, outcome, weights):
    """P-value of a weighted likelihood-ratio statistic.

    Under weighting the statistic converges to a weighted sum of chi-square(1)
    variables, not a plain chi-square; the weights are the eigenvalues of the
    Schur complement of the model information times the sandwich covariance of
    the tested block.  We approximate that law by a Satterthwaite
    moment-matched scaled chi-square.  The sandwich middle matrix is computed
    two ways -- from squared residuals and from the conditional Bernoulli
    variance -- and for each we also form the stochastic upper bound that
    refers the statistic scaled by the largest eigenvalue to a plain
    chi-square(df).  The largest (least significant) of these p-values and
    the classical chi-square(df) p-value is kept; every candidate is a valid
    reference asymptotically, and with unit weights all of them collapse to
    the classical chi-square p-value.  Falls back to the classical reference
    if the linear algebra degenerates.  ``design`` is the alternative's;
    the tested block is its columns after the null's, which must lead them.
    """
    df = _nested_df(null_fit, alt_fit)
    p0 = len(null_fit.column_names)
    y = np.asarray(outcome, dtype=float)
    w = np.asarray(weights, dtype=float)
    x = design.values
    mu = alt_fit.predict(design)
    fallback = chisq_sf(two_rho, df)
    try:
        a_mat = x.T @ (x * (w * mu * (1.0 - mu))[:, None])
        scores = (w * (y - mu))[:, None] * x
        b_emp = scores.T @ scores
        b_rb = x.T @ (x * (w ** 2 * mu * (1.0 - mu))[:, None])
        schur = a_mat[p0:, p0:] - a_mat[p0:, :p0] @ np.linalg.solve(
            a_mat[:p0, :p0], a_mat[:p0, p0:])
        pvals = []
        for b_mat in (b_emp, b_rb):
            sandwich = np.linalg.solve(a_mat, np.linalg.solve(a_mat, b_mat).T).T
            lam = np.linalg.eigvals(schur @ sandwich[p0:, p0:]).real
            lam = lam[lam > 1e-12]
            if lam.size == 0:
                continue
            mean, sumsq = lam.sum(), float(np.sum(lam ** 2))
            pvals.append(chisq_sf(two_rho * mean / sumsq, mean * mean / sumsq))
            pvals.append(chisq_sf(two_rho / float(lam.max()), df))
        if not pvals:
            return fallback
        return max(pvals + [fallback])
    except np.linalg.LinAlgError:
        return fallback


def step_test(data: ObservedDataset, step: CascadeStep):
    """(rho, 2*rho, df, p_value) of a cascade step with the robust
    reference distribution, from its fits and the design they ran on."""
    rho, two_rho, df = weighted_lr_stat(step.null_fit, step.alt_fit)
    p = robust_lr_pvalue(max(two_rho, 0.0), step.null_fit, step.alt_fit,
                         step.design, data.r[step.mask, step.k], step.weights)
    return rho, two_rho, df, p


# ---------------------------------------------------------------------------
# Odds-ratio estimator (block-parallel route)
# ---------------------------------------------------------------------------

def _row_patterns(data: ObservedDataset):
    """Distinct (R, zero-imputed X*) rows of ``data``.

    Returns (pattern id of every row, indicator rows, proxy rows, counts),
    the last three one entry per pattern.  Columns are factorised one at a
    time and the running ids re-factorised after each, so ids stay below n
    and no float row sort is needed.
    """
    xz = np.nan_to_num(data.xstar, nan=0.0)
    ids = np.zeros(data.n, dtype=np.intp)
    for col in itertools.chain(data.r.T, xz.T):
        values, codes = np.unique(col, return_inverse=True)
        _, ids = np.unique(ids * values.size + codes, return_inverse=True)
    counts = np.bincount(ids)
    first = np.empty(counts.size, dtype=np.intp)
    first[ids] = np.arange(data.n)
    return ids, data.r[first], xz[first], counts.astype(float)


def _numerator_cell(r, k, j):
    """Rows with every indicator but k and j observed and both k, j missing."""
    others = [i for i in range(r.shape[1]) if i not in (k, j)]
    return np.all(r[:, others] == 1, axis=1) & (r[:, k] == 0) & (r[:, j] == 0)


class _PairEquation:
    """Estimating equation of OR(R_k=0, R_j=0 | X_{-kj}, R_{-kj}=1) on fixed
    distinct rows ``r``, ``xz``, evaluated for a matrix of their counts.

    ``xz`` is the zero-imputed proxy matrix; rows entering each propensity
    fit have the needed variables observed, so the imputation never leaks in.
    What depends only on the rows -- the row subsets, both propensity
    designs and their complete-case designs -- is built once; a bootstrap
    resample changes only the counts, which enter the fits as frequency
    weights, and every row of counts is fit in one batched Newton solve.  A
    row with a zero count stays in each fit at weight 0: on continuous data
    about a third of the rows are absent from a resample, yet gathering the
    present rows for every fit measured slower than carrying them.
    """

    def __init__(self, r, xz, names, k, j):
        K = r.shape[1]
        self.names = names
        # Row subsets are index arrays: np.take of columns is the cheapest
        # gather from a matrix of counts.
        self.complete = np.flatnonzero(np.all(r == 1, axis=1))
        self.numerator = _numerator_cell(r, k, j)
        self.targets = []
        for target in (k, j):
            rest = [i for i in range(K) if i != target]
            cond = np.flatnonzero(np.all(r[:, rest] == 1, axis=1))
            columns = ("intercept",) + tuple(f"X[{names[i]}]" for i in rest)
            design = DesignMatrix(
                columns, np.column_stack([np.ones(cond.size), xz[cond][:, rest]]))
            cc_x = np.column_stack([np.ones(self.complete.size),
                                    xz[self.complete][:, rest]])
            self.targets.append((target, cond, r[cond, target], design, cc_x))

    def theta(self, counts, warm=None):
        """(theta, failure, coefficients) of every row of the counts
        ``counts`` (B, m).  ``failure[b]`` is None or (reason, message), the
        first of: no variation in k, k's fit, no variation in j, j's fit;
        theta[b] is then NaN.  ``coefficients`` maps each target to its
        (B, p) fits.  Bootstrap refits warm start from the point-estimate
        coefficients ``warm`` at a looser tolerance."""
        failure = [None] * counts.shape[0]
        ratio = np.take(counts, self.complete, axis=1)
        coefs = {}
        for target, cond, y, design, cc_x in self.targets:
            w = np.take(counts, cond, axis=1)
            name = self.names[target]
            tol = None if warm is None else 1e-5 * np.maximum(1.0, w.sum(axis=1))
            fit = fit_weighted_logistic_batch(
                design, y, w, start=None if warm is None else warm[target], tol=tol)
            for b in np.flatnonzero(~fit.converged):
                # A one-class outcome is exactly a resample without variation.
                if failure[b] is None:
                    failure[b] = (
                        (NO_VARIATION, f"no variation in {name} among rows with "
                                       "all other indicators observed")
                        if fit.messages[b] == DEGENERATE else
                        (NOT_CONVERGED, f"propensity fit for {name} failed: "
                                        f"{fit.messages[b]}"))
            coefs[target] = fit.coefficients
            p = np.clip(expit(fit.coefficients @ cc_x.T),
                        PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
            ratio *= (1.0 - p) / p
        # The clipped odds factors are positive, and a resample without a
        # complete case has no variation in target k, so every denominator
        # left is positive.
        n = counts.sum(axis=1)
        den = ratio.sum(axis=1) / n
        ok = np.array([f is None for f in failure], dtype=bool)
        theta = np.full(counts.shape[0], np.nan)
        theta[ok] = ((counts @ self.numerator)[ok] / n[ok]) / den[ok]
        return theta, failure, coefs

    def point_estimate(self, counts):
        """(theta, coefficient per target) at the counts vector ``counts``;
        raises the failure of the estimating equation."""
        theta, failure, coefs = self.theta(counts[None, :])
        if failure[0] is not None:
            raise EstimationError(failure[0][1])
        return float(theta[0]), {t: c[0] for t, c in coefs.items()}


def _pairwise_theta(data: ObservedDataset, k, j):
    """Point estimate of the pairwise conditional odds ratio."""
    _, r, xz, counts = _row_patterns(data)
    return _PairEquation(r, xz, data.names, k, j).point_estimate(counts)[0]


def check_n_bootstrap(n_bootstrap):
    """A percentile CI needs max(MIN_BOOTSTRAP, B // 2) usable resamples, so
    fewer than MIN_BOOTSTRAP resamples can never give one."""
    if n_bootstrap < MIN_BOOTSTRAP:
        raise ValueError(
            f"n_bootstrap must be at least {MIN_BOOTSTRAP}, got {n_bootstrap}")


def check_pair(pair, K):
    """A block-parallel pair is two distinct indices of the K variables."""
    k, j = pair
    if k == j or not (0 <= k < K and 0 <= j < K):
        raise ValueError(f"pair must be two distinct indices in 0..{K - 1}, got {pair}")


def estimate_odds_ratio(data: ObservedDataset, pair, alpha=0.05,
                        n_bootstrap=200, rng=None) -> OddsRatioEstimate:
    """Point estimate and percentile-bootstrap CI of the pairwise conditional
    odds ratio between two missingness indicators.

    The estimating equation sees a row only through its (R, X*) pattern, so
    the data are compressed once to distinct rows with counts.  Each
    resample draws n row indices and is applied as the counts of their
    patterns: the random stream and the estimate are those of refitting on
    the drawn rows, at the cost of fitting on the distinct rows only.  The
    resamples' counts fill the rows of a matrix of at most
    BOOTSTRAP_CHUNK_CELLS cells, whose fits run as one batch.

    An empty numerator cell (no rows with R_k = R_j = 0 and every other
    indicator observed) raises: the estimate would be 0 with a degenerate
    CI (0, 0), which says nothing about the odds ratio.
    """
    check_n_bootstrap(n_bootstrap)
    check_pair(pair, data.K)
    k, j = pair
    if rng is None:
        rng = np.random.default_rng(0)
    ids, r, xz, counts = _row_patterns(data)
    equation = _PairEquation(r, xz, data.names, k, j)
    numerator_cell = int(counts @ equation.numerator)
    if numerator_cell == 0:
        raise EstimationError(
            f"empty numerator cell: no rows with {data.names[k]} and "
            f"{data.names[j]} both missing and every other variable observed")
    theta, coefs = equation.point_estimate(counts)
    draws = []
    failed = dict.fromkeys(FAILURE_REASONS, 0)
    chunk = max(1, BOOTSTRAP_CHUNK_CELLS // counts.size)
    for first in range(0, n_bootstrap, chunk):
        resamples = np.empty((min(chunk, n_bootstrap - first), counts.size))
        for row in resamples:
            rows = rng.integers(0, data.n, size=data.n)
            row[:] = np.bincount(ids[rows], minlength=counts.size)
        thetas, failure, _ = equation.theta(resamples, warm=coefs)
        draws.extend(thetas[~np.isnan(thetas)])
        for f in failure:
            if f is not None:
                failed[f[0]] += 1
    if len(draws) < max(MIN_BOOTSTRAP, n_bootstrap // 2):
        raise EstimationError(
            f"bootstrap collapsed: only {len(draws)}/{n_bootstrap} resamples usable")
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    return OddsRatioEstimate(theta, (k, j), (float(lo), float(hi)),
                             n_bootstrap, alpha, sum(failed.values()),
                             counts.size, numerator_cell, failed)


# ---------------------------------------------------------------------------
# Population-level evaluation on enumerated discrete laws
# ---------------------------------------------------------------------------

def enumerate_binary_states(K):
    return list(itertools.product((0, 1), repeat=K))


def population_odds_ratio(law, K, pair):
    """Evaluate the odds-ratio estimating equation with expectations under an
    enumerated full law ``law``: mapping (r_tuple, x_tuple) -> probability.

    The conditional propensities p(R_t = 1 | R_{-t} = 1, X_{-t}) are computed
    exactly from the law, so this is the n -> infinity limit of
    :func:`estimate_odds_ratio`'s point estimate.
    """
    k, j = pair
    others = [i for i in range(K) if i not in (k, j)]
    states = enumerate_binary_states(K)

    def propensity(target, x):
        rest = [i for i in range(K) if i != target]
        num = den = 0.0
        for r in states:
            if any(r[i] != 1 for i in rest):
                continue
            for xs in states:
                if any(xs[i] != x[i] for i in rest):
                    continue
                p = law.get((r, xs), 0.0)
                den += p
                if r[target] == 1:
                    num += p
        if den == 0:
            raise EstimationError("conditioning event has zero probability")
        return num / den

    num = den = 0.0
    for (r, x), p in law.items():
        if all(r[i] == 1 for i in others) and r[k] == 0 and r[j] == 0:
            num += p
        if all(ri == 1 for ri in r):
            wk = propensity(k, x)
            wj = propensity(j, x)
            den += p * (1.0 - wk) * (1.0 - wj) / (wk * wj)
    if den == 0:
        raise EstimationError("zero denominator in population estimating equation")
    return num / den
