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

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .data import ObservedDataset, permutation_defects
from .graph import GraphError, MDag, identification_blockers
from .numerics import (DEGENERATE, DesignMatrix, PropensityFit, chisq_sf,
                       fit_weighted_logistic, fit_weighted_logistic_batch,
                       gram_sum)

PROPENSITY_CLIP = 1e-6
# A step's alternative starts from its null's coefficients, the tested block
# at zero, unless a null coefficient exceeds this.  Such a null lies on a
# likelihood ridge: from there the alternative would follow the ridge a few
# units further than from zeros, across the separation bound.  The bound
# guards against the ridge itself, not against rounding: with 1 - mu
# computed without cancellation, as many more fits separate without it.
WARM_START_BOUND = 8.0
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
    """A quantity the data cannot give.  Raised by a cascade, it names in
    ``index`` the variable whose step (its fits or its test), full-sample
    null or weight-update fit failed."""
    index = None


@contextmanager
def _at_index(k):
    """Name cascade index ``k`` on an EstimationError raised inside."""
    try:
        yield
    except EstimationError as exc:
        exc.index = k
        raise


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
    values = np.zeros((data.n, 1 + k + len(proxies)), order="F")
    values[:, 0] = 1.0
    values[:, 1:k + 1] = data.r[:, :k]
    for column, j in zip(values.T[k + 1:], proxies):
        np.copyto(column, data.xstar[:, j], where=data.r[:, j] == 1)
    names = (("intercept",) + tuple(f"R[{data.names[j]}]" for j in range(k))
             + tuple(f"R*Xs[{data.names[j]}]" if j < k else f"X[{data.names[j]}]"
                     for j in proxies))
    return DesignMatrix(names, values), mask


def _leading(design: DesignMatrix, p, rows=None):
    """The first ``p`` columns of ``design``, on the rows where the boolean
    mask ``rows`` is True (by default on every row).  A column-major design
    gives column-major columns: a view on every row, and on masked rows one
    copy, gathered column by column."""
    values = design.values[:, :p]
    if rows is not None:
        values = values.T.compress(rows, axis=1).T
    return DesignMatrix(design.names[:p], values)


@dataclass(frozen=True)
class CascadeStep:
    k: int                      # 0-based index into the ordering
    null_fit: PropensityFit     # the likelihood-ratio fits under weights: the
    alt_fit: PropensityFit      # null's columns lead, its fitted None unless read
    design: DesignMatrix        # the alternative's, on the masked rows
    weights: np.ndarray         # the fits' weights on masked rows: each
                                # row's inverse-propensity weight x count
    counts: np.ndarray          # rows each masked row stands for
    mask: np.ndarray
    clip_events: int            # clipped propensities in the weights, per row
    stabilized: bool            # see _fit_step
    statistic: float            # 2 rho, twice the fits' loglik difference
    df: int                     # columns of the tested block
    p_value: float              # see robust_lr_pvalue


@dataclass(frozen=True)
class OddsRatioEstimate:
    theta_hat: float
    bootstrap_ci: tuple
    n_bootstrap: int
    n_patterns: int             # distinct (R, X*) rows the fits ran on
    numerator_cell: int         # rows with R_{-kj} = 1 and R_k = R_j = 0
    failed_by_reason: dict      # resamples without an estimate, per FAILURE_REASONS

    @property
    def n_failed_resamples(self):
        return sum(self.failed_by_reason.values())

    @property
    def ci_excludes_one(self):
        lo, hi = self.bootstrap_ci
        return not (lo <= 1.0 <= hi)


def _converged(fit: PropensityFit, what):
    """``fit``, unless it did not converge: then an EstimationError that
    names ``what`` and the fit's message."""
    if not fit.converged:
        raise EstimationError(f"{what} failed: {fit.message}")
    return fit


def _divide_weights(weights, clipped, fit: PropensityFit, rows=slice(None)):
    """Divide the running ``weights`` on ``rows``, the rows ``fit`` ran on,
    by its fitted propensities, clipped below at PROPENSITY_CLIP, and add
    each row's clipped propensity to its count in ``clipped``."""
    probs = np.maximum(fit.fitted, PROPENSITY_CLIP)
    weights[rows] /= probs
    clipped[rows] += probs <= PROPENSITY_CLIP


def _fit_step(data: ObservedDataset, k, null_proxies, tested_proxies,
              weights, clipped, counts, reads_null=False):
    """Tested cascade step ``k``.

    The stabilizer, the fitted probability of the row mask, multiplies the
    masked ``weights`` unless its fit did not converge; it is fit on the
    design's columns that no row mask restricts -- the intercept, R_j for
    j < k and the null proxies j < k, which lead the null block -- and only
    when the mask drops rows.  Row i stands for ``counts[i]`` rows: the
    stabilizer weights it by its count, and ``weights[i]``, the masked
    fits' weight, is its inverse-propensity weight times its count.
    ``clipped`` counts the clipped propensities in each row's weights.  The
    masked null is the leading columns: intercept, R_j for j < k,
    ``null_proxies``.  The alternative starts from the null (see
    WARM_START_BOUND).  The step is tested as it is fit: 2 rho is twice
    the difference of the fits' weighted log-likelihoods, which the Newton
    solve returned, and its p-value is :func:`robust_lr_pvalue`'s.  Only
    if ``reads_null`` and the fits ran under the raw weights (the caller's
    weight update is then the null) does the null keep its fitted values.
    """
    design, mask = build_features(data, k, null_proxies, tested_proxies)
    w = weights[mask]
    every = stabilized = bool(mask.all())  # a mask keeping every row has probability 1
    if not every:
        stab = fit_weighted_logistic(
            _leading(design, 1 + k + sum(j < k for j in null_proxies)),
            mask.astype(np.int8), counts)
        stabilized = stab.converged
        if stabilized:
            w *= stab.fitted[mask]
        del stab  # its n fitted values need not outlive the product
    masked = design if every else _leading(design, design.p, mask)
    # The step keeps its masked design; holding the full-row design
    # through the masked fits and the test as well would raise peak memory.
    del design
    y = data.r[mask, k]
    what = f"propensity fit for {data.names[k]}"
    p0 = 1 + k + len(null_proxies)
    null_fit = _converged(fit_weighted_logistic(_leading(masked, p0), y, w), what)
    if not (reads_null and (every or not stabilized)):
        null_fit = replace(null_fit, fitted=None)
    start = None
    if np.abs(null_fit.coefficients).max() <= WARM_START_BOUND:
        start = np.pad(null_fit.coefficients, (0, masked.p - p0))
    alt_fit = _converged(fit_weighted_logistic(masked, y, w, start=start), what)
    counts = counts[mask]
    two_rho = 2.0 * (alt_fit.weighted_loglik - null_fit.weighted_loglik)
    p = robust_lr_pvalue(max(two_rho, 0.0), p0, alt_fit, masked, y, w, counts)
    return CascadeStep(k, null_fit, alt_fit, masked, w, counts, mask,
                       int(clipped[mask] @ counts), stabilized,
                       two_rho, masked.p - p0, p)


def mar_steps(data: ObservedDataset, counts=None):
    """The tested steps of the sequential-MAR cascade of ``data``'s columns
    in their order, backward, each fit when the caller asks for it.  Row i
    of ``data`` stands for ``counts[i]`` rows (by default, for itself).

    Each index but the last is tested: the observed-data null against the
    inverse-weighted alternative, with weights built from the already-fitted
    full-sample nulls of all later indices.  The null is the earlier
    indicators and proxies; the alternative adds the later proxies.  The
    last index has nothing after it to test against, and a fully observed
    index has a vacuous restriction and a propensity identically one:
    neither is a step.  An index's full-sample null is fit only when a step
    before it will read it, and only once its own step (if it has one) is
    accepted.

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
    counts = np.ones(data.n) if counts is None else counts
    partial = [k for k in range(K) if not np.all(data.r[:, k] == 1)]
    weights = counts.copy()  # count / prod of the later full-sample nulls
    clipped = np.zeros(data.n, dtype=np.int32)  # clipped propensities in weights
    for k in reversed(partial):
        with _at_index(k):
            if k < K - 1:
                yield _fit_step(data, k, range(k), range(k + 1, K),
                                weights, clipped, counts)
            if k > partial[0]:
                # The full-sample null: R_k given the earlier indicators and
                # proxies, each row weighted by its count alone.  Neither its
                # design nor its fit outlives the division.
                _divide_weights(weights, clipped, _converged(
                    fit_weighted_logistic(build_features(data, k, range(k), ())[0],
                                          data.r[:, k], counts),
                    f"null propensity fit for {data.names[k]}"))


def mnar_steps(data: ObservedDataset, graph: MDag | None, counts=None):
    """The tested steps of the sequential-MNAR cascade (indices K .. 2) of
    ``data``'s columns in their order, each fit when the caller asks for it.
    Row i of ``data`` stands for ``counts[i]`` rows (by default, for itself).

    Both the null (past indicators + future counterfactuals) and the
    alternative (plus past proxies) are fit under the running weights; the
    weights are rebuilt from an accepted null before the next step.
    A declared graph must be over ``data``'s variables (GraphError), and
    one with a colluder or criss-cross is refused, since the needed
    propensities are then not identified.
    """
    if graph is not None:
        defects = permutation_defects(graph.substantive, data.names)
        if defects:
            raise GraphError(f"declared graph must be over the data's variables: {defects}")
        colluders, crosses = identification_blockers(graph)
        if colluders or crosses:
            raise EstimationError(
                "declared graph blocks identification of the cascade: "
                f"colluders {[list(c) for c in colluders]}, "
                f"criss-crosses {[sorted(c) for c in crosses]}")
    K = data.K
    counts = np.ones(data.n) if counts is None else counts
    tested = [k for k in range(K - 1, 0, -1) if not np.all(data.r[:, k] == 1)]
    omega = counts.copy()  # count / prod of accepted nulls, on the rows read next
    clipped = np.zeros(data.n, dtype=np.int32)  # clipped propensities in omega
    for k in tested:
        with _at_index(k):
            # The likelihood-ratio fits use stabilized weights: omega times
            # the fitted mask probability given the past indicators (the only
            # null features available on every row).  See mar_steps.
            step = _fit_step(data, k, range(k + 1, K), range(k), omega, clipped,
                             counts, reads_null=k != tested[-1])
            yield step
            if k == tested[-1]:
                return  # no later step reads the weights

            # Weight update from the accepted null, fit under the raw running
            # weights on the null's columns of the step's design: divide the
            # step's rows by its fitted propensity.  Every later step's mask
            # requires R_k = 1 and lies inside this one, so no other row is
            # read again.  Weights without a fitted stabilizer are those raw
            # weights: the null fit, fitted probabilities kept, is that fit.
            mask, update_fit = step.mask, step.null_fit
            if update_fit.fitted is None:
                null = _leading(step.design, step.design.p - step.df)
                step = update_fit = None  # the refit need not hold the step's arrays
                update_fit = fit_weighted_logistic(null, data.r[mask, k], omega[mask])
            _converged(update_fit, f"weight-update fit for {data.names[k]}")
            _divide_weights(omega, clipped, update_fit, mask)
            step = update_fit = null = None  # nor need the next step's build and fits


def robust_lr_pvalue(two_rho, p0, alt_fit: PropensityFit, design: DesignMatrix,
                     outcome, weights, counts):
    """P-value of a weighted likelihood-ratio statistic: P(chi2_df > 2rho / lam*).

    Under weighting the statistic tends to sum_i lam_i Z_i^2 <= lam_max
    chi-square(df), so 2rho / lam_max against chi-square(df) is a
    conservative test.  The lam_i are the eigenvalues of S V: V the tested
    block of the sandwich A^-1 B A^-1, S the Schur complement of the
    information A.  With T = A^-1 E, E the tested unit columns, S is the
    inverse of T's tested rows and V = Z' diag(m) Z for Z = X T and
    B = X' diag(m) X, so only df x df matrices are formed.  lam* is the
    larger lam_max of two middle factors m, from squared residuals and from
    the Bernoulli variance (with unit weights the latter's lam are all 1).
    A and both V are :func:`gram_sum` products, their rows formed block by
    block: no n x df (Z) or 2 x n (middle) array is held.
    A singular A, or lam* <= 1e-12, raises EstimationError.  ``design`` is
    the alternative's; the null is its first ``p0`` columns, and the other
    df = design.p - p0 >= 1 are tested (any other ``p0`` raises
    EstimationError).  ``weights`` are the ones both fits ran with: row i
    stands for ``counts[i]`` rows, and its weight is their common weight
    times the count, so m scales its squared score by the count, not by
    its square.
    """
    if not 0 < p0 < design.p:
        raise EstimationError("alternative must strictly nest the null")
    x, mu = design.values, alt_fit.fitted
    a_mat = gram_sum(design.n, design.p, lambda b: (
        x[b], (weights[b] * mu[b] * (1.0 - mu[b]))[None]))[0]
    try:
        t = np.linalg.solve(a_mat, np.eye(design.p)[:, p0:])

        def z_middles(b):  # a row block of Z and of both middle factors
            return x[b] @ t, np.stack(((weights[b] * (outcome[b] - mu[b])) ** 2,
                                       weights[b] ** 2 * mu[b] * (1.0 - mu[b]))) / counts[b]
        lam = max(float(np.linalg.eigvals(np.linalg.solve(t[p0:], v)).real.max())
                  for v in gram_sum(design.n, design.p - p0, z_middles))
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            f"robust p-value: singular information matrix ({exc})") from exc
    if not lam > 1e-12:
        raise EstimationError(
            f"robust p-value: largest sandwich eigenvalue {lam:.3g} is not positive")
    return chisq_sf(two_rho / lam, design.p - p0)


# ---------------------------------------------------------------------------
# Odds-ratio estimator (block-parallel route)
# ---------------------------------------------------------------------------

def _column_codes(data: ObservedDataset):
    """(base, codes) of each column of the (R, X*) rows: integer codes in
    [0, base) that order the rows as the column's values do.  An indicator
    is its own code, base 2.  A proxy column's codes are the ranks of its
    values, a missing cell ranked last; they are not computed (None) when
    the column has more than n / 2 distinct values."""
    n = data.n
    for column in data.r.T:
        yield 2, column
    for column in data.xstar.T:
        values = np.unique(column)
        yield values.size, (None if values.size > n / 2
                            else np.searchsorted(values, column))


def _row_patterns(data: ObservedDataset):
    """Distinct (R, X*) rows of ``data``.

    Returns (the patterns as a dataset, counts), one row per pattern, in
    the lexicographic order of the (R, zero-imputed X*) rows.  The column
    codes are folded into one mixed-radix code per row, ranked at the end
    or when it would overflow; a missing cell needs no imputation, since
    the indicators tell it apart.  When the distinct rows exceed n / 2,
    every row is its own pattern, with count 1: ``data`` itself.  A proxy
    column with more than n / 2 values shows it before any of its codes is
    looked up, and so does a ranking, so the columns after it are not
    read.  A partition finer than the patterns is still exact, and the
    distinct count only grows from column to column, so whether the data
    are compressed does not depend on the column order.
    """
    n = data.n
    key, size = np.zeros(n, dtype=np.int64), 1  # the rows' codes, < size
    for base, codes in _column_codes(data):
        if codes is None:
            break  # at least as many distinct rows as the column has values
        if size * base > 2 ** 62:
            distinct, key = np.unique(key, return_inverse=True)
            size = distinct.size
            if size > n / 2:
                break
        key, size = key * base + codes, size * base
    else:
        distinct, ids = np.unique(key, return_inverse=True)
        if distinct.size <= n / 2:
            first = np.empty(distinct.size, dtype=np.intp)
            first[ids] = np.arange(n)
            patterns = ObservedDataset(data.names, data.r[first], data.xstar[first])
            return patterns, np.bincount(ids, minlength=distinct.size).astype(float)
    # Counts of one as a read-only view: nothing n long is stored for them.
    return data, np.broadcast_to(1.0, n)


def _numerator_cell(r, k, j):
    """Rows with every indicator but k and j observed and both k, j missing."""
    others = [i for i in range(r.shape[1]) if i not in (k, j)]
    return np.all(r[:, others] == 1, axis=1) & (r[:, k] == 0) & (r[:, j] == 0)


class _OddsRatioEquation:
    """Estimating equations of OR(R_k=0, R_j=0 | X_{-kj}, R_{-kj}=1) for
    every pair (k, j) of the tuple ``targets``, k before j, on the fixed
    distinct rows ``patterns``, evaluated for a matrix of their counts.

    The propensity p(R_t = 1 | R_{-t} = 1, X_{-t}) depends on the target t
    alone, so each target's design, on its conditioning rows with the
    proxies zero-imputed (they are observed there), is built once and fit
    once for every pair.  A resample changes only the counts, which enter
    the fits as frequency weights; every row of counts is fit in one batched
    Newton solve per target, whose fitted probabilities on the complete rows
    give the odds factors.  A row with a zero count stays in each fit at
    weight 0: on continuous data about a third of the rows are absent from a
    resample, yet gathering the present rows for every fit measured slower
    than carrying them.
    """

    def __init__(self, patterns: ObservedDataset, targets):
        r, xz = patterns.r, np.nan_to_num(patterns.xstar, nan=0.0)
        self.names = patterns.names
        # Row subsets are index arrays: np.take of columns is the cheapest
        # gather from a matrix of counts.
        self.complete = np.flatnonzero(np.all(r == 1, axis=1))
        self.numerators = {(k, j): _numerator_cell(r, k, j)
                           for i, k in enumerate(targets) for j in targets[i + 1:]}
        self.targets = {}
        for target in targets:
            rest = [i for i in range(patterns.K) if i != target]
            cond = np.flatnonzero(np.all(r[:, rest] == 1, axis=1))
            columns = ("intercept",) + tuple(f"X[{self.names[i]}]" for i in rest)
            design = DesignMatrix(
                columns, np.column_stack([np.ones(cond.size), xz[cond][:, rest]]))
            self.targets[target] = (cond, r[cond, target], design)

    def theta(self, counts, pairs, warm=None):
        """(theta (B, P), failure, coefficients) of the P pairs ``pairs`` at
        each row b of the counts ``counts`` (B, m).  ``failure[i][b]`` is None
        or pair i's (reason, message), the first of: no variation in k, k's
        fit, no variation in j, j's fit; theta[b, i] is then NaN.
        ``coefficients`` maps each target to its (B, p) fits: bootstrap
        refits start from the point estimate's, ``warm``, at a looser tolerance."""
        complete = np.take(counts, self.complete, axis=1)
        odds, failed, coefs = {}, {}, {}
        for target in dict.fromkeys(t for pair in pairs for t in pair):
            cond, y, design = self.targets[target]
            w = np.take(counts, cond, axis=1)
            name = self.names[target]
            tol = None if warm is None else 1e-5 * np.maximum(1.0, w.sum(axis=1))
            fit = fit_weighted_logistic_batch(
                design, y, w, start=None if warm is None else warm[target][0], tol=tol)
            # A one-class outcome is exactly a resample without variation.
            failed[target] = [
                None if not message else
                (NO_VARIATION, f"no variation in {name} among rows with all "
                               "other indicators observed") if message == DEGENERATE else
                (NOT_CONVERGED, f"propensity fit for {name} failed: {message}")
                for message in fit.messages]
            coefs[target] = fit.coefficients
            # Among the conditioning rows, the complete ones are those with
            # R_target = 1.
            p = np.clip(fit.fitted.compress(y == 1, axis=1),
                        PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
            odds[target] = (1.0 - p) / p
        # The clipped odds factors are positive, and a resample without a
        # complete case has no variation in any target, so every denominator
        # left is positive.
        n = counts.sum(axis=1)
        theta = np.full((counts.shape[0], len(pairs)), np.nan)
        failure = [[fk or fj for fk, fj in zip(failed[k], failed[j])] for k, j in pairs]
        for i, (k, j) in enumerate(pairs):
            ok = np.array([f is None for f in failure[i]], dtype=bool)
            den = (complete * odds[k] * odds[j]).sum(axis=1) / n
            theta[ok, i] = ((counts @ self.numerators[k, j])[ok] / n[ok]) / den[ok]
        return theta, failure, coefs


def _resample_counts(rng, counts, n, size):
    """Pattern counts of ``size`` bootstrap resamples of the n rows that
    the distinct rows with counts ``counts`` stand for, one per matrix row.

    n uniform row draws, counted by pattern, are one Multinomial(n,
    counts / n) draw, and that is the law of every row.  When the rows
    compress (m = counts.size < n), it is drawn as such: m binomials per
    resample, not n bounded integers.  When every row is its own pattern
    (m = n, as :func:`_row_patterns` decides), the n row draws counted are
    the cheaper way to draw it: a multinomial then costs n binomials.
    """
    if counts.size < n:
        return rng.multinomial(n, counts / n, size=size).astype(float)
    resamples = np.empty((size, n))
    for row in resamples:
        row[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    return resamples


def check_alpha(alpha):
    """A test level lies strictly between 0 and 1 (NaN does not)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def check_n_bootstrap(n_bootstrap):
    """A percentile CI needs max(MIN_BOOTSTRAP, B // 2) usable resamples, so
    fewer than MIN_BOOTSTRAP resamples can never give one."""
    if not isinstance(n_bootstrap, (int, np.integer)):
        raise ValueError(f"n_bootstrap must be an integer, got {n_bootstrap!r}")
    if n_bootstrap < MIN_BOOTSTRAP:
        raise ValueError(
            f"n_bootstrap must be at least {MIN_BOOTSTRAP}, got {n_bootstrap}")


def check_pair(pair, K):
    """A block-parallel pair is two distinct integer indices of the K variables."""
    k, j = pair
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
               and 0 <= i < K for i in pair) or k == j:
        raise ValueError(f"pair must be two distinct indices in 0..{K - 1}, got {pair}")


def estimate_odds_ratio(data: ObservedDataset, pair, alpha=0.05,
                        n_bootstrap=200, rng=None) -> OddsRatioEstimate:
    """Point estimate and percentile-bootstrap CI of the pairwise conditional
    odds ratio between two missingness indicators.

    The estimating equation sees a row only through its (R, X*) pattern, so
    the data are compressed once to distinct rows with counts.  A resample
    is applied as the counts of its patterns, drawn from Multinomial(n,
    counts / n): the law of n row draws, so the estimate is that of
    refitting on drawn rows, at the cost of fitting on the distinct rows
    only.  Continuous data, every row its own pattern, still draw n rows
    (see :func:`_resample_counts`), from the rows sorted, so that the
    estimate does not depend on their order.  The resamples' counts fill
    the rows of a matrix of at most BOOTSTRAP_CHUNK_CELLS cells, whose fits
    run as one batch.

    An empty numerator cell (no rows with R_k = R_j = 0 and every other
    indicator observed) raises: the estimate would be 0 with a degenerate
    CI (0, 0), which says nothing about the odds ratio.
    """
    check_pair(pair, data.K)
    (estimate,) = _odds_ratios(data, tuple(pair), alpha, n_bootstrap,
                               np.random.default_rng(0) if rng is None else rng).values()
    if isinstance(estimate, EstimationError):
        raise estimate
    return estimate


def _odds_ratios(data: ObservedDataset, targets, alpha, n_bootstrap, rng):
    """:func:`estimate_odds_ratio` of every pair (k, j) of the tuple
    ``targets``, k before j: a dict from each pair, in that order, to its
    OddsRatioEstimate or to the EstimationError it raises alone.  The data
    are compressed once, every pair reads one stream of resamples drawn
    from ``rng``, and each target is fit once per chunk of them."""
    check_alpha(alpha)
    check_n_bootstrap(n_bootstrap)
    patterns, counts = _row_patterns(data)
    if patterns is data:
        # Rows that are each their own pattern are put in the lexicographic
        # order of their (R, X*) rows, as compressed patterns are, so that the
        # resamples' row draws do not follow the data's row order.  Rows that
        # tie on every column are the same numbers.
        rows = np.lexsort([*data.xstar.T[::-1], *data.r.T[::-1]])
        patterns = ObservedDataset(data.names, data.r[rows], data.xstar[rows])
    equation = _OddsRatioEquation(patterns, targets)
    cells = {pair: int(counts @ cell) for pair, cell in equation.numerators.items()}
    pairs = [pair for pair, cell in cells.items() if cell]
    theta, failure, coefs = equation.theta(counts[None, :], pairs)
    point = dict(zip(pairs, theta[0]))
    errors = {pair: f[0][1] for pair, f in zip(pairs, failure) if f[0] is not None}
    live = [pair for pair in pairs if pair not in errors]
    draws, reasons = {pair: [] for pair in live}, {pair: [] for pair in live}
    chunk = max(1, BOOTSTRAP_CHUNK_CELLS // max(1, counts.size))
    for first in range(0, n_bootstrap if live else 0, chunk):
        resamples = _resample_counts(rng, counts, data.n, min(chunk, n_bootstrap - first))
        thetas, failures, _ = equation.theta(resamples, live, warm=coefs)
        for pair, column, fails in zip(live, thetas.T, failures):
            draws[pair].extend(column[~np.isnan(column)])
            reasons[pair].extend(f[0] for f in fails if f is not None)
    results = {}
    for (k, j), cell in cells.items():
        if not cell:
            results[k, j] = EstimationError(
                f"empty numerator cell: no rows with {data.names[k]} and "
                f"{data.names[j]} both missing and every other variable observed")
        elif (k, j) in errors:
            results[k, j] = EstimationError(errors[k, j])
        elif len(draws[k, j]) < max(MIN_BOOTSTRAP, n_bootstrap // 2):
            results[k, j] = EstimationError(f"bootstrap collapsed: only {len(draws[k, j])}"
                                            f"/{n_bootstrap} resamples usable")
        else:
            lo, hi = np.quantile(draws[k, j], [alpha / 2.0, 1.0 - alpha / 2.0])
            failed = {reason: reasons[k, j].count(reason) for reason in FAILURE_REASONS}
            results[k, j] = OddsRatioEstimate(float(point[k, j]), (float(lo), float(hi)),
                                              n_bootstrap, counts.size, cell, failed)
    return results


# ---------------------------------------------------------------------------
# Population-level evaluation on enumerated discrete laws
# ---------------------------------------------------------------------------

def population_odds_ratio(law, K, pair):
    """Evaluate the odds-ratio estimating equation with expectations under an
    enumerated full law ``law``: mapping (r_tuple, x_tuple) -> probability,
    the x values on any finite support.

    Each conditional propensity p(R_t = 1 | R_{-t} = 1, X_{-t}) is computed
    exactly from the law, in one pass over its cells, so this is the
    n -> infinity limit of :func:`estimate_odds_ratio`'s point estimate.  A
    complete cell of zero probability adds nothing to the expectation, so
    its propensity is never needed.
    """
    check_pair(pair, K)
    k, j = pair
    keys, probs = zip(*law.items())
    r, x = (np.array(side) for side in zip(*keys))
    p = np.array(probs, dtype=float)
    complete = np.flatnonzero(np.all(r == 1, axis=1) & (p > 0))
    ratio = p[complete]
    for target in (k, j):
        rest = [i for i in range(K) if i != target]
        _, level = np.unique(x[:, rest], axis=0, return_inverse=True)
        cond = p * np.all(r[:, rest] == 1, axis=1)
        # A complete cell is among its own level's conditioning cells, with
        # R_t = 1, so its propensity is positive.
        w = (np.bincount(level, cond * r[:, target])[level[complete]]
             / np.bincount(level, cond)[level[complete]])
        ratio *= (1.0 - w) / w
    den = ratio.sum()
    if den == 0:
        raise EstimationError("zero denominator in population estimating equation")
    return float(p @ _numerator_cell(r, k, j) / den)
