"""Estimation primitives shared by all three goodness-of-fit procedures.

Propensity models are logistic in the features produced by
:func:`build_features`: past indicators enter as main effects, past proxies
as indicator-times-proxy products (zero-imputed, which is exact since the
product vanishes where the proxy is missing), and future counterfactual
variables as raw columns with the row mask restricted to where they are
observed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import ObservedDataset
from .graph import MDag, detect_structures
from .numerics import (DesignMatrix, PropensityFit, chisq_sf,
                       fit_weighted_logistic)

PROPENSITY_CLIP = 1e-6


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureSpec:
    """Which blocks of regressors enter a propensity model.

    indicators      -> R_j columns
    proxy_products  -> R_j * X*_j columns (zero-imputed)
    counterfactuals -> raw X_j columns; the row mask drops rows with R_j = 0
    """

    indicators: tuple = ()
    proxy_products: tuple = ()
    counterfactuals: tuple = ()

    def with_proxy_products(self, js):
        return FeatureSpec(self.indicators, tuple(js), self.counterfactuals)


def build_features(data: ObservedDataset, spec: FeatureSpec):
    """Assemble (DesignMatrix, row mask) for one propensity model."""
    n = data.n
    cols = [np.ones(n)]
    names = ["intercept"]
    for j in spec.indicators:
        cols.append(data.r[:, j].astype(float))
        names.append(f"R[{data.names[j]}]")
    for j in spec.proxy_products:
        cols.append(data.r[:, j] * data.column(j))
        names.append(f"R*Xs[{data.names[j]}]")
    mask = np.ones(n, dtype=bool)
    for j in spec.counterfactuals:
        mask &= data.r[:, j] == 1
        cols.append(data.column(j))
        names.append(f"X[{data.names[j]}]")
    if not mask.any():
        raise EstimationError(
            "no rows left after restricting to observed counterfactual columns")
    return DesignMatrix(tuple(names), np.column_stack(cols)), mask


def _masked_features(data: ObservedDataset, spec: FeatureSpec):
    """(design restricted to the rows of its mask, mask).  The full-row
    design is dropped at once: a cascade keeps every step's masked designs
    for its test, and holding both would raise its peak memory."""
    design, mask = build_features(data, spec)
    return DesignMatrix(design.names, design.values[mask]), mask


@dataclass(frozen=True)
class CascadeStep:
    k: int                      # 0-based index into the ordering
    null_fit: PropensityFit
    alt_fit: PropensityFit | None
    null_design: DesignMatrix | None  # designs the likelihood-ratio fits ran
    alt_design: DesignMatrix | None   # on, masked rows; None with no alt_fit
    weights: np.ndarray         # inverse-propensity weights on masked rows
    mask: np.ndarray
    clip_events: int = 0


@dataclass(frozen=True)
class PropensityCascade:
    order: tuple
    steps: tuple  # CascadeStep, in fitting order


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

    @property
    def ci_excludes_one(self):
        lo, hi = self.bootstrap_ci
        return not (lo <= 1.0 <= hi)


def _clipped_probs(fit: PropensityFit, design: DesignMatrix):
    return np.maximum(fit.predict(design), PROPENSITY_CLIP)


def fit_cascade_mar(data: ObservedDataset, order) -> PropensityCascade:
    """Backward cascade for the sequential-MAR test.

    The last index gets only a null fit (there is nothing after it to test
    against); each earlier index gets the observed-data null and the
    inverse-weighted alternative, with weights built from the already-fitted
    full-sample nulls of all later indices.

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
    data = data.reorder(order)
    K = data.K
    null_probs = {}
    steps = []
    for k in range(K - 1, -1, -1):
        null_spec = FeatureSpec(indicators=tuple(range(k)),
                                proxy_products=tuple(range(k)))
        design, _ = build_features(data, null_spec)
        fit = fit_weighted_logistic(design, data.r[:, k])
        fully_observed = np.all(data.r[:, k] == 1)
        if fully_observed:
            # Its restriction is vacuous and its propensity is identically
            # one (no contribution to any weight).
            null_probs[k] = np.ones(data.n)
        elif not fit.converged:
            raise EstimationError(
                f"null propensity fit for {order[k]} failed: {fit.message}")
        else:
            null_probs[k] = _clipped_probs(fit, design)
        if fully_observed or k == K - 1:
            # Nothing to test: a vacuous restriction, or no later index.
            steps.append(CascadeStep(k, fit, None, None, None,
                                     np.ones(data.n), np.ones(data.n, dtype=bool)))
            continue

        alt_spec = FeatureSpec(indicators=tuple(range(k)),
                               proxy_products=tuple(range(k)),
                               counterfactuals=tuple(range(k + 1, K)))
        masked_alt, mask = _masked_features(data, alt_spec)
        weights = np.ones(data.n)
        clip_events = 0
        for j in range(k + 1, K):
            clipped = np.sum(null_probs[j][mask] <= PROPENSITY_CLIP)
            clip_events += int(clipped)
            weights /= null_probs[j]
        stab_fit = fit_weighted_logistic(design, mask.astype(np.int8))
        if stab_fit.converged:
            weights *= stab_fit.predict(design)
        weights = weights[mask]
        masked_null = DesignMatrix(design.names, design.values[mask])
        null_masked_fit = fit_weighted_logistic(masked_null, data.r[mask, k], weights)
        alt_fit = fit_weighted_logistic(masked_alt, data.r[mask, k], weights)
        if not null_masked_fit.converged or not alt_fit.converged:
            bad = null_masked_fit if not null_masked_fit.converged else alt_fit
            raise EstimationError(
                f"propensity fit for {order[k]} failed: {bad.message}")
        steps.append(CascadeStep(k, null_masked_fit, alt_fit, masked_null, masked_alt,
                                 weights, mask, clip_events))
    return PropensityCascade(tuple(order), tuple(steps))


def fit_cascade_mnar(data: ObservedDataset, order, graph: MDag | None = None) -> PropensityCascade:
    """Backward cascade for the sequential-MNAR test (indices K .. 2).

    Both the null (past indicators + future counterfactuals) and the
    alternative (plus past proxies) are fit under the running weights; the
    weights are rebuilt from the accepted nulls after each step.  Refuses to
    run when a declared graph contains a colluder or criss-cross, since the
    needed propensities are then not identified.
    """
    if graph is not None:
        report = detect_structures(graph)
        if report.colluders or report.criss_crosses:
            raise EstimationError(
                f"declared graph blocks identification of the cascade: {report}")
    data = data.reorder(order)
    K = data.K
    omega = np.ones(data.n)  # running I(R_succ = 1) / prod of accepted nulls
    clipped = np.zeros(data.n, dtype=int)  # clipped propensities in omega
    steps = []
    for k in range(K - 1, 0, -1):
        if np.all(data.r[:, k] == 1):
            continue  # fully observed: vacuous restriction, weights unchanged
        null_spec = FeatureSpec(indicators=tuple(range(k)),
                                counterfactuals=tuple(range(k + 1, K)))
        alt_spec = null_spec.with_proxy_products(tuple(range(k)))
        masked_null, mask = _masked_features(data, null_spec)
        masked_alt, alt_mask = _masked_features(data, alt_spec)
        assert np.array_equal(mask, alt_mask)
        if not np.any(omega[mask] > 0):
            raise EstimationError(f"all weights vanished before index {order[k]}")

        # The likelihood-ratio fits use stabilized weights: omega times the
        # fitted mask probability given the past indicators (the only null
        # features available on every row).  See fit_cascade_mar.
        w = omega.copy()
        stab_design, _ = build_features(
            data, FeatureSpec(indicators=tuple(range(k))))
        stab_fit = fit_weighted_logistic(stab_design, mask.astype(np.int8))
        if stab_fit.converged:
            w *= stab_fit.predict(stab_design)
        w = w[mask]
        null_fit = fit_weighted_logistic(masked_null, data.r[mask, k], w)
        alt_fit = fit_weighted_logistic(masked_alt, data.r[mask, k], w)
        if not null_fit.converged or not alt_fit.converged:
            bad = null_fit if not null_fit.converged else alt_fit
            raise EstimationError(
                f"propensity fit for {order[k]} failed: {bad.message}")
        steps.append(CascadeStep(k, null_fit, alt_fit, masked_null, masked_alt,
                                 w, mask, int(clipped[mask].sum())))

        # Weight update from the accepted null, fit under the raw running
        # weights: divide by its fitted propensity and zero out rows where
        # R_k = 0.
        update_fit = fit_weighted_logistic(masked_null, data.r[mask, k],
                                           omega[mask])
        if not update_fit.converged:
            raise EstimationError(
                f"weight-update fit for {order[k]} failed: {update_fit.message}")
        p_full = np.ones(data.n)  # rows off the mask get zero weight below
        p_full[mask] = _clipped_probs(update_fit, masked_null)
        clipped += p_full <= PROPENSITY_CLIP
        omega = np.where((data.r[:, k] == 1) & mask, omega / p_full, 0.0)
    return PropensityCascade(tuple(order), tuple(steps))


def weighted_lr_stat(null_fit: PropensityFit, null_design: DesignMatrix,
                     alt_fit: PropensityFit, alt_design: DesignMatrix,
                     outcome, weights):
    """Inverse-weighted log-likelihood-ratio statistic over the masked rows.

    Returns (rho, 2*rho, df) with df the column-count difference between the
    alternative and the null.
    """
    if not (null_fit.converged and alt_fit.converged):
        raise EstimationError("both fits must have converged")
    df = alt_design.p - null_design.p
    if df <= 0:
        raise EstimationError("alternative must strictly nest the null")
    w = np.asarray(weights, dtype=float)
    log_alt = alt_fit.log_density(alt_design, outcome)
    log_null = null_fit.log_density(null_design, outcome)
    rho = float(np.sum(w * (log_alt - log_null)))
    return rho, 2.0 * rho, df


def robust_lr_pvalue(two_rho, null_design: DesignMatrix,
                     alt_design: DesignMatrix, alt_fit: PropensityFit,
                     outcome, weights):
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
    if the linear algebra degenerates.
    """
    y = np.asarray(outcome, dtype=float)
    w = np.asarray(weights, dtype=float)
    df = alt_design.p - null_design.p
    if df <= 0:
        raise EstimationError("alternative must strictly nest the null")
    x = alt_design.values
    mu = alt_fit.predict(alt_design)
    fallback = chisq_sf(two_rho, df)
    try:
        a_mat = x.T @ (x * (w * mu * (1.0 - mu))[:, None])
        scores = (w * (y - mu))[:, None] * x
        b_emp = scores.T @ scores
        b_rb = x.T @ (x * (w ** 2 * mu * (1.0 - mu))[:, None])
        null_idx = [alt_design.names.index(nm) for nm in null_design.names]
        perm = null_idx + [i for i in range(alt_design.p) if i not in null_idx]
        p0 = len(null_idx)
        ap = a_mat[np.ix_(perm, perm)]
        schur = ap[p0:, p0:] - ap[p0:, :p0] @ np.linalg.solve(
            ap[:p0, :p0], ap[:p0, p0:])
        pvals = []
        for b_mat in (b_emp, b_rb):
            bp = b_mat[np.ix_(perm, perm)]
            sandwich = np.linalg.solve(ap, np.linalg.solve(ap, bp).T).T
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
    reference distribution, on the masked designs its fits ran on."""
    nd, ad = step.null_design, step.alt_design
    y = data.r[step.mask, step.k]
    rho, two_rho, df = weighted_lr_stat(step.null_fit, nd, step.alt_fit, ad,
                                        y, step.weights)
    p = robust_lr_pvalue(max(two_rho, 0.0), nd, ad, step.alt_fit, y, step.weights)
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
    distinct rows ``r``, ``xz``, evaluated for any vector of their counts.

    ``xz`` is the zero-imputed proxy matrix; rows entering each propensity
    fit have the needed variables observed, so the imputation never leaks in.
    What depends only on the rows -- the row masks, both propensity designs
    and their complete-case designs -- is built once; a bootstrap resample
    changes only the counts, which enter the fits as frequency weights.  A
    row with a zero count stays in each fit at weight 0: on continuous data
    about a third of the rows are absent from a resample, yet gathering the
    present rows for every fit measured slower than carrying them.
    """

    def __init__(self, r, xz, names, k, j):
        K = r.shape[1]
        self.names = names
        self.complete = np.all(r == 1, axis=1)
        self.numerator = _numerator_cell(r, k, j)
        self.targets = []
        for target in (k, j):
            rest = [i for i in range(K) if i != target]
            cond = np.all(r[:, rest] == 1, axis=1)
            columns = ("intercept",) + tuple(f"X[{names[i]}]" for i in rest)
            design = DesignMatrix(
                columns, np.column_stack([np.ones(int(cond.sum())), xz[cond][:, rest]]))
            cc_design = DesignMatrix(
                columns, np.column_stack([np.ones(int(self.complete.sum())),
                                          xz[self.complete][:, rest]]))
            self.targets.append((target, cond, r[cond, target], design, cc_design))

    def theta(self, counts, warm=None):
        """(theta, fitted coefficient dict) at row multiplicities ``counts``;
        bootstrap refits warm start from the point-estimate coefficients."""
        n = float(counts.sum())
        ratio = counts[self.complete]
        coefs = {}
        for target, cond, y, design, cc_design in self.targets:
            w = counts[cond]
            seen = y[w > 0]
            if seen.size == 0 or seen.min() == seen.max():
                raise EstimationError(
                    f"no variation in {self.names[target]} among rows with all "
                    "other indicators observed")
            fit = fit_weighted_logistic(
                design, y, w, start=None if warm is None else warm[target],
                tol=None if warm is None else 1e-5 * max(1.0, float(w.sum())))
            if not fit.converged:
                raise EstimationError(
                    f"propensity fit for {self.names[target]} failed: {fit.message}")
            coefs[target] = fit.coefficients
            p = np.clip(fit.predict(cc_design), PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
            ratio *= (1.0 - p) / p
        den = float(ratio.sum()) / n
        if den <= 0:
            raise EstimationError("zero denominator: no complete cases contribute")
        num = float(counts @ self.numerator) / n
        return num / den, coefs


def _pairwise_theta(data: ObservedDataset, k, j):
    """Point estimate of the pairwise conditional odds ratio."""
    _, r, xz, counts = _row_patterns(data)
    theta, _ = _PairEquation(r, xz, data.names, k, j).theta(counts)
    return theta


def estimate_odds_ratio(data: ObservedDataset, pair, alpha=0.05,
                        n_bootstrap=200, rng=None) -> OddsRatioEstimate:
    """Point estimate and percentile-bootstrap CI of the pairwise conditional
    odds ratio between two missingness indicators.

    The estimating equation sees a row only through its (R, X*) pattern, so
    the data are compressed once to distinct rows with counts.  Each
    resample draws n row indices and is applied as the counts of their
    patterns: the random stream and the estimate are those of refitting on
    the drawn rows, at the cost of fitting on the distinct rows only.

    An empty numerator cell (no rows with R_k = R_j = 0 and every other
    indicator observed) raises: the estimate would be 0 with a degenerate
    CI (0, 0), which says nothing about the odds ratio.
    """
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
    theta, coefs = equation.theta(counts)
    draws = []
    failed = 0
    for _ in range(n_bootstrap):
        rows = rng.integers(0, data.n, size=data.n)
        resample = np.bincount(ids[rows], minlength=counts.size).astype(float)
        try:
            draw, _ = equation.theta(resample, warm=coefs)
            draws.append(draw)
        except EstimationError:
            failed += 1
    if len(draws) < max(10, n_bootstrap // 2):
        raise EstimationError(
            f"bootstrap collapsed: only {len(draws)}/{n_bootstrap} resamples usable")
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    return OddsRatioEstimate(theta, (k, j), (float(lo), float(hi)),
                             n_bootstrap, alpha, failed, counts.size,
                             numerator_cell)


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
