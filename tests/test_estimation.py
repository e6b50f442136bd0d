"""Estimation layer: feature building, cascades, LR statistics, odds ratios."""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdgof import estimation, numerics
from mdgof.data import ObservedDataset
from mdgof.estimation import (FAILURE_REASONS, EstimationError, build_features,
                              estimate_odds_ratio, mar_steps, mnar_steps,
                              population_odds_ratio, robust_lr_pvalue)
from mdgof.graph import MDag
from mdgof.numerics import (DesignMatrix, chisq_sf, expit,
                            fit_weighted_logistic)
from mdgof.simulate import ScenarioConfig, simulate_dataset

from oracles import (_pairwise_theta, direct_or_functional, homogeneous_or_law,
                     reference_robust_pvalue, row_gather_odds_ratio,
                     weighted_bernoulli_loglik)


def scenario_dataset(scenario, n, seed, dist="binary", K=4, rng_out=False,
                     param_range=(0.0, 2.0)):
    config = ScenarioConfig(scenario=scenario, dist=dist, K=K, n=n,
                            param_range=param_range, seed=seed)
    data, rng = simulate_dataset(config, 0)
    return (data, rng) if rng_out else data


def cascade_steps(family, data):
    """The tested steps of ``data``'s sequential-MAR or -MNAR cascade."""
    return tuple(mar_steps(data) if family == "mar" else mnar_steps(data, None))


def _two_rho(null_fit, alt_fit):
    """The likelihood-ratio statistic of two fits under the same weights on
    the same rows, as a cascade step computes it."""
    return 2.0 * (alt_fit.weighted_loglik - null_fit.weighted_loglik)


FIXTURE_R = np.array([[1, 1], [1, 0], [0, 1], [1, 1], [0, 0], [1, 1]],
                     dtype=np.int8)
FIXTURE_X = np.array([[0.5, 2.0], [1.5, np.nan], [np.nan, -1.0],
                      [-0.5, 0.0], [np.nan, np.nan], [2.5, 1.0]])
FIXTURE_X = np.where(FIXTURE_R == 1, FIXTURE_X, np.nan)


class TestBuildFeatures:
    def fixture(self):
        return ObservedDataset(("X1", "X2"), FIXTURE_R, FIXTURE_X)

    def test_intercept_only(self):
        design, mask = build_features(self.fixture(), 0, (), ())
        assert design.names == ("intercept",)
        assert np.all(design.values == 1.0)
        assert mask.all()

    def test_indicator_and_product_columns(self):
        design, mask = build_features(self.fixture(), 1, (0,), ())
        assert design.names == ("intercept", "R[X1]", "R*Xs[X1]")
        assert np.array_equal(design.values[:, 1], [1, 1, 0, 1, 0, 1])
        # The product is zero exactly where X1 is unobserved.
        assert np.array_equal(design.values[:, 2], [0.5, 1.5, 0.0, -0.5, 0.0, 2.5])
        assert mask.all()

    def test_counterfactual_mask(self):
        # The mask keeps the rows where every later proxy is observed,
        # whether it enters the null (MNAR) or the tested block (MAR).
        for null, tested in (((), (1,)), ((1,), ())):
            design, mask = build_features(self.fixture(), 0, null, tested)
            assert design.names == ("intercept", "X[X2]")
            assert np.array_equal(mask, [True, False, True, True, False, True])

    def test_null_columns_lead(self):
        data = scenario_dataset("mnar-null", 200, 0)
        design, _ = build_features(data, 2, (3,), (0, 1))
        assert design.names == ("intercept", "R[X1]", "R[X2]", "X[X4]",
                                "R*Xs[X1]", "R*Xs[X2]")
        assert design.values.flags.f_contiguous

    def test_empty_mask_rejected(self):
        r = np.array([[1, 0], [0, 0], [1, 0]], dtype=np.int8)
        x = np.where(r == 1, 1.0, np.nan)
        data = ObservedDataset(("X1", "X2"), r, x)
        with pytest.raises(EstimationError, match="no rows left"):
            build_features(data, 0, (1,), ())

    @pytest.mark.parametrize("family", ["mar", "mnar"])
    def test_cascade_fails_before_an_empty_mask(self, family):
        # X2 and X3 are never observed together, so step X1's mask is empty;
        # but step X2 sees no observed X2 on its mask (X3 observed) and its
        # fit fails first, so a cascade never reaches an empty mask.
        rng = np.random.default_rng(0)
        r = (rng.random((400, 3)) < 0.6).astype(np.int8)
        r[:, 2] &= 1 - r[:, 1]
        data = ObservedDataset(("X1", "X2", "X3"), r,
                               np.where(r == 1, rng.normal(size=r.shape), np.nan))
        with pytest.raises(EstimationError,
                           match="fit for X2 failed: degenerate outcome"):
            cascade_steps(family, data)

    @pytest.mark.parametrize("family", ["mar", "mnar"])
    def test_zero_counts_fail_as_a_degenerate_fit(self, family):
        # Rows that stand for no rows leave the first fit, MAR's full-sample
        # null of X4 or MNAR's null of X4, zero total weight: the Newton
        # solve's degenerate exit, which the cascade names.
        data = scenario_dataset(f"{family}-null", 500, 0)
        zero = np.zeros(data.n)
        steps = (mar_steps(data, zero) if family == "mar"
                 else mnar_steps(data, None, zero))
        with pytest.raises(EstimationError,
                           match="fit for X4 failed: degenerate outcome") as info:
            tuple(steps)
        assert info.value.index == 3


class TestMarCascade:
    def test_alt_coefficients_vanish_under_null(self):
        # Under the null mechanism the future-value coefficients of every
        # alternative fit are zero in population.
        data = scenario_dataset("mar-null", 40_000, 17)
        for step in mar_steps(data):
            for name, coef in zip(step.design.names, step.alt_fit.coefficients):
                if name.startswith("X["):
                    assert abs(coef) < 0.15

    def test_step_shapes(self):
        # The last index has nothing after it to test against: no step.
        data = scenario_dataset("mar-null", 4000, 3)
        steps = tuple(mar_steps(data))
        assert [s.k for s in steps] == [2, 1, 0]
        for step in steps:
            assert all(getattr(step, f.name) is not None for f in fields(step))
            assert (step.design.n == step.weights.shape[0] == step.counts.shape[0]
                    == int(step.mask.sum()))
            assert np.all(step.weights >= 0)

    def test_fully_observed_column_is_vacuous(self):
        data = scenario_dataset("mar-null", 4000, 5)
        r = data.r.copy()
        r[:, 2] = 1
        x = np.where(r == 1, np.nan_to_num(data.xstar, nan=0.33), np.nan)
        full = ObservedDataset(data.names, r, x)
        assert [s.k for s in mar_steps(full)] == [1, 0]

    def test_fully_observed_column_is_not_fit(self, monkeypatch):
        # K = 4 with X3 fully observed: X4 gets its full-sample null fit; X3
        # none; X2 a full-sample null, a stabilizer, a masked null and an
        # alternative; X1 the last three, since no step reads its
        # full-sample null.  A null fit for X3 would have an all-ones outcome.
        data = scenario_dataset("mar-null", 4000, 5)
        r = data.r.copy()
        r[:, 2] = 1
        x = np.where(r == 1, np.nan_to_num(data.xstar, nan=0.33), np.nan)
        full = ObservedDataset(data.names, r, x)
        fits = []

        def counting(*args, **kwargs):
            fits.append(fit_weighted_logistic(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(estimation, "fit_weighted_logistic", counting)
        steps = tuple(mar_steps(full))
        assert len(fits) == 8
        assert all(fit.converged for fit in fits)
        assert [s.k for s in steps] == [1, 0]

    def test_nonnegative_statistic(self):
        for seed in (0, 1, 2, 3, 4):
            data = scenario_dataset("mar-null", 3000, seed)
            for step in mar_steps(data):
                assert step.statistic >= -1e-6
                assert step.df >= 1
                assert 0.0 <= step.p_value <= 1.0


class TestMnarCascade:
    def test_step_count_and_df(self):
        data = scenario_dataset("mnar-null", 5000, 2)
        steps = tuple(mnar_steps(data, None))
        assert [s.k for s in steps] == [3, 2, 1]
        for step in steps:
            # The alternative adds one proxy product per earlier variable.
            assert step.df == step.k
            assert step.statistic >= -1e-6

    def test_clip_events_counted(self, monkeypatch):
        # A high clip floor clips many weight-update propensities; each later
        # step counts the clipped ones over its masked rows, as MAR does.
        monkeypatch.setattr("mdgof.estimation.PROPENSITY_CLIP", 0.9)
        data = scenario_dataset("mnar-null", 5000, 2)
        steps = tuple(mnar_steps(data, None))
        assert steps[0].clip_events == 0  # no weight update precedes it
        assert all(s.clip_events > 0 for s in steps[1:])

    def test_crisscross_graph_refused(self):
        data = scenario_dataset("mnar-null", 1000, 0, K=2)
        g = MDag.create(("X1", "X2"),
                        edges=[("X1", "X2"), ("X2", "R1"), ("X1", "R2"),
                               ("R1", "R2")])
        with pytest.raises(EstimationError):
            tuple(mnar_steps(data, g))

    def test_colluder_graph_refused(self):
        data = scenario_dataset("mnar-null", 1000, 0, K=2)
        g = MDag.create(("X1", "X2"), edges=[("X1", "R2"), ("R1", "R2")])
        with pytest.raises(EstimationError):
            tuple(mnar_steps(data, g))

    def test_clean_graph_accepted(self):
        data = scenario_dataset("mnar-null", 2000, 0, K=2)
        g = MDag.create(("X1", "X2"), edges=[("X1", "X2"), ("X2", "R1")])
        assert len(tuple(mnar_steps(data, g))) == 1


@pytest.mark.parametrize("family", ["mar", "mnar"])
def test_steps_use_the_cascade_designs(family):
    # Each step's design is the builder's one design on the step mask, its
    # null fit ran on the leading columns, and the columns are the ones the
    # test names here: MAR's null takes the earlier proxies and tests the
    # later ones, MNAR's the reverse.  The step's test reads those fits and
    # that design: 2 rho is the fits' loglik difference, and the p-value is
    # the robust reference's on the step's rows, weights and counts.
    data = scenario_dataset(f"{family}-null", 3000, 1)
    steps = cascade_steps(family, data)
    assert steps
    mar = family == "mar"
    for step in steps:
        k, v = step.k, data.names
        base = ("intercept",) + tuple(f"R[{x}]" for x in v[:k])
        earlier = tuple(f"R*Xs[{x}]" for x in v[:k])
        later = tuple(f"X[{x}]" for x in v[k + 1:])
        null, block = (base + earlier, later) if mar else (base + later, earlier)
        proxies = ((range(k), range(k + 1, data.K)) if mar
                   else (range(k + 1, data.K), range(k)))
        full, mask = build_features(data, k, *proxies)
        assert np.array_equal(mask, step.mask)
        assert step.design.names == full.names == null + block
        assert len(step.null_fit.coefficients) == len(null)
        assert len(step.alt_fit.coefficients) == step.design.p
        assert np.array_equal(step.design.values, full.values[mask])
        assert step.design.values.flags.f_contiguous
        # Refit on a column-major copy of the builder's leading columns, the
        # null fit is reproduced.
        y = data.r[mask, k]
        refit = fit_weighted_logistic(
            DesignMatrix(null, np.asfortranarray(full.values[mask, :len(null)])),
            y, step.weights)
        assert np.array_equal(refit.coefficients, step.null_fit.coefficients)
        assert refit.weighted_loglik == step.null_fit.weighted_loglik
        assert step.statistic == _two_rho(step.null_fit, step.alt_fit)
        assert step.df == len(block)
        assert step.p_value == robust_lr_pvalue(
            max(step.statistic, 0.0), len(null), step.alt_fit, step.design,
            y, step.weights, step.counts)


@pytest.mark.parametrize("family, dist, n, seed, cold", [
    ("mar", "gaussian", 3000, 2, 0),
    ("mnar", "gaussian", 3000, 2, 0),
    # Step X3's null has a coefficient of 11.7, on a likelihood ridge.
    ("mar", "binary", 1500, 1512, 1)],
    ids=["mar", "mnar", "mar-ridge"])
def test_alternative_starts_from_its_null(family, dist, n, seed, cold,
                                          monkeypatch):
    # Every fit given a start is a step's alternative, and its start is the
    # step's null coefficients followed by zeros for the tested block.  An
    # alternative whose null has a coefficient past WARM_START_BOUND starts
    # from zeros: ``cold`` of them here.
    calls = []

    def recording(design, outcome, weights=None, start=None, tol=None):
        fit = fit_weighted_logistic(design, outcome, weights, start, tol)
        calls.append((start, fit))
        return fit

    monkeypatch.setattr("mdgof.estimation.fit_weighted_logistic", recording)
    data = scenario_dataset(f"{family}-null", n, seed, dist=dist)
    steps = cascade_steps(family, data)
    assert steps
    starts = {id(fit): start for start, fit in calls}
    warm = 0
    for step in steps:
        start = starts[id(step.alt_fit)]
        if np.abs(step.null_fit.coefficients).max() > estimation.WARM_START_BOUND:
            assert start is None
            continue
        warm += 1
        df = len(step.alt_fit.coefficients) - len(step.null_fit.coefficients)
        assert np.array_equal(
            start, np.concatenate([step.null_fit.coefficients, np.zeros(df)]))
    assert len(steps) - warm == cold
    assert sum(start is not None for start, _ in calls) == warm


# Largest |loglik| gap allowed between an alternative started from its null
# and its cold refit.  Both meet the score tolerance; where the tested block
# runs along a nearly flat likelihood ridge, the two stop at different
# points on it.  Over the benchmark's 512 study replications (n = 10 000)
# the largest gap was 5.1e-5, on such a step.
WARM_COLD_LOGLIK_GAP = 1e-4


@pytest.mark.parametrize("family", ["mar", "mnar"])
@pytest.mark.parametrize("alt", [False, True], ids=["null", "alt"])
@pytest.mark.parametrize("dist", ["binary", "gaussian"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_alternative_matches_a_cold_refit(family, alt, dist, seed):
    """Refit from zeros on the step's design and weights, each alternative
    reaches the same decision and the same loglik within
    WARM_COLD_LOGLIK_GAP."""
    data = scenario_dataset(f"{family}-{'alt' if alt else 'null'}", 2000, seed,
                            dist=dist)
    for step in cascade_steps(family, data):
        cold = fit_weighted_logistic(step.design, data.r[step.mask, step.k],
                                     step.weights)
        assert cold.converged
        assert abs(cold.weighted_loglik - step.alt_fit.weighted_loglik) \
            <= WARM_COLD_LOGLIK_GAP
        p_cold = robust_lr_pvalue(
            max(_two_rho(step.null_fit, cold), 0.0),
            step.design.p - step.df, cold, step.design,
            data.r[step.mask, step.k], step.weights, step.counts)
        assert (step.p_value < 0.05) == (p_cold < 0.05)


class TestLrStatistic:
    def _fits(self, seed, weights=None, scale=1.0):
        rng = np.random.default_rng(seed)
        n = 2500
        x = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
        y = (rng.random(n) < expit(x @ np.array([0.2, 0.5, 0.0]))).astype(float)
        w = scale * (np.ones(n) if weights is None else weights(rng, n))
        nd = DesignMatrix(("c", "a"), x[:, :2])
        ad = DesignMatrix(("c", "a", "b"), x)
        nf = fit_weighted_logistic(nd, y, w)
        af = fit_weighted_logistic(ad, y, w)
        return nd, ad, nf, af, y, w

    def test_nesting_nonnegative(self):
        nd, ad, nf, af, y, w = self._fits(0)
        assert _two_rho(nf, af) >= -1e-6

    def test_statistic_is_the_fits_loglik_difference(self):
        # rho is read from the fits; it equals the weighted log-likelihood
        # of each fit's coefficients, evaluated afresh.
        nd, ad, nf, af, y, w = self._fits(
            6, weights=lambda rng, n: rng.uniform(0.2, 5.0, size=n))
        want = (weighted_bernoulli_loglik(af.coefficients, ad.values, y, w)
                - weighted_bernoulli_loglik(nf.coefficients, nd.values, y, w))
        assert _two_rho(nf, af) / 2.0 == pytest.approx(want, rel=1e-9)

    def test_homogeneity_scales_statistic(self):
        # Refit under 5w: the maximizers stay, the statistic scales by 5.
        two_rho = _two_rho(*self._fits(4)[2:4])
        two_rho5 = _two_rho(*self._fits(4, scale=5.0)[2:4])
        assert two_rho5 == pytest.approx(5.0 * two_rho, rel=1e-9)

    def test_unit_weights_pvalue_near_classical(self):
        nd, ad, nf, af, y, w = self._fits(1)
        two_rho = max(_two_rho(nf, af), 0.0)
        p = robust_lr_pvalue(two_rho, nd.p, af, ad, y, w, np.ones_like(w))
        classical = chisq_sf(two_rho, 1) if two_rho >= 0 else 1.0
        assert p >= classical - 1e-12
        assert p == pytest.approx(classical, abs=0.05)

    def test_weighted_pvalue_valid(self):
        nd, ad, nf, af, y, w = self._fits(
            2, weights=lambda rng, n: rng.uniform(0.2, 5.0, size=n))
        two_rho = _two_rho(nf, af)
        p = robust_lr_pvalue(max(two_rho, 0.0), nd.p, af, ad, y, w, np.ones_like(w))
        assert 0.0 <= p <= 1.0
        assert p >= chisq_sf(max(two_rho, 0.0), 1) - 1e-12

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_counts_are_duplicated_rows(self, seed):
        # Row i with count c_i is c_i copies of it under weight w_i: the
        # same fits give one p-value on either, so the empirical sandwich
        # scales each squared score by c_i, not by c_i^2.
        rng = np.random.default_rng(seed)
        n = 400
        x = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
        y = (rng.random(n) < expit(x @ np.array([0.2, 0.5, 0.3]))).astype(float)
        w = rng.lognormal(0.0, 1.0, size=n)
        c = rng.integers(1, 6, size=n).astype(float)
        nd = DesignMatrix(("c", "a"), np.ascontiguousarray(x[:, :2]))
        ad = DesignMatrix(("c", "a", "b"), x)
        nf = fit_weighted_logistic(nd, y, w * c)
        af = fit_weighted_logistic(ad, y, w * c)
        two_rho = max(_two_rho(nf, af), 0.0)
        rows = np.repeat(np.arange(n), c.astype(int))
        want = robust_lr_pvalue(two_rho, nd.p, replace(af, fitted=af.fitted[rows]),
                                DesignMatrix(ad.names, x[rows]),
                                y[rows], w[rows], np.ones(rows.size))
        assert robust_lr_pvalue(two_rho, nd.p, af, ad, y, w * c, c) == pytest.approx(
            want, rel=1e-12, abs=1e-12)
        assert want > chisq_sf(two_rho, 1)  # lam* exceeds 1 here

    @pytest.mark.parametrize("case", ["weighted", "count-weighted", "unit-weight"])
    @pytest.mark.parametrize("seed", [10, 11])
    def test_pvalue_is_the_eigenvalue_bound(self, case, seed):
        # One reference: 2rho / lam* against chi-square(df), lam* the larger
        # top eigenvalue of the two sandwiches, as the oracle computes it.
        rng = np.random.default_rng(seed)
        n = 600
        x = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = (rng.random(n) < expit(x @ np.array([0.2, 0.5, 0.3, 0.1]))).astype(float)
        w = (np.ones(n) if case == "unit-weight"
             else rng.lognormal(0.0, 1.0, size=n))
        c = (rng.integers(1, 6, size=n).astype(float) if case == "count-weighted"
             else None)
        nd = DesignMatrix(("c", "a"), np.ascontiguousarray(x[:, :2]))
        ad = DesignMatrix(("c", "a", "b", "d"), x)
        total = w if c is None else w * c
        nf, af = (fit_weighted_logistic(d, y, total) for d in (nd, ad))
        two_rho = max(_two_rho(nf, af), 0.0)
        want = reference_robust_pvalue(two_rho, 2, x, y, w, af.coefficients, c)
        got = robust_lr_pvalue(two_rho, 2, af, ad, y, total,
                               np.ones(n) if c is None else c)
        assert abs(got - want) <= 1e-12 * want
        assert 0.0 < got < 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(2, 8),
           df=st.integers(1, 3), counted=st.booleans())
    def test_pvalue_matches_the_oracle(self, seed, p, df, counted):
        # The tested block alone gives the oracle's lam*, which forms the
        # full information inverse and both full sandwiches.
        self._assert_pvalue_matches_the_oracle(seed, p, df, counted)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(2, 8),
           df=st.integers(1, 3), counted=st.booleans(),
           cells=st.integers(8, 399))
    def test_blocked_pvalue_matches_the_oracle(self, seed, p, df, counted, cells):
        # The information and both middle matrices summed over blocks of
        # cells // p and cells // df of the 400 rows, as at large n.
        with mock.patch.object(numerics, "GRAM_BLOCK_CELLS", cells):
            self._assert_pvalue_matches_the_oracle(seed, p, df, counted)

    @staticmethod
    def _assert_pvalue_matches_the_oracle(seed, p, df, counted):
        assume(df < p)
        rng = np.random.default_rng(seed)
        n = 400
        x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = (rng.random(n) < expit(x @ rng.normal(0.0, 0.5, size=p))).astype(float)
        w = rng.lognormal(0.0, 1.0, size=n)
        c = rng.integers(1, 6, size=n).astype(float) if counted else None
        names = tuple(f"c{i}" for i in range(p))
        nd = DesignMatrix(names[:p - df], np.ascontiguousarray(x[:, :p - df]))
        ad = DesignMatrix(names, x)
        total = w if c is None else w * c
        nf, af = (fit_weighted_logistic(d, y, total) for d in (nd, ad))
        assume(nf.converged and af.converged)
        two_rho = max(_two_rho(nf, af), 0.0)
        want = reference_robust_pvalue(two_rho, p - df, x, y, w, af.coefficients, c)
        got = robust_lr_pvalue(two_rho, p - df, af, ad, y, total,
                               np.ones(n) if c is None else c)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("column", ["duplicate", "zero"])
    def test_singular_information_is_an_error(self, column):
        # A tested column equal to a null column carries no information of
        # its own, and a null column of zeros none at all: no reference
        # exists, and the step is refused rather than given the classical
        # chi-square tail.
        nd, ad, nf, af, y, w = self._fits(
            12, weights=lambda rng, n: rng.uniform(0.2, 5.0, size=n))
        x = ad.values.copy()
        if column == "duplicate":
            x[:, 2] = x[:, 1]
        else:
            x[:, 1] = 0.0
        nd = DesignMatrix(nd.names, np.ascontiguousarray(x[:, :2]))
        ad = DesignMatrix(ad.names, x)
        nf, af = (fit_weighted_logistic(d, y, w) for d in (nd, ad))
        assert nf.converged and af.converged
        two_rho = max(_two_rho(nf, af), 0.0)
        with pytest.raises(EstimationError, match="^robust p-value: "):
            robust_lr_pvalue(two_rho, nd.p, af, ad, y, w, np.ones_like(w))

    @pytest.mark.parametrize("p0", [0, 3, 4], ids=["no-null", "no-tested-block",
                                                    "wider-than-design"])
    def test_non_nested_rejected(self, p0):
        # The null is the design's first p0 columns and the tested block the
        # rest: both must be non-empty.
        nd, ad, nf, af, y, w = self._fits(3)
        with pytest.raises(EstimationError, match="strictly nest"):
            robust_lr_pvalue(1.0, p0, af, ad, y, w, np.ones_like(w))


class TestRowPatterns:
    @pytest.mark.parametrize("scenario", ["mar-null", "mnar-alt", "bp-alt"])
    def test_binary_rows_compress_exactly(self, scenario):
        data = scenario_dataset(scenario, 5000, 3)
        patterns, counts = estimation._row_patterns(data)
        assert counts.size <= 3 ** data.K
        # The patterns are the distinct rows, in order, with their counts.
        table = np.column_stack([data.r, np.nan_to_num(data.xstar)])
        want, want_counts = np.unique(table, axis=0, return_counts=True)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(
            np.column_stack([patterns.r, np.nan_to_num(patterns.xstar)]), want)

    def test_gaussian_rows_are_their_own_patterns(self):
        data = scenario_dataset("mar-null", 2000, 3, dist="gaussian")
        patterns, counts = estimation._row_patterns(data)
        assert patterns is data
        assert np.array_equal(counts, np.ones(data.n))

    def test_wide_key_is_ranked_before_it_overflows(self):
        # 70 indicators make 2^70 codes: once the key holds 62 of them it
        # is ranked down to the 300 distinct rows before it is widened.
        rng = np.random.default_rng(4)
        r = (rng.random((300, 70)) < 0.7).astype(np.int8)
        x = np.where(r == 1, rng.integers(0, 2, size=r.shape), np.nan)
        rows = rng.permutation(np.repeat(np.arange(300), 3))
        data = ObservedDataset(tuple(f"X{i}" for i in range(70)), r[rows], x[rows])
        patterns, counts = estimation._row_patterns(data)
        table = np.column_stack([data.r, np.nan_to_num(data.xstar)])
        want, want_counts = np.unique(table, axis=0, return_counts=True)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(
            np.column_stack([patterns.r, np.nan_to_num(patterns.xstar)]), want)

    def test_distinct_wide_rows_stop_at_the_ranking(self, monkeypatch):
        # 300 distinct rows over 70 indicators: the key ranked after 62 of
        # them already has more than n / 2 values, so no later column is
        # read and every row is its own pattern.
        rng = np.random.default_rng(4)
        r = (rng.random((300, 70)) < 0.7).astype(np.int8)
        x = np.where(r == 1, rng.integers(0, 2, size=r.shape), np.nan)
        data = ObservedDataset(tuple(f"X{i}" for i in range(70)), r, x)
        read = []
        column_codes = estimation._column_codes

        def reading(d):
            for base, codes in column_codes(d):
                read.append(base)
                yield base, codes

        monkeypatch.setattr(estimation, "_column_codes", reading)
        patterns, counts = estimation._row_patterns(data)
        assert patterns is data
        assert np.array_equal(counts, np.ones(300))
        assert len(read) == 63

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80),
           K=st.integers(1, 5), levels=st.integers(1, 40))
    def test_pattern_count_ignores_column_order(self, seed, n, K, levels):
        # Rows compress to their distinct values when those are at most
        # n / 2, and are each their own pattern otherwise, whatever the
        # column order: the count decides, not the column it is seen at.
        rng = np.random.default_rng(seed)
        r = (rng.random((n, K)) < 0.7).astype(np.int8)
        x = np.where(r == 1, rng.integers(0, levels, size=(n, K)), np.nan)
        data = ObservedDataset(tuple(f"X{i}" for i in range(K)), r, x)
        distinct = len({tuple(row) for row in np.column_stack([r, np.nan_to_num(x)])})
        want = distinct if distinct <= n / 2 else n
        perm = rng.permutation(K)
        moved = ObservedDataset(tuple(data.names[i] for i in perm),
                                r[:, perm], x[:, perm])
        for d in (data, moved):
            patterns, counts = estimation._row_patterns(d)
            assert counts.size == patterns.n == want
            if want == n:
                assert patterns is d and np.array_equal(counts, np.ones(n))
                continue
            table = np.column_stack([d.r, np.nan_to_num(d.xstar)])
            rows, row_counts = np.unique(table, axis=0, return_counts=True)
            assert np.array_equal(counts, row_counts)
            assert np.array_equal(
                np.column_stack([patterns.r, np.nan_to_num(patterns.xstar)]), rows)


class TestResampleCounts:
    def test_compressed_counts_follow_the_law_of_n_row_draws(self):
        # n row draws counted over patterns with these counts: every
        # resample sums to n, with mean n p and covariance n (diag p - p p').
        counts, n, size = np.array([5.0, 1.0, 3.0, 11.0]), 20, 4000
        draws = estimation._resample_counts(np.random.default_rng(5), counts, n, size)
        assert draws.shape == (size, counts.size)
        assert np.all(draws.sum(axis=1) == n)
        p = counts / n
        centred = draws - n * p
        mean_se = np.sqrt(n * p * (1.0 - p) / size)
        assert np.all(np.abs(centred.mean(axis=0)) < 4 * mean_se)
        products = centred[:, :, None] * centred[:, None, :]
        cov_se = products.std(axis=0) / np.sqrt(size)
        cov = n * (np.diag(p) - np.outer(p, p))
        assert np.all(np.abs(products.mean(axis=0) - cov) < 4 * cov_se)

    def test_uncompressed_counts_are_row_draws(self):
        # Every row its own pattern: the counts of n uniform row draws, from
        # the same generator stream.
        n, size = 50, 3
        got = estimation._resample_counts(
            np.random.default_rng(3), np.broadcast_to(1.0, n), n, size)
        rng = np.random.default_rng(3)
        want = [np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(size)]
        assert np.array_equal(got, want)


class TestOddsRatio:
    def test_collapsed_bootstrap_is_an_error(self):
        # n = 20, K = 3: the point estimate exists, but 13 of 20 resamples
        # lose an indicator's variation or a fit, fewer than the 10 needed.
        data = scenario_dataset("bp-null", 20, 33, K=3)
        with pytest.raises(EstimationError,
                           match=r"^bootstrap collapsed: only 7/20 resamples usable$"):
            estimate_odds_ratio(data, (0, 1), n_bootstrap=20,
                                rng=np.random.default_rng(0))

    def test_symmetry_exact(self):
        data = scenario_dataset("bp-null", 3000, 8)
        assert _pairwise_theta(data, 0, 1) == pytest.approx(
            _pairwise_theta(data, 1, 0), rel=1e-12)

    def test_null_ci_covers_one(self):
        data = scenario_dataset("bp-null", 8000, 1)
        est = estimate_odds_ratio(data, (0, 1), rng=np.random.default_rng(0))
        lo, hi = est.bootstrap_ci
        assert lo <= 1.0 <= hi
        assert not est.ci_excludes_one

    def test_alt_ci_excludes_one(self):
        data = scenario_dataset("bp-alt", 8000, 1)
        est = estimate_odds_ratio(data, (0, 1), rng=np.random.default_rng(0))
        assert est.ci_excludes_one

    def test_bootstrap_reproducible(self):
        data = scenario_dataset("bp-null", 2000, 5)
        a = estimate_odds_ratio(data, (0, 1), n_bootstrap=50,
                                rng=np.random.default_rng(3))
        b = estimate_odds_ratio(data, (0, 1), n_bootstrap=50,
                                rng=np.random.default_rng(3))
        assert a.theta_hat == b.theta_hat
        assert a.bootstrap_ci == b.bootstrap_ci

    @pytest.mark.parametrize("scenario, dist, n, K, seed", [
        ("bp-alt", "binary", 3000, 4, 2),
        ("bp-null", "gaussian", 1500, 4, 2),
        # Small samples where some resamples lose variation or separate.
        ("bp-null", "binary", 60, 3, 3),
        ("bp-null", "gaussian", 60, 3, 4),
    ])
    def test_matches_row_gather_reference(self, scenario, dist, n, K, seed):
        data = scenario_dataset(scenario, n, seed, dist=dist, K=K)
        got = estimate_odds_ratio(data, (0, 1), n_bootstrap=60,
                                  rng=np.random.default_rng(seed))
        want = row_gather_odds_ratio(data, (0, 1), n_bootstrap=60,
                                     rng=np.random.default_rng(seed))
        assert got.theta_hat == pytest.approx(want.theta_hat, rel=1e-10)
        assert got.bootstrap_ci == pytest.approx(want.bootstrap_ci, rel=1e-9)
        assert got.failed_by_reason == want.failed_by_reason
        if n < 100:
            assert got.n_failed_resamples > 0

    @pytest.mark.parametrize("scenario, dist, n, K, seed", [
        ("bp-alt", "binary", 3000, 4, 2),
        ("bp-null", "gaussian", 300, 4, 2),
        ("bp-null", "binary", 60, 3, 3),
        ("bp-null", "gaussian", 60, 3, 4),
    ])
    def test_chunking_leaves_estimate_unchanged(self, monkeypatch, scenario,
                                                dist, n, K, seed):
        """60 resamples fit in batches of 1, 7 and 60 give one estimate."""
        data = scenario_dataset(scenario, n, seed, dist=dist, K=K)
        m = estimation._row_patterns(data)[1].size
        got = []
        for rows in (1, 7, 60):
            monkeypatch.setattr(estimation, "BOOTSTRAP_CHUNK_CELLS", rows * m)
            got.append(estimate_odds_ratio(data, (0, 1), n_bootstrap=60,
                                           rng=np.random.default_rng(seed)))
        for est in got[1:]:
            assert est.theta_hat == got[0].theta_hat
            assert est.bootstrap_ci == pytest.approx(got[0].bootstrap_ci, rel=1e-12)
            assert est.n_failed_resamples == got[0].n_failed_resamples
            assert est.failed_by_reason == got[0].failed_by_reason

    def test_failed_resamples_by_reason(self):
        # n = 60: some resamples lose the variation of an indicator.
        data = scenario_dataset("bp-null", 60, 3, K=3)
        est = estimate_odds_ratio(data, (0, 1), n_bootstrap=60,
                                  rng=np.random.default_rng(3))
        assert tuple(est.failed_by_reason) == FAILURE_REASONS
        assert sum(est.failed_by_reason.values()) == est.n_failed_resamples > 0
        assert est.failed_by_reason["no variation"] > 0

    def test_resample_failures_in_checking_order(self):
        """Batched, the first failing check names a resample's failure."""
        data = scenario_dataset("bp-null", 400, 1, K=3)
        patterns, counts = estimation._row_patterns(data)
        r = patterns.r
        equation = estimation._PairEquation(patterns, 0, 1)
        no_k = counts * (r[:, 0] == 1)      # every row left has R1 = 1
        no_j = counts * (r[:, 1] == 1)
        theta, failure, _ = equation.theta(
            np.array([counts, no_k, no_j, no_k * (r[:, 1] == 1)]))
        assert failure[0] is None and np.isfinite(theta[0])
        assert [f[0] for f in failure[1:]] == ["no variation"] * 3
        # Without variation in both, the first target checked is named.
        assert [f[1].split(" ")[3] for f in failure[1:]] == ["X1", "X2", "X1"]
        assert np.isnan(theta[1:]).all()

    @pytest.mark.parametrize("n_bootstrap", [9, 0, -3])
    def test_bootstrap_count_below_minimum_refused(self, n_bootstrap):
        data = scenario_dataset("bp-null", 500, 1)
        with pytest.raises(ValueError, match="at least 10") as info:
            estimate_odds_ratio(data, (0, 1), n_bootstrap=n_bootstrap)
        assert not isinstance(info.value, EstimationError)

    @pytest.mark.parametrize("n_bootstrap", [20.5, 20.0])
    def test_non_integer_bootstrap_count_refused(self, n_bootstrap):
        data = scenario_dataset("bp-null", 500, 1)
        with pytest.raises(ValueError,
                           match="^n_bootstrap must be an integer, got ") as info:
            estimate_odds_ratio(data, (0, 1), n_bootstrap=n_bootstrap)
        assert not isinstance(info.value, EstimationError)

    def test_alpha_outside_the_unit_interval_refused(self):
        # 1.5 would put the CI's lower quantile above its upper one.
        data = scenario_dataset("bp-null", 500, 1)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)") as info:
            estimate_odds_ratio(data, (0, 1), alpha=1.5, n_bootstrap=10)
        assert not isinstance(info.value, EstimationError)

    @pytest.mark.parametrize("pair", [(1, 1), (0, 4), (-1, 2)])
    def test_pair_must_be_two_distinct_indices(self, pair):
        # K = 4: a repeated index, one past the last, and a negative one.
        data = scenario_dataset("bp-alt", 300, 0)
        with pytest.raises(ValueError, match=r"two distinct indices in 0\.\.3") as info:
            estimate_odds_ratio(data, pair, n_bootstrap=10)
        assert not isinstance(info.value, EstimationError)

    def test_duplicated_rows_leave_theta_unchanged(self):
        data = scenario_dataset("bp-alt", 2000, 6)
        doubled = ObservedDataset(data.names, np.vstack([data.r, data.r]),
                                  np.vstack([data.xstar, data.xstar]))
        assert _pairwise_theta(doubled, 0, 1) == pytest.approx(
            _pairwise_theta(data, 0, 1), rel=1e-12)

    def test_pattern_diagnostics(self):
        data = scenario_dataset("bp-null", 2000, 7)
        est = estimate_odds_ratio(data, (0, 2), n_bootstrap=20)
        patterns = {tuple(row) for row in
                    np.column_stack([data.r, np.nan_to_num(data.xstar)])}
        assert est.n_patterns == len(patterns)
        cell = (data.r[:, 1] == 1) & (data.r[:, 3] == 1) \
            & (data.r[:, 0] == 0) & (data.r[:, 2] == 0)
        assert est.numerator_cell == int(cell.sum())

    def test_empty_numerator_cell_raises(self):
        # bp-null at n = 80, K = 3: no row has X1 and X2 both missing with
        # X3 observed, so theta-hat would be 0 with a CI of (0, 0).
        data = scenario_dataset("bp-null", 80, 0, K=3)
        with pytest.raises(EstimationError, match="empty numerator cell"):
            estimate_odds_ratio(data, (0, 1), n_bootstrap=20)

    def test_degenerate_indicator_rejected(self):
        r = np.ones((50, 3), dtype=np.int8)
        x = np.random.default_rng(0).normal(size=(50, 3))
        data = ObservedDataset(("X1", "X2", "X3"), r, x)
        with pytest.raises(EstimationError):
            estimate_odds_ratio(data, (0, 1))


class TestPopulationOddsRatio:
    def test_recovers_designed_theta(self):
        for seed, theta in ((0, 1.0), (1, 2.5), (2, 0.4)):
            rng = np.random.default_rng(seed)
            law = homogeneous_or_law(3, (0, 1), theta, rng)
            assert population_odds_ratio(law, 3, (0, 1)) == pytest.approx(
                theta, abs=1e-12)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(7)
        law = homogeneous_or_law(3, (0, 2), 1.8, rng)
        lib = population_odds_ratio(law, 3, (0, 2))
        direct = direct_or_functional(law, 3, (0, 2))
        assert lib == pytest.approx(direct, abs=1e-12)

    def test_pair_order_symmetric(self):
        rng = np.random.default_rng(9)
        law = homogeneous_or_law(3, (1, 2), 3.0, rng)
        a = population_odds_ratio(law, 3, (1, 2))
        b = population_odds_ratio(law, 3, (2, 1))
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("K, pair, theta", [(3, (0, 1), 2.5), (3, (2, 0), 0.4),
                                                (4, (1, 3), 1.7)])
    def test_ternary_law_recovers_designed_theta(self, K, pair, theta):
        law = homogeneous_or_law(K, pair, theta, np.random.default_rng(11), levels=3)
        got = population_odds_ratio(law, K, pair)
        assert got == pytest.approx(theta, abs=1e-12)
        assert got == pytest.approx(direct_or_functional(law, K, pair), abs=1e-12)

    def test_x_values_without_mass_are_not_needed(self):
        # Every cell with X2 = X3 = 1 has probability 0: X1's propensity is
        # undefined there, and the complete cells there add nothing.
        law = homogeneous_or_law(3, (0, 1), 2.5, np.random.default_rng(1))
        law = {(r, x): 0.0 if x[1:] == (1, 1) else p for (r, x), p in law.items()}
        assert population_odds_ratio(law, 3, (0, 1)) == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 5), (-1, 2)])
    def test_pair_must_be_two_distinct_indices(self, pair):
        law = homogeneous_or_law(3, (0, 1), 2.5, np.random.default_rng(1))
        with pytest.raises(ValueError, match=r"two distinct indices in 0\.\.2") as info:
            population_odds_ratio(law, 3, pair)
        assert not isinstance(info.value, EstimationError)


class TestTruncatedFactorization:
    def test_normalization_exact(self):
        """Dividing the complete-case law by the product of sequential
        propensities recovers a normalized law over the variables."""
        rng = np.random.default_rng(4)
        px = rng.dirichlet(np.ones(4))  # joint over (x1, x2), both binary
        a = rng.uniform(0.2, 0.8, size=2)     # p(R1 = 1 | x1 pattern unused)
        law = {}
        total = 0.0
        for i, (x1, x2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            p1 = a[0]
            p2 = a[1] if x1 == 0 else 0.9 * a[1]  # p(R2=1 | R1=1, X1* = x1)
            joint = px[i] * p1 * p2
            law[(x1, x2)] = joint / (p1 * p2)
            total += joint / (p1 * p2)
        assert abs(total - 1.0) <= 1e-12
        assert abs(sum(law.values()) - 1.0) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
@example(seed=1227, scale=1.0)
def test_cascade_weight_scale_invariance(seed, scale):
    """Multiplying a step's weights by a constant leaves the fitted
    coefficients unchanged and scales the statistic linearly.  The
    alternative is refit from the start the cascade gave it (see
    WARM_START_BOUND): on a likelihood ridge fits from different starts
    stop apart at equal loglik, which is no matter of scale."""
    data = scenario_dataset("mar-null", 1500, seed)
    try:
        steps = tuple(mar_steps(data))
    except EstimationError:
        # Small samples with extreme coefficient draws can separate; the
        # property only concerns cascades that fit at all.
        assume(False)
    step = steps[0]
    y = data.r[step.mask, step.k]
    p0 = step.design.p - step.df
    null = DesignMatrix(step.design.names[:p0],
                        np.ascontiguousarray(step.design.values[:, :p0]))
    null_refit = fit_weighted_logistic(null, y, scale * step.weights)
    start = None
    if np.abs(step.null_fit.coefficients).max() <= estimation.WARM_START_BOUND:
        start = np.pad(step.null_fit.coefficients, (0, step.design.p - p0))
    refit = fit_weighted_logistic(step.design, y, scale * step.weights, start=start)
    assert refit.converged and null_refit.converged
    assert np.allclose(refit.coefficients, step.alt_fit.coefficients, atol=1e-4)
    assert np.allclose(null_refit.coefficients, step.null_fit.coefficients,
                       atol=1e-4)
    rho = step.statistic / 2.0
    assert refit.weighted_loglik - null_refit.weighted_loglik == pytest.approx(
        scale * rho, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("family", ["mar", "mnar"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), alt=st.booleans(),
       dist=st.sampled_from(("binary", "gaussian")))
def test_duplicated_rows_double_the_statistic(family, seed, alt, dist):
    """Duplicating every row leaves each step's fits unchanged and doubles
    2*rho, which is read from the fits' log-likelihoods.

    The two Newton paths differ only by rounding, which an ill-conditioned
    fit amplifies: binary MNAR steps near separation (|beta| about 20) move
    by up to 1.4e-9 of max|beta|.  The coefficients are compared to 1e-8
    of max(1, max|beta|), the fitted probabilities to 1e-12."""
    data = scenario_dataset(f"{family}-{'alt' if alt else 'null'}", 1500, seed,
                            dist=dist)
    doubled = ObservedDataset(data.names, np.vstack([data.r, data.r]),
                              np.vstack([data.xstar, data.xstar]))
    try:
        steps = cascade_steps(family, data)
    except EstimationError as exc:
        with pytest.raises(EstimationError) as info:
            cascade_steps(family, doubled)
        assert str(info.value) == str(exc)
        return
    twice = cascade_steps(family, doubled)
    assert [s.k for s in twice] == [s.k for s in steps]
    for one, two in zip(steps, twice):
        p0 = one.design.p - one.df
        for a, b, x in ((one.null_fit, two.null_fit, one.design.values[:, :p0]),
                        (one.alt_fit, two.alt_fit, one.design.values)):
            scale = max(1.0, np.abs(a.coefficients).max())
            assert np.abs(b.coefficients - a.coefficients).max() <= 1e-8 * scale
            assert np.allclose(expit(x @ b.coefficients), expit(x @ a.coefficients),
                               rtol=0, atol=1e-12)
        assert two.df == one.df
        assert two.statistic == pytest.approx(2.0 * one.statistic, rel=1e-9,
                                              abs=1e-9)
