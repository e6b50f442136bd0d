"""Numerical kernel: expit, chi-square tails, seed streams, logistic solver."""

from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from mdgof import numerics
from mdgof.numerics import (SCORE_TOL, DesignMatrix, chisq_sf, child_rng,
                            expit, fit_weighted_logistic,
                            fit_weighted_logistic_batch, weighted_gram)

import oracles
from oracles import (chisq_sf_quadrature, grid_search_logistic, masked_expit,
                     reference_fit_weighted_logistic, traced_peak,
                     weighted_bernoulli_loglik)


class TestExpit:
    def test_midpoint(self):
        assert expit(0.0) == 0.5

    def test_symmetry(self):
        x = np.linspace(-20, 20, 101)
        assert np.allclose(expit(x) + expit(-x), 1.0)

    def test_matches_scipy(self):
        x = np.linspace(-700, 700, 201)
        assert np.allclose(expit(x), scipy.special.expit(x))

    def test_extreme_arguments_finite(self):
        assert expit(-1000.0) == 0.0
        assert expit(1000.0) == 1.0

    def test_bitwise_equal_to_masked_reference(self):
        x = np.concatenate([
            np.random.default_rng(0).standard_normal(100_000),
            [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 36.0, -36.0,
             745.0, -745.0, 1000.0, -1000.0, np.inf, -np.inf]])
        assert np.array_equal(expit(x), masked_expit(x))

    def test_scalar_input_returns_float(self):
        for v in (0.0, -0.0, 2.5, -2.5, 700.0, -700.0):
            got = expit(v)
            assert type(got) is float
            assert got == masked_expit(v)


def _refused(df):
    """A df that is not a positive integer is refused, whatever x is."""
    for x in (0.0, 1e-300, 1.0, 70.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive integer"):
            chisq_sf(x, df)


class TestChisqTail:
    # A nested test's df is a column count, so the tail serves integer df
    # alone.  Each parametrized test below that names a fractional, tiny or
    # infinite df checks that it is refused.
    def test_against_scipy(self):
        for df in (1, 2, 3, 7):
            for x in (0.1, 1.0, 3.84, 15.0):
                assert chisq_sf(x, df) == pytest.approx(
                    scipy.stats.chi2.sf(x, df), abs=1e-12)

    def test_against_quadrature_at_critical_point(self):
        # The 0.95 quantile of chi-square with one degree of freedom.
        x = 3.841458820694124
        assert abs(chisq_sf(x, 1) - chisq_sf_quadrature(x, 1)) <= 1e-4
        assert chisq_sf(x, 1) == pytest.approx(0.05, abs=1e-9)

    def test_fractional_df(self):
        _refused(1.7)

    def test_input_validation(self):
        for df in (0, 0.0, -1, -2.0, 1.5, 1 + 1e-12, np.nan, np.inf, -np.inf):
            _refused(df)
        with pytest.raises(ValueError, match="nonnegative"):
            chisq_sf(-1.0, 1)
        assert chisq_sf(3.0, 2.0) == chisq_sf(3.0, 2) == chisq_sf(3.0, np.int64(2))

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(0.0, 3000.0), st.integers(1, 60))
    def test_matches_gammaincc(self, x, df):
        want = scipy.special.gammaincc(df / 2.0, x / 2.0)
        got = chisq_sf(x, df)
        assert abs(got - want) <= 1e-13
        if want > 1e-300:
            assert abs(got - want) <= 1e-10 * want

    @pytest.mark.parametrize("df", [0.01, 0.5, 1.0, 1.7, 4.0, 13.3, 60.0])
    def test_edge_values(self, df):
        if df != int(df):
            return _refused(df)
        assert chisq_sf(0.0, df) == 1.0
        assert chisq_sf(5e-324, df) == 1.0
        assert chisq_sf(np.inf, df) == 0.0
        assert np.isnan(chisq_sf(np.nan, df))

    @pytest.mark.parametrize("df", [1e-323, 1e-300, 1e-100, 1e-10])
    def test_tiny_df_as_gammaincc(self, df):
        _refused(df)

    def test_infinite_df_as_gammaincc(self):
        _refused(np.inf)

    @pytest.mark.parametrize("df", [0.01, 1.0, 2.5, 7.0, 31.4, 60.0])
    def test_either_side_of_the_series_switch(self, df):
        # The series for P serves x < df + 2, the finite sum the rest.
        if df != int(df):
            return _refused(df)
        switch = df + 2.0
        for x in (np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf),
                  switch * (1 - 1e-9), switch * (1 + 1e-9)):
            want = scipy.special.gammaincc(df / 2.0, x / 2.0)
            assert abs(chisq_sf(x, df) - want) <= min(1e-13, 1e-10 * want)
        below, above = chisq_sf(switch * (1 - 1e-6), df), chisq_sf(switch, df)
        assert below > above

    @pytest.mark.parametrize("df", [0.01, 1.0, 3.3, 60.0])
    def test_tail_falls_as_x_grows(self, df):
        if df != int(df):
            return _refused(df)
        p = [chisq_sf(x, df) for x in np.linspace(0.0, 3000.0, 30001)]
        assert p[0] == 1.0
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert p[-1] < 1e-300

    def test_tail_stays_within_the_unit_interval(self):
        # Near x = 0 the tail is 1 less a sliver, never more than 1.
        xs = np.geomspace(1e-300, 10.0, 600)
        assert all(0.0 < chisq_sf(x, df) <= 1.0 for df in range(1, 61) for x in xs)


class TestChildRng:
    def test_deterministic(self):
        a = child_rng(7, 3).random(5)
        b = child_rng(7, 3).random(5)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        a = child_rng(7, 3).random(5)
        b = child_rng(7, 4).random(5)
        assert not np.array_equal(a, b)


def _logistic_data(rng, n, beta):
    x = np.column_stack([np.ones(n), rng.normal(size=(n, len(beta) - 1))])
    y = (rng.random(n) < expit(x @ beta)).astype(float)
    return x, y


def _kernel_cases():
    """(name, design, outcome, weights, start, tol) covering every exit of
    the Newton kernel."""
    rng = np.random.default_rng(17)
    x, y = _logistic_data(rng, 500, np.array([0.3, -0.6, 0.9]))
    design = DesignMatrix(("c", "a", "b"), x)
    ipw = rng.uniform(0.2, 5.0, size=500)
    zeroed = np.where(rng.random(500) < 0.2, 0.0, ipw)
    counts = rng.poisson(1.0, size=500).astype(float)
    cases = [("unit", design, y, None, None, None),
             ("ipw", design, y, ipw, None, None),
             ("ipw with zeros", design, y, zeroed, None, None),
             ("resample counts", design, y, counts, None, None),
             ("zero tolerance", design, y, ipw, None, 0.0)]
    cold = fit_weighted_logistic(design, y, counts)
    for name, w in (("warm counts", counts), ("warm ipw", zeroed)):
        cases.append((name, design, y, w, cold.coefficients,
                      1e-5 * max(1.0, float(w.sum()))))
    # Far starting points overshoot and force step halving.
    xh, yh = _logistic_data(np.random.default_rng(1), 200, np.array([0.2, 1.0]))
    halving = DesignMatrix(("c", "a"), xh)
    cases.append(("halving", halving, yh, None, np.array([6.0, 0.0]), None))
    cases.append(("halving far", halving, yh, None, np.array([10.0, -10.0]), None))
    # Saturated start: the Hessian is ~1e-10, no halved step raises the
    # loglik, and the 30th halving is taken whatever its loglik.
    xe = np.column_stack([np.ones(40), np.tile([1.0, -1.0], 20)])
    cases.append(("halving exhausted", DesignMatrix(("c", "a"), xe),
                  np.tile([1.0, 1.0, 0.0, 0.0], 10), None,
                  np.array([2.0, 25.0]), None))
    # Binary columns, as in the pattern-compressed odds-ratio fits.
    xb = np.column_stack([np.ones(300), rng.integers(0, 2, size=(300, 2))])
    yb = (rng.random(300) < expit(xb @ np.array([0.5, -1.0, 0.7]))).astype(float)
    cases.append(("binary columns", DesignMatrix(("c", "a", "b"), xb), yb,
                  rng.integers(0, 4, size=300).astype(float), None, None))
    xs = np.column_stack([np.ones(40), np.linspace(-2, 2, 40)])
    cases.append(("separation", DesignMatrix(("c", "a"), xs),
                  (xs[:, 1] > 0).astype(float), None, None, None))
    cases.append(("one class", DesignMatrix(("c", "a"), xs), np.ones(40),
                  None, None, None))
    w_one = (xs[:, 1] <= 0).astype(float)
    cases.append(("one class under weight", DesignMatrix(("c", "a"), xs),
                  (xs[:, 1] > 0).astype(float), w_one, None, None))
    return cases


@pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
def test_kernel_matches_unfused_reference(case):
    """The fused Newton kernel takes the same path as the kernel that
    recomputed x @ beta for mu: bit-identical coefficients, iteration
    counts, flags and messages, and the same fitted probabilities."""
    _, design, y, w, start, tol = case
    got = fit_weighted_logistic(design, y, w, start=start, tol=tol)
    want = reference_fit_weighted_logistic(design, y, w, start=start, tol=tol)
    assert np.array_equal(got.coefficients, want.coefficients)
    np.testing.assert_allclose(got.fitted, want.fitted, rtol=0, atol=1e-15)
    assert (got.iterations, got.converged, got.message) == (
        want.iterations, want.converged, want.message)
    assert got.weighted_loglik == pytest.approx(want.weighted_loglik, rel=1e-12)


def test_kernel_cases_reach_every_exit(monkeypatch):
    """The reference grid above converges, halves steps, takes all 30
    halvings, separates, runs out of iterations and stops on a one-class
    outcome."""
    calls = []
    original = oracles.logaddexp_loglik

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(oracles, "logaddexp_loglik", counting)
    exits = set()
    halved = exhausted = False
    for name, design, y, w, start, tol in _kernel_cases():
        calls.clear()
        fit = reference_fit_weighted_logistic(design, y, w, start=start, tol=tol)
        exits.add(fit.message.split(" ")[0] if fit.message else "converged")
        # One loglik up front and one per iteration unless a step halves;
        # an iteration that takes all 30 halvings evaluates 31 candidates.
        halved |= len(calls) > 1 + fit.iterations
        exhausted |= fit.iterations == 1 and len(calls) == 1 + 31
    assert halved and exhausted
    assert exits == {"converged", "complete", "maximum", "degenerate"}


def _assert_batch_matches_single_fits(design, y, rows):
    """Fit every (weights, start, tol) of ``rows`` in one batch: each fit
    must equal the one-row fit of its weights, start and tolerance, its
    fitted probabilities among them."""
    weights = np.array([w for w, _, _ in rows])
    start = np.array([np.zeros(design.p) if s is None else s for _, s, _ in rows])
    tol = np.array([SCORE_TOL * max(1.0, w.sum()) if t is None else t
                    for w, _, t in rows])
    batch = fit_weighted_logistic_batch(design, y, weights, start=start, tol=tol)
    row_norm = np.abs(design.values).sum(axis=1).max()
    for b, (w, s, t) in enumerate(rows):
        one = fit_weighted_logistic(design, y, w, start=s, tol=t)
        scale = max(1.0, float(np.max(np.abs(one.coefficients))))
        np.testing.assert_allclose(batch.coefficients[b], one.coefficients,
                                   rtol=1e-12, atol=1e-12 * scale)
        assert (int(batch.iterations[b]), bool(batch.converged[b]),
                batch.messages[b]) == (one.iterations, one.converged, one.message)
        # Coefficients within 2e-12 x scale move each row's expit, whose
        # slope is at most 1/4, by at most 0.5e-12 x scale x |x_i|_1.
        np.testing.assert_allclose(batch.fitted[b], one.fitted, rtol=0,
                                   atol=0.5e-12 * scale * row_norm)
    return batch


def _assert_case_batches_as_single_fits(case):
    """The case's fit, batched between two default fits on its design."""
    _, design, y, w, start, tol = case
    ones = np.ones(design.n)
    spread = np.random.default_rng(4).uniform(0.5, 2.0, size=design.n)
    _assert_batch_matches_single_fits(
        design, y, [(ones, None, None), (ones if w is None else w, start, tol),
                    (spread, None, None)])


@pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
def test_batch_columns_match_single_fits(case):
    """Each case's fit, batched between two default fits on its design."""
    _assert_case_batches_as_single_fits(case)


def test_mixed_batch_exits_fit_by_fit():
    """One batch where fits halve, separate, meet a one-class outcome, run
    out of iterations and take all 30 halvings while the others converge."""
    x, y = _logistic_data(np.random.default_rng(1), 200, np.array([0.2, 1.0]))
    design = DesignMatrix(("c", "a"), x)
    ones = np.ones(200)
    separable = ((x[:, 1] > 0) == (y == 1)).astype(float)
    # Weight only on |a| > 1 saturates the start [2, 25], as in the
    # "halving exhausted" kernel case: its one iteration takes all 30
    # halvings and leaves the coefficients past the separation bound.
    saturated = (np.abs(x[:, 1]) > 1.0).astype(float)
    rows = [(ones, None, None), (ones, np.array([10.0, -10.0]), None),
            (separable, None, None), ((y == 1).astype(float), None, None),
            (ones, None, 0.0), (2.0 * ones, np.array([6.0, 0.0]), None),
            (saturated, np.array([2.0, 25.0]), None)]
    batch = _assert_batch_matches_single_fits(design, y, rows)
    assert [m.split(" ")[0] for m in batch.messages] == [
        "", "", "complete", "degenerate", "maximum", "", "complete"]
    assert batch.iterations[-1] == 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(2, 4),
       binary=st.booleans(), weighted=st.booleans(),
       start=st.floats(0.0, 25.0),
       tol=st.sampled_from([None, 0.0, 1e-6, 1e-2]))
def test_fit_matches_reference_on_random_designs(seed, p, binary, weighted,
                                                 start, tol):
    """On random binary or gaussian designs, weights, starts and
    tolerances, the kernel takes the reference's path bit for bit and
    returns its fitted probabilities."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    cols = (rng.integers(0, 2, size=(n, p - 1)) if binary
            else rng.normal(size=(n, p - 1)))
    design = DesignMatrix(("c", "a", "b", "d")[:p],
                          np.column_stack([np.ones(n), cols]))
    y = (rng.random(n) < expit(design.values @ rng.normal(size=p))).astype(float)
    w = (np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 3.0, size=n))
         if weighted else None)
    beta0 = rng.uniform(-start, start, size=p)
    got = fit_weighted_logistic(design, y, w, start=beta0, tol=tol)
    want = reference_fit_weighted_logistic(design, y, w, start=beta0, tol=tol)
    assert np.array_equal(got.coefficients, want.coefficients)
    np.testing.assert_allclose(got.fitted, want.fitted, rtol=0, atol=1e-15)
    assert (got.iterations, got.converged, got.message) == (
        want.iterations, want.converged, want.message)


def test_singular_hessian_batch():
    """A zero column makes every Hessian exactly singular: each fit takes
    the least-squares step, as the one-row fit does."""
    x, y = _logistic_data(np.random.default_rng(8), 300, np.array([0.1, 0.8]))
    design = DesignMatrix(("c", "a", "zero"), np.column_stack([x, np.zeros(300)]))
    w = np.random.default_rng(9).uniform(0.5, 2.0, size=(3, 300))
    _assert_batch_matches_single_fits(design, y, [(row, None, None) for row in w])


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf],
                         ids=["negative", "nan", "inf", "minus-inf"])
def test_batch_validates_like_single_fit(bad):
    # Unchecked, a NaN or +inf weight runs to the iteration limit and
    # returns NaN coefficients.
    design = DesignMatrix(("c",), np.ones((4, 1)))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    weights = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        fit_weighted_logistic_batch(design, y, np.stack([np.ones(4), weights]))
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        fit_weighted_logistic(design, y, weights)
    with pytest.raises(ValueError, match="binary"):
        fit_weighted_logistic_batch(design, y + 0.5, np.ones((2, 4)))
    with pytest.raises(ValueError, match="lengths disagree"):
        fit_weighted_logistic_batch(design, y, np.ones((2, 3)))


@pytest.mark.parametrize("start, match", [
    ([0.0, np.nan], "start contains non-finite"),
    ([np.inf, 0.0], "start contains non-finite"),
    ([[0.0, -np.inf]] * 3, "start contains non-finite"),
    ([0.0, 0.0, 0.0], r"start must have shape \(2,\) or \(3, 2\), got \(3,\)"),
    ([[0.0, 0.0]] * 2, r"start must have shape \(2,\) or \(3, 2\), got \(2, 2\)"),
], ids=["nan", "inf", "inf-in-a-row", "wrong-length", "wrong-rows"])
def test_batch_refuses_a_bad_start(start, match):
    # Unchecked, a NaN start halves through every iteration, an infinite one
    # reads as separation, and a misshapen one fails inside numpy.
    x, y = _logistic_data(np.random.default_rng(3), 50, np.array([0.2, 0.5]))
    design = DesignMatrix(("c", "a"), x)
    with pytest.raises(ValueError, match=match):
        fit_weighted_logistic_batch(design, y, np.ones((3, 50)), start=start)
    if np.ndim(start) == 1:
        with pytest.raises(ValueError, match=r"start (contains|must have)"):
            fit_weighted_logistic(design, y, start=start)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_fit_refuses_an_unusable_tolerance(tol):
    # Unchecked, a NaN or negative tolerance runs all 100 iterations and
    # blames the data, and an infinite one returns the start as converged.
    x, y = _logistic_data(np.random.default_rng(3), 50, np.array([0.2, 0.5]))
    design = DesignMatrix(("c", "a"), x)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        fit_weighted_logistic(design, y, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        fit_weighted_logistic_batch(design, y, np.ones((3, 50)),
                                    tol=np.array([1e-8, tol, 1e-8]))


@pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
def test_outcome_dtype_leaves_the_fit_bit_for_bit(case):
    """An int8 or bool outcome is read as the 0/1 column it is, and gives
    the float outcome's fit: coefficients, loglik, fitted values and
    iterations, bit for bit."""
    _, design, y, w, start, tol = case
    want = fit_weighted_logistic(design, y, w, start=start, tol=tol)
    for dtype in (np.int8, bool):
        got = fit_weighted_logistic(design, y.astype(dtype), w, start=start, tol=tol)
        assert np.array_equal(got.coefficients, want.coefficients)
        assert np.array_equal(got.fitted, want.fitted)
        assert (got.weighted_loglik, got.iterations, got.message) == (
            want.weighted_loglik, want.iterations, want.message)


def test_fit_allocates_its_n_long_arrays_once():
    """A fit at n = 100 000 and p = 5 with an int8 outcome holds its four
    n-long arrays (eta, e, a work and a residual array, the fitted values
    being the last mu) and one 1 MB block of a Hessian's Gram product:
    at most 5.5 n-long float arrays beyond its inputs.  With a float copy
    of the outcome and every elementwise step in a new array, it held 9."""
    n, p = 100_000, 5
    rng = np.random.default_rng(11)
    x, y = _logistic_data(rng, n, rng.normal(0.0, 0.5, size=p))
    design = DesignMatrix(tuple("abcde"), np.asfortranarray(x))
    w, y = rng.uniform(0.5, 2.0, size=n), y.astype(np.int8)
    fit, peak = traced_peak(lambda: fit_weighted_logistic(design, y, w))
    assert fit.converged and fit.iterations > 1
    assert peak <= 5.5 * 8 * n


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 8),
       n=st.integers(20, 400), weighted=st.booleans())
# Separated after 8 iterations in both layouts, 4.0e-11 apart at |b| = 33.4.
@example(seed=16821, p=8, n=20, weighted=False)
def test_column_major_design_fits_as_row_major(seed, p, n, weighted):
    """A row-major design and its column-major copy take the same exit
    after as many iterations, and give the same fit to 1e-12: the layout
    changes only the order of the kernel's sums.  A separated stop is a
    point on a diverging ridge, where those sums' rounding grows with every
    step: both layouts stop past SEPARATION_BOUND, at points not compared
    (no caller reads them).  Over 40 000 drawn cases with n <= 25, p >= 7,
    such stops differed by up to 2.5e-9 x |b| and converged fits by
    2.8e-13 x |b|."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    beta = rng.normal(scale=0.5, size=p)
    y = (rng.random(n) < expit(x @ beta)).astype(float)
    w = rng.uniform(0.2, 5.0, size=n) if weighted else None
    names = tuple(f"c{i}" for i in range(p))
    rows = fit_weighted_logistic(DesignMatrix(names, x), y, w)
    cols = fit_weighted_logistic(DesignMatrix(names, np.asfortranarray(x)), y, w)
    assert (cols.converged, cols.iterations, cols.message) == (
        rows.converged, rows.iterations, rows.message)
    if rows.message == numerics._SEPARATED:
        for fit in (rows, cols):
            assert np.abs(fit.coefficients).max() > numerics.SEPARATION_BOUND
        return
    scale = max(1.0, float(np.abs(rows.coefficients).max()))
    assert np.allclose(cols.coefficients, rows.coefficients, rtol=0, atol=1e-12 * scale)
    assert cols.weighted_loglik == pytest.approx(rows.weighted_loglik, rel=1e-12, abs=1e-12)


def small_gram_blocks(cells):
    """Weighted Gram products summed over blocks of ``cells`` // p rows, so
    a few hundred rows cross several block boundaries."""
    return mock.patch.object(numerics, "GRAM_BLOCK_CELLS", cells)


def _unblocked_gram(x, d):
    return x.T @ (d[..., None] * x)


@pytest.mark.parametrize("B", [1, 3])
def test_gram_of_one_block_is_the_unblocked_product(B):
    """A design of the paper's size (n = 10 000, p = 7) is one block under
    the default constant, and so is a small one under a small constant: the
    product is the unblocked one, bit for bit."""
    rng = np.random.default_rng(B)
    x, d = rng.normal(size=(10_000, 7)), rng.uniform(0.0, 2.0, size=(B, 10_000))
    assert np.array_equal(weighted_gram(x, d), _unblocked_gram(x, d))
    x, d = x[:30, :3], d[:, :30]
    with small_gram_blocks(90):
        assert np.array_equal(weighted_gram(x, d), _unblocked_gram(x, d))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("p", [1, 3, 7])
def test_gram_across_blocks_matches_the_unblocked_product(p, B, order):
    """1001 rows in blocks of 100 // p rows, the last block short: the sum
    over blocks is the one product up to rounding."""
    rng = np.random.default_rng(p * B)
    x = np.asarray(rng.normal(size=(1001, p)), order=order)
    d = np.where(rng.random((B, 1001)) < 0.2, 0.0, rng.uniform(0.0, 3.0, (B, 1001)))
    assert 1001 % (100 // p)
    with small_gram_blocks(100):
        got = weighted_gram(x, d)
    want = _unblocked_gram(x, d)
    assert got.shape == (B, p, p)
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
def test_blocked_kernel_matches_reference(case):
    """Every kernel case with its Hessians summed over blocks of 21 to 32
    rows takes the reference's path: the same iterations, flags and
    messages, and coefficients within 1e-10."""
    _, design, y, w, start, tol = case
    with small_gram_blocks(64):
        got = fit_weighted_logistic(design, y, w, start=start, tol=tol)
    want = reference_fit_weighted_logistic(design, y, w, start=start, tol=tol)
    assert (got.iterations, got.converged, got.message) == (
        want.iterations, want.converged, want.message)
    scale = max(1.0, float(np.abs(want.coefficients).max()))
    np.testing.assert_allclose(got.coefficients, want.coefficients,
                               rtol=1e-10, atol=1e-10 * scale)


@pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
def test_blocked_batch_columns_match_single_fits(case):
    """Rows per block do not depend on the batch size, so a batched fit's
    Hessian is its single fit's blocked product."""
    with small_gram_blocks(64):
        _assert_case_batches_as_single_fits(case)


class TestWeightedLogistic:
    def test_recovers_coefficients(self):
        rng = np.random.default_rng(11)
        beta = np.array([0.4, -0.9, 1.2])
        x, y = _logistic_data(rng, 200_000, beta)
        fit = fit_weighted_logistic(DesignMatrix(("c", "a", "b"), x), y)
        assert fit.converged
        assert np.allclose(fit.coefficients, beta, atol=0.03)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(5)
        beta = np.array([0.3, -0.8])
        x, y = _logistic_data(rng, 60, beta)
        w = rng.uniform(0.5, 2.0, size=60)
        fit = fit_weighted_logistic(DesignMatrix(("c", "a"), x), y, w)
        assert fit.converged
        oracle = grid_search_logistic(x, y, w)
        assert np.max(np.abs(fit.coefficients - oracle)) <= 1e-4

    def test_score_equation_satisfied(self):
        rng = np.random.default_rng(2)
        x, y = _logistic_data(rng, 500, np.array([0.1, 0.7]))
        w = rng.uniform(0.1, 3.0, size=500)
        fit = fit_weighted_logistic(DesignMatrix(("c", "a"), x), y, w)
        score = x.T @ (w * (y - expit(x @ fit.coefficients)))
        assert np.max(np.abs(score)) < 1e-8 * w.sum()

    def test_reported_loglik_is_at_returned_coefficients(self):
        rng = np.random.default_rng(3)
        x, y = _logistic_data(rng, 400, np.array([-0.3, 1.1]))
        w = rng.uniform(0.2, 2.0, size=400)
        fit = fit_weighted_logistic(DesignMatrix(("c", "a"), x), y, w)
        assert fit.converged
        assert fit.weighted_loglik == weighted_bernoulli_loglik(
            fit.coefficients, x, y, w)

    def test_one_class_outcome_flagged(self):
        x = np.column_stack([np.ones(20), np.arange(20.0)])
        fit = fit_weighted_logistic(DesignMatrix(("c", "a"), x), np.ones(20))
        assert not fit.converged
        assert "degenerate" in fit.message

    def test_complete_separation_flagged(self):
        x = np.column_stack([np.ones(40), np.linspace(-2, 2, 40)])
        y = (x[:, 1] > 0).astype(float)
        fit = fit_weighted_logistic(DesignMatrix(("c", "a"), x), y)
        assert not fit.converged

    def test_negative_weights_rejected(self):
        x = np.ones((4, 1))
        with pytest.raises(ValueError):
            fit_weighted_logistic(DesignMatrix(("c",), x),
                                  np.array([0, 1, 0, 1]),
                                  np.array([1.0, -1.0, 1.0, 1.0]))

    def test_non_binary_outcome_rejected(self):
        x = np.ones((3, 1))
        with pytest.raises(ValueError):
            fit_weighted_logistic(DesignMatrix(("c",), x),
                                  np.array([0.0, 0.5, 1.0]))

    def test_warm_start_agrees(self):
        rng = np.random.default_rng(9)
        x, y = _logistic_data(rng, 2000, np.array([0.2, -0.5, 0.9]))
        design = DesignMatrix(("c", "a", "b"), x)
        cold = fit_weighted_logistic(design, y)
        warm = fit_weighted_logistic(design, y, start=cold.coefficients)
        assert warm.converged
        assert warm.iterations <= cold.iterations
        assert np.allclose(warm.coefficients, cold.coefficients, atol=1e-7)

    def test_intercept_only_closed_form(self):
        y = np.array([1.0] * 30 + [0.0] * 10)
        fit = fit_weighted_logistic(DesignMatrix(("c",), np.ones((40, 1))), y)
        assert fit.coefficients[0] == pytest.approx(np.log(3.0), abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 20.0))
    def test_weight_homogeneity(self, seed, scale):
        """Rescaling all weights by a constant must not move the maximizer."""
        rng = np.random.default_rng(seed)
        x, y = _logistic_data(rng, 300, np.array([0.0, 0.6]))
        w = rng.uniform(0.2, 2.0, size=300)
        design = DesignMatrix(("c", "a"), x)
        base = fit_weighted_logistic(design, y, w)
        scaled = fit_weighted_logistic(design, y, scale * w)
        assert base.converged and scaled.converged
        assert np.allclose(base.coefficients, scaled.coefficients, atol=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        x, y = _logistic_data(rng, 400, np.array([0.3, -0.7, 0.5]))
        w = rng.uniform(0.3, 2.0, size=400)
        beta = rng.normal(scale=0.5, size=3)
        analytic = x.T @ (w * (y - expit(x @ beta)))
        h = 1e-6
        numeric = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            numeric[i] = (weighted_bernoulli_loglik(beta + e, x, y, w)
                          - weighted_bernoulli_loglik(beta - e, x, y, w)) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1.0)
        assert np.max(rel) <= 1e-4
