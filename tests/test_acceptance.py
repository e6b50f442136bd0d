"""Acceptance gate: end-to-end numerical and structural guarantees.

Each criterion is one test.  Simulation thresholds are evaluated at a fixed
seed so the gate is deterministic; runtime limits that depend on core count
are informational on this single-core runner and are not asserted.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from mdgof.counterexample import verify_crisscross_counterexample
from mdgof.data import ObservedDataset
from mdgof.estimation import mar_steps, population_odds_ratio
from mdgof.graph import (MDag, count_parameters,
                         count_parameters_no_self_censoring, dsep_digraph)
from mdgof.numerics import (DesignMatrix, chisq_sf, child_rng, expit,
                            fit_weighted_logistic)
from mdgof.simulate import ScenarioConfig, run_study

from oracles import (_pairwise_theta, brute_force_dsep, chisq_sf_quadrature,
                     grid_search_logistic, homogeneous_or_law,
                     random_digraph_instance, weighted_bernoulli_loglik)


def study(scenario, dist, param_range=(0.0, 2.0), seed=0, **kw):
    config = ScenarioConfig(scenario=scenario, dist=dist, K=4, n=10_000,
                            reps=100, param_range=param_range, seed=seed, **kw)
    return run_study(config)


def test_criterion_1_counterexample_exact():
    start = time.perf_counter()
    record = verify_crisscross_counterexample()
    elapsed = time.perf_counter() - start
    assert record.verified
    assert record.observed[(0, 0, "?", "?")] == F(68, 100)
    m1_x1_zero = sum(p for (r1, r2, x1, x2), p in record.full_law_m1.items()
                     if x1 == 0)
    m2_x1_zero = sum(p for (r1, r2, x1, x2), p in record.full_law_m2.items()
                     if x1 == 0)
    assert m1_x1_zero == F(7, 15)
    assert m2_x1_zero == F(5, 11)
    assert elapsed < 1.0


def test_criterion_2_parameter_counts_exact():
    mar = MDag.create(("X1", "X2"), edges=[("X1", "X2"), ("X1*", "R2")])
    assert count_parameters(mar, {"X1": 2, "X2": 2}) == (7, 8)
    permutation = MDag.create(
        ("X1", "X2"), edges=[("X1", "X2"), ("X2", "R1"), ("X1*", "R2")])
    assert count_parameters(permutation, {"X1": 2, "X2": 2}) == (8, 8)
    assert count_parameters_no_self_censoring({"X1": 2, "X2": 2}) == (8, 8)


def test_criterion_3_dsep_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(10_000):
        parents, children, left, right, given = random_digraph_instance(rng)
        fast = dsep_digraph(parents, children, left, right, given)
        slow = brute_force_dsep(parents, children, left, right, given)
        assert fast == slow
    assert time.perf_counter() - start < 30.0


def test_criterion_4_sequential_mar_calibration_and_power():
    assert study("mar-null", "binary").acceptance_rate >= 0.85
    assert study("mar-alt", "binary").acceptance_rate <= 0.10
    assert study("mar-null", "gaussian").acceptance_rate >= 0.85
    assert study("mar-alt", "gaussian").acceptance_rate <= 0.10


def test_criterion_5_sequential_mnar_calibration_and_power():
    assert study("mnar-null", "binary").acceptance_rate >= 0.80
    assert study("mnar-alt", "binary").acceptance_rate <= 0.20
    assert study("mnar-null", "gaussian").acceptance_rate >= 0.80
    assert study("mnar-alt", "gaussian").acceptance_rate <= 0.20
    sparse = study("mnar-alt", "binary", param_range=(-1.0, 1.0))
    assert sparse.acceptance_rate <= 0.30


def test_criterion_6_block_parallel_odds_ratio():
    null = study("bp-null", "binary")
    thetas = np.array(null.thetas)
    cis = np.array(null.theta_cis)
    assert 0.8 <= np.median(thetas) <= 1.25
    covers = (cis[:, 0] <= 1.0) & (1.0 <= cis[:, 1])
    assert covers.mean() >= 0.85

    alt = study("bp-alt", "binary")
    cis = np.array(alt.theta_cis)
    excludes = (cis[:, 0] > 1.0) | (cis[:, 1] < 1.0)
    assert excludes.mean() >= 0.50


def test_criterion_7_estimator_unit_oracles():
    # Weighted logistic against a nested grid search.
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(60), rng.normal(size=60)])
    y = (rng.random(60) < expit(x @ np.array([0.3, -0.8]))).astype(float)
    w = rng.uniform(0.5, 2.0, size=60)
    fit = fit_weighted_logistic(DesignMatrix(("c", "a"), x), y, w)
    assert np.max(np.abs(fit.coefficients - grid_search_logistic(x, y, w))) <= 1e-4

    # Population odds-ratio functional against the designed odds ratio of an
    # enumerated binary three-variable law.
    law = homogeneous_or_law(3, (0, 1), 2.5, np.random.default_rng(1))
    assert abs(population_odds_ratio(law, 3, (0, 1)) - 2.5) <= 1e-12

    # Chi-square tail against quadrature at the 0.95 quantile, one df.
    xq = 3.841458820694124
    assert abs(chisq_sf(xq, 1) - chisq_sf_quadrature(xq, 1)) <= 1e-4

    # Truncated-factorization normalization: the complete-case law divided
    # by the sequential propensities is an exactly normalized law.
    rng = np.random.default_rng(4)
    px = rng.dirichlet(np.ones(4))
    p1 = 0.55
    total = 0.0
    for i, (x1, x2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        p2 = 0.62 if x1 == 0 else 0.47
        total += (px[i] * p1 * p2) / (p1 * p2)
    assert abs(total - 1.0) <= 1e-12


def _scenario_dataset(scenario, n, seed):
    config = ScenarioConfig(scenario=scenario, dist="binary", K=4, n=n,
                            param_range=(0.0, 2.0), seed=seed)
    from mdgof.simulate import generate_full_data, generate_missingness
    rng = child_rng(seed, 0)
    x = generate_full_data(config, rng)
    r, xstar = generate_missingness(x, config, rng)
    return ObservedDataset(("X1", "X2", "X3", "X4"), r, xstar)


def test_criterion_8_property_suite():
    # Weight homogeneity: a common weight scale never moves the maximizer.
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(400), rng.normal(size=400)])
    y = (rng.random(400) < expit(0.4 * x[:, 1])).astype(float)
    w = rng.uniform(0.2, 2.0, size=400)
    design = DesignMatrix(("c", "a"), x)
    base = fit_weighted_logistic(design, y, w)
    scaled = fit_weighted_logistic(design, y, 7.5 * w)
    assert np.allclose(base.coefficients, scaled.coefficients, atol=1e-5)

    # Nesting: the weighted likelihood-ratio statistic is nonnegative.
    data = _scenario_dataset("mar-null", 4000, 3)
    for step in mar_steps(data):
        assert step.statistic >= -1e-6

    # Odds-ratio symmetry in the pair.
    bp = _scenario_dataset("bp-null", 4000, 2)
    assert _pairwise_theta(bp, 0, 1) == pytest.approx(
        _pairwise_theta(bp, 1, 0), rel=1e-12)

    # Determinism under a fixed seed.
    config = ScenarioConfig(scenario="mnar-null", dist="binary", K=3, n=600,
                            reps=4, param_range=(0.0, 2.0), seed=12)
    assert run_study(config).verdicts == run_study(config).verdicts

    # Analytic gradient against central finite differences.
    rng = np.random.default_rng(8)
    x = np.column_stack([np.ones(300), rng.normal(size=(300, 2))])
    y = (rng.random(300) < expit(x @ np.array([0.1, 0.6, -0.4]))).astype(float)
    w = rng.uniform(0.3, 2.0, size=300)
    beta = rng.normal(scale=0.4, size=3)
    analytic = x.T @ (w * (y - expit(x @ beta)))
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        numeric = (weighted_bernoulli_loglik(beta + e, x, y, w)
                   - weighted_bernoulli_loglik(beta - e, x, y, w)) / (2 * h)
        assert abs(analytic[i] - numeric) / max(abs(analytic[i]), 1.0) <= 1e-4
