"""Data-generating processes and the replication harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mdgof.numerics import child_rng, expit
from mdgof.simulate import (COEF_RANGES, SCENARIOS, ScenarioConfig,
                            StudyResult, generate_full_data,
                            generate_missingness, run_study, sweep_curve)
from mdgof.simulate import _replicate


class FakeRng:
    """Deterministic stand-in: uniforms come from a queue, thresholds are
    fixed at one half so r = 1 exactly when the logit is positive."""

    def __init__(self, uniforms):
        self.queue = list(uniforms)

    def uniform(self, lo, hi, size=None):
        assert size is None
        u = self.queue.pop(0)
        assert lo <= u <= hi, f"scripted draw {u} outside [{lo}, {hi}]"
        return u

    def random(self, n=None):
        return np.full(n, 0.5)


class TestFullData:
    def test_gaussian_covariance_structure(self):
        config = ScenarioConfig(scenario="mar-null", dist="gaussian",
                                K=4, n=200_000, seed=0)
        x = generate_full_data(config, child_rng(0, 0))
        emp = np.cov(x.T)
        idx = np.arange(4)
        expected = 1.0 - 0.25 * np.abs(idx[:, None] - idx[None, :])
        assert np.allclose(emp, expected, atol=0.02)

    def test_gaussian_correlation_is_zero_beyond_lag_four(self):
        # Unclamped, 1 - |i - j| / 4 is indefinite at K = 10.
        config = ScenarioConfig(scenario="mar-null", dist="gaussian",
                                K=10, n=200_000, seed=0)
        emp = np.cov(generate_full_data(config, child_rng(0, 0)).T)
        idx = np.arange(10)
        lag = np.abs(idx[:, None] - idx[None, :])
        assert np.allclose(emp, np.maximum(0.0, 1.0 - 0.25 * lag), atol=0.02)

    def test_gaussian_correlation_has_a_cholesky_factor(self):
        # The clamped correlation stays positive definite as K grows.
        for K in (*range(1, 65), 2000):
            config = ScenarioConfig(scenario="mar-null", dist="gaussian", K=K, n=3)
            x = generate_full_data(config, child_rng(0, 0))
            assert x.shape == (3, K) and np.all(np.isfinite(x))

    def test_binary_chain_marginals(self):
        config = ScenarioConfig(scenario="mar-null", dist="binary",
                                K=3, n=50_000, seed=1)
        x = generate_full_data(config, child_rng(1, 0))
        assert set(np.unique(x)) <= {0.0, 1.0}
        assert 0.05 < x.mean() < 0.95


class TestMissingnessFormulas:
    """Hand-computed verdicts on fixed rows, one scenario at a time.

    With thresholds pinned at one half, R equals the indicator of a positive
    logit, so each case reduces to signed arithmetic done by hand below.
    """

    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0],
                  [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0],
                  [1.0, 0.0], [1.0, 1.0]])

    def config(self, scenario, lo=-1.0, hi=1.0):
        return ScenarioConfig(scenario=scenario, dist="binary", K=2, n=10,
                              param_range=(lo, hi), seed=0)

    def test_mar_null_rows(self):
        # R1: logit = a0 = 0.5 > 0, so everyone observed.
        # R2: logit = -0.9 + 0.2 * R1 + 0.8 * R1 * x1 = -0.7 + 0.8 * x1,
        # positive exactly when x1 = 1.
        rng = FakeRng([0.5, -0.9, 0.2, 0.8])
        r, xstar = generate_missingness(self.X, self.config("mar-null"), rng)
        assert np.all(r[:, 0] == 1)
        assert np.array_equal(r[:, 1], (self.X[:, 0] == 1).astype(np.int8))
        assert np.array_equal(np.isnan(xstar), r == 0)

    def test_mar_alt_rows(self):
        # R1 sees the future value x2: logit = -0.3 + 0.9 * x2.
        # R2: logit = -0.8 + 0.1 * R1 + 0.5 * R1 * x1.
        rng = FakeRng([-0.3, 0.9, -0.8, 0.1, 0.5])
        r, _ = generate_missingness(self.X, self.config("mar-alt"), rng)
        expect_r1 = (self.X[:, 1] == 1).astype(np.int8)
        assert np.array_equal(r[:, 0], expect_r1)
        expect_r2 = ((-0.8 + 0.1 * expect_r1
                      + 0.5 * expect_r1 * self.X[:, 0]) > 0).astype(np.int8)
        assert np.array_equal(r[:, 1], expect_r2)

    def test_mnar_null_rows(self):
        # R1: logit = -0.4 + 0.9 * x2 (future counterfactual term).
        # R2: logit = 0.2 - 0.7 * R1 (past indicator term).
        rng = FakeRng([-0.4, 0.9, 0.2, -0.7])
        r, _ = generate_missingness(self.X, self.config("mnar-null"), rng)
        expect_r1 = ((-0.4 + 0.9 * self.X[:, 1]) > 0).astype(np.int8)
        assert np.array_equal(r[:, 0], expect_r1)
        assert np.array_equal(r[:, 1], (0.2 - 0.7 * expect_r1 > 0).astype(np.int8))

    def test_mnar_alt_rows(self):
        # R2 additionally sees the observed past value through R1 * x1.
        rng = FakeRng([0.6, 0.3, -0.5, 0.2, 0.9])
        r, _ = generate_missingness(self.X, self.config("mnar-alt"), rng)
        r1 = ((0.6 + 0.3 * self.X[:, 1]) > 0).astype(np.int8)  # all ones
        assert np.array_equal(r[:, 0], r1)
        expect_r2 = ((-0.5 + 0.2 * r1 + 0.9 * r1 * self.X[:, 0]) > 0)
        assert np.array_equal(r[:, 1], expect_r2.astype(np.int8))

    def test_bp_null_rows(self):
        # Each indicator sees only the other variable's counterfactual.
        rng = FakeRng([-0.2, 0.6, 0.3, -0.9])
        r, _ = generate_missingness(self.X, self.config("bp-null"), rng)
        assert np.array_equal(r[:, 0], ((-0.2 + 0.6 * self.X[:, 1]) > 0).astype(np.int8))
        assert np.array_equal(r[:, 1], ((0.3 - 0.9 * self.X[:, 0]) > 0).astype(np.int8))

    def test_bp_alt_rows_generated_backward(self):
        # R2 is drawn first: logit = 0.4 + 0.8 * x1.  R1 then sees R2.
        rng = FakeRng([0.4, 0.8, -0.1, 0.7])
        r, _ = generate_missingness(self.X, self.config("bp-alt"), rng)
        expect_r2 = ((0.4 + 0.8 * self.X[:, 0]) > 0).astype(np.int8)
        assert np.array_equal(r[:, 1], expect_r2)
        assert np.array_equal(r[:, 0], ((-0.1 + 0.7 * expect_r2) > 0).astype(np.int8))


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="mystery")

    def test_unknown_dist(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="mar-null", dist="poisson")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="mar-null", param_range=(2.0, 0.0))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="mar-null", n=0)

    def test_bootstrap_below_minimum(self):
        with pytest.raises(ValueError, match="at least 10"):
            ScenarioConfig(scenario="bp-null", n_bootstrap=9)
        ScenarioConfig(scenario="bp-null", n_bootstrap=10)
        ScenarioConfig(scenario="mar-null", n_bootstrap=0)  # not used there

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_alpha_outside_the_unit_interval(self, scenario, alpha):
        # Every scenario's study fails before it generates any data.
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            ScenarioConfig(scenario=scenario, alpha=alpha)

    @pytest.mark.parametrize("pair", [(1, 1), (0, 3), (-1, 0)])
    def test_bp_pair_must_be_two_distinct_indices(self, pair):
        with pytest.raises(ValueError, match="two distinct indices"):
            ScenarioConfig(scenario="bp-null", K=3, bp_pair=pair)
        ScenarioConfig(scenario="bp-null", K=3, bp_pair=(2, 0))
        ScenarioConfig(scenario="mar-null", K=3, bp_pair=pair)  # not used there

    def test_scenarios_and_ranges_published(self):
        assert "bp-alt" in SCENARIOS
        assert (0.0, 2.0) in COEF_RANGES


class TestHarness:
    def small(self, scenario, **kw):
        base = dict(scenario=scenario, dist="binary", K=3, n=600, reps=6,
                    param_range=(0.0, 2.0), seed=11, n_bootstrap=40)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_deterministic(self):
        config = self.small("mar-null")
        a = run_study(config)
        b = run_study(config)
        assert a.verdicts == b.verdicts
        assert a.acceptance_rate == b.acceptance_rate

    def test_replications_independent_of_batching(self):
        config = self.small("mnar-null")
        study = run_study(config)
        singles = [_replicate(config, rep) for rep in range(config.reps)]
        assert study.verdicts == tuple(s[0] for s in singles)

    def test_bp_study_collects_thetas(self):
        res = run_study(self.small("bp-null", n=1500))
        assert isinstance(res, StudyResult)
        assert len(res.thetas) == len(res.theta_cis)
        assert len(res.thetas) + res.inconclusive == 6

    def test_bp_empty_numerator_cell_inconclusive(self):
        # Replications 0-2 of bp-null at n = 80, K = 3 (seeds 0-2) have no
        # row with X1 and X2 both missing and X3 observed.
        for seed in (0, 1, 2):
            config = self.small("bp-null", n=80, reps=1, seed=seed)
            verdict, _, estimate = _replicate(config, 0)
            assert verdict == "inconclusive"
            assert estimate is None

    def test_all_inconclusive_study_equals_its_rerun(self):
        # No replication is conclusive, so the acceptance rate is NaN; the
        # study must still equal a rerun of itself.
        config = self.small("bp-null", n=80, reps=1, seed=0)
        study = run_study(config)
        assert study.inconclusive == 1 and math.isnan(study.acceptance_rate)
        assert study == run_study(config)

    def test_acceptance_rate_over_conclusive_only(self):
        res = run_study(self.small("mar-null"))
        conclusive = [v for v in res.verdicts if v != "inconclusive"]
        accepted = sum(1 for v in conclusive if v == "accepted")
        assert res.acceptance_rate == pytest.approx(accepted / len(conclusive))

    def test_complete_cases_grow_with_range(self):
        """The three studied coefficient ranges order the expected
        complete-case share."""
        means = []
        for rng_pair in COEF_RANGES:
            config = ScenarioConfig(scenario="mnar-null", dist="binary", K=4,
                                    n=800, reps=1, param_range=rng_pair, seed=3)
            shares = []
            for rep in range(50):
                rng = child_rng(3, rep)
                x = generate_full_data(config, rng)
                r, _ = generate_missingness(x, config, rng)
                shares.append(float(np.mean(np.all(r == 1, axis=1))))
            means.append(np.mean(shares))
        assert means[0] < means[1] < means[2]

    def test_sweep_singleton(self):
        rows = sweep_curve(self.small("mar-null", reps=3), [400])
        assert len(rows) == 1
        assert rows[0][0] == 400

    def test_sweep_rows_stable_under_extension(self):
        config = self.small("mar-null", reps=3)
        short = sweep_curve(config, [400])
        longer = sweep_curve(config, [400, 700])
        assert short[0] == longer[0]

    def test_sweep_row_is_the_study_at_that_n(self):
        # Every grid point runs the config's seed.
        config = self.small("mar-null", reps=3)
        for n, row in zip((400, 700), sweep_curve(config, [400, 700])):
            res = run_study(replace(config, n=n))
            assert row == (n, res.acceptance_rate, res.complete_case_proportion,
                           res.inconclusive)

    @pytest.mark.parametrize("scenario", ["mar-null", "mnar-alt", "bp-null"])
    def test_parallel_study_equals_serial(self, scenario):
        # Replication r draws from the child stream (seed, r) in whichever
        # worker runs it, so two worker processes give the serial study.
        config = self.small(scenario, reps=4, n_bootstrap=20)
        assert run_study(config, n_jobs=2) == run_study(config, n_jobs=1)

    def test_parallel_sweep_equals_serial(self):
        config = self.small("mar-null", reps=4, n_bootstrap=20)
        assert (sweep_curve(config, [400, 600], n_jobs=2)
                == sweep_curve(config, [400, 600], n_jobs=1))

    def test_sweep_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_curve(self.small("mar-null"), [])
