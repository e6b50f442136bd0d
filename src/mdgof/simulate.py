"""Data-generating processes and replicated acceptance-rate studies.

Three missingness families, each in a null flavor (the tested restrictions
hold) and an alternative flavor (extra terms violate them):

  mar-*   missingness depends on past indicators and past observed values;
          the alternative adds future counterfactual values
  mnar-*  missingness depends on past indicators and future counterfactual
          values; the alternative adds past observed values
  bp-*    missingness of each variable depends on all other counterfactual
          values; the alternative couples the indicators

Coefficients are drawn fresh each replication from the configured uniform
range, which is how the complete-case proportion is controlled.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import ObservedDataset
from .estimation import (EstimationError, check_alpha, check_n_bootstrap,
                         check_pair, estimate_odds_ratio)
from .gof import (ACCEPTED, INCONCLUSIVE, REJECTED,
                  test_sequential_mar, test_sequential_mnar)
from .numerics import child_rng, expit

SCENARIOS = ("mar-null", "mar-alt", "mnar-null", "mnar-alt", "bp-null", "bp-alt")
COEF_RANGES = ((-1.0, 1.0), (-0.5, 1.5), (0.0, 2.0))


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    dist: str = "binary"            # "gaussian" or "binary"
    K: int = 4
    n: int = 10_000
    reps: int = 100
    param_range: tuple = (0.0, 2.0)
    alpha: float = 0.05
    seed: int = 0
    n_bootstrap: int = 200          # bp scenarios only
    bp_pair: tuple = (0, 1)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.dist not in ("gaussian", "binary"):
            raise ValueError(f"unknown dist {self.dist!r}")
        lo, hi = self.param_range
        if not lo < hi:
            raise ValueError("param_range must be (lo, hi) with lo < hi")
        if self.n < 1 or self.reps < 1 or self.K < 1:
            raise ValueError("n, reps, and K must be positive")
        check_alpha(self.alpha)
        if self.scenario.startswith("bp"):
            check_n_bootstrap(self.n_bootstrap)
            check_pair(self.bp_pair, self.K)


@dataclass(frozen=True)
class StudyResult:
    config: ScenarioConfig
    verdicts: tuple               # one per replication
    complete_case_proportion: float
    thetas: tuple = ()            # bp scenarios: one per conclusive replication
    theta_cis: tuple = ()

    @property
    def acceptance_rate(self):
        """Accepted over conclusive replications; NaN when none is
        conclusive."""
        conclusive = [v for v in self.verdicts if v != INCONCLUSIVE]
        if not conclusive:
            return float("nan")
        return conclusive.count(ACCEPTED) / len(conclusive)

    @property
    def inconclusive(self):
        return self.verdicts.count(INCONCLUSIVE)


def generate_full_data(config: ScenarioConfig, rng):
    """Substantive data matrix before any masking."""
    K = config.K
    if config.dist == "gaussian":
        idx = np.arange(K)
        # Correlation 1 - |i - j| / 4, held at 0 from lag 4 on: unclamped, it
        # turns negative and the matrix is not positive definite at K >= 9.
        # The clamped matrix is positive definite at every K (its smallest
        # eigenvalue is 2.5e-6 at K = 2000), so its Cholesky factor exists.
        cov = np.maximum(0.0, 1.0 - np.abs(idx[:, None] - idx[None, :]) * 0.25)
        return rng.standard_normal((config.n, K)) @ np.linalg.cholesky(cov).T
    # Binary chain: each variable logistic in its predecessors, coefficients
    # uniform on (-1, 1).
    x = np.zeros((config.n, K))
    for k in range(K):
        a0 = rng.uniform(-1.0, 1.0)
        logits = np.full(config.n, a0)
        for j in range(k):
            logits += rng.uniform(-1.0, 1.0) * x[:, j]
        x[:, k] = (rng.random(config.n) < expit(logits)).astype(float)
    return x


def generate_missingness(x, config: ScenarioConfig, rng):
    """Indicator matrix and masked proxy matrix for the configured scenario."""
    n, K = x.shape
    lo, hi = config.param_range
    u = lambda: rng.uniform(lo, hi)
    r = np.zeros((n, K), dtype=np.int8)
    scenario = config.scenario

    if scenario.startswith("mar"):
        # Forward generation: R_k sees past indicators and past observed
        # values; the alternative adds future counterfactuals.
        for k in range(K):
            logits = np.full(n, u())
            for j in range(k):
                rx = r[:, j] * np.where(r[:, j] == 1, x[:, j], 0.0)
                logits += u() * r[:, j] + u() * rx
            if scenario == "mar-alt":
                for i in range(k + 1, K):
                    logits += u() * x[:, i]
            r[:, k] = rng.random(n) < expit(logits)
    elif scenario.startswith("mnar"):
        for k in range(K):
            logits = np.full(n, u())
            for i in range(k + 1, K):
                logits += u() * x[:, i]
            for j in range(k):
                logits += u() * r[:, j]
                if scenario == "mnar-alt":
                    logits += u() * r[:, j] * np.where(r[:, j] == 1, x[:, j], 0.0)
            r[:, k] = rng.random(n) < expit(logits)
    elif scenario == "bp-null":
        for k in range(K):
            logits = np.full(n, u())
            for j in range(K):
                if j != k:
                    logits += u() * x[:, j]
            r[:, k] = rng.random(n) < expit(logits)
    else:  # bp-alt: product of p(R_k | R_succ, X_prec), generated backward
        for k in range(K - 1, -1, -1):
            logits = np.full(n, u())
            for j in range(k + 1, K):
                logits += u() * r[:, j]
            for i in range(k):
                logits += u() * x[:, i]
            r[:, k] = rng.random(n) < expit(logits)

    xstar = np.where(r == 1, x, np.nan)
    return r, xstar


def simulate_dataset(config: ScenarioConfig, rep):
    """(dataset of replication ``rep``, its generator).  The generator has
    drawn the data and continues into the replication's bootstrap."""
    rng = child_rng(config.seed, rep)
    x = generate_full_data(config, rng)
    r, xstar = generate_missingness(x, config, rng)
    names = tuple(f"X{k + 1}" for k in range(config.K))
    return ObservedDataset(names, r, xstar), rng


def _replicate(config: ScenarioConfig, rep):
    """(verdict, complete-case proportion, the bp scenarios' odds-ratio
    estimate or None) of replication ``rep``."""
    data, rng = simulate_dataset(config, rep)
    cc = data.complete_case_proportion()

    if config.scenario.startswith("bp"):
        try:
            est = estimate_odds_ratio(data, config.bp_pair, alpha=config.alpha,
                                      n_bootstrap=config.n_bootstrap, rng=rng)
        except EstimationError:
            return INCONCLUSIVE, cc, None
        return (REJECTED if est.ci_excludes_one else ACCEPTED), cc, est

    if config.scenario.startswith("mar"):
        report = test_sequential_mar(data, data.names, config.alpha)
    else:
        report = test_sequential_mnar(data, data.names, config.alpha)
    return report.verdict, cc, None


def run_study(config: ScenarioConfig, n_jobs=1) -> StudyResult:
    """Replicated acceptance-rate study; replication r always uses the child
    stream (seed, r), so results are independent of execution order."""
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_replicate, [config] * config.reps,
                                    range(config.reps), chunksize=1))
    else:
        results = [_replicate(config, rep) for rep in range(config.reps)]

    verdicts, cc, estimates = zip(*results)
    estimates = [est for est in estimates if est is not None]
    return StudyResult(config, verdicts, float(np.mean(cc)),
                       tuple(est.theta_hat for est in estimates),
                       tuple(est.bootstrap_ci for est in estimates))


def sweep_curve(config: ScenarioConfig, n_grid, n_jobs=1):
    """One study per sample size; rows (n, acceptance_rate,
    complete_case_pct, inconclusive).  Every grid point runs the config's
    seed, so a row is the study ``run_study`` gives at that n."""
    if not n_grid:
        raise ValueError("empty sample-size grid")
    rows = []
    for n in n_grid:
        res = run_study(replace(config, n=int(n)), n_jobs=n_jobs)
        rows.append((int(n), res.acceptance_rate,
                     res.complete_case_proportion, res.inconclusive))
    return rows
