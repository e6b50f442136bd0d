"""End-to-end goodness-of-fit procedures and structured reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import ObservedDataset
from .estimation import (EstimationError, check_n_bootstrap, estimate_odds_ratio,
                         fit_cascade_mar, fit_cascade_mnar, step_test)
from .graph import MDag

ACCEPTED = "accepted"
REJECTED = "rejected"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StepRecord:
    label: str            # variable name, or "Ri~Rj" for a pair
    statistic: float | None
    df: int | None
    p_value: float | None
    decision: str         # accept / reject / inconclusive
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {"k": self.label, "statistic": self.statistic, "df": self.df,
                "p_value": self.p_value, "decision": self.decision,
                "diagnostics": self.diagnostics}


@dataclass(frozen=True)
class TestReport:
    model: str
    order: tuple
    alpha: float
    steps: tuple
    verdict: str

    def to_dict(self):
        return {"model": self.model, "order": list(self.order),
                "alpha": self.alpha,
                "steps": [s.to_dict() for s in self.steps],
                "verdict": self.verdict}

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def test_sequential_mar(data: ObservedDataset, order, alpha=0.05) -> TestReport:
    """Backward sequence of weighted likelihood-ratio tests of the
    sequential-MAR restrictions; early exit on the first rejection."""
    return _sequential_test("sequential-MAR", fit_cascade_mar, data, order, alpha)


def test_sequential_mnar(data: ObservedDataset, order, alpha=0.05,
                         graph: MDag | None = None) -> TestReport:
    """Backward sequence of weighted likelihood-ratio tests of the
    sequential-MNAR restrictions.  A declared graph with a colluder or
    criss-cross is refused (the cascade is not identified there)."""
    return _sequential_test(
        "sequential-MNAR",
        lambda ordered, order: fit_cascade_mnar(ordered, order, graph=graph),
        data, order, alpha)


def _sequential_test(model, fit_cascade, data, order, alpha):
    """Fit the model's propensity cascade and test its steps backward,
    stopping at the first rejection."""
    _check_alpha(alpha)
    order = tuple(order)
    ordered = data.reorder(order)
    if len(order) <= 1:
        return TestReport(model, order, alpha, (), ACCEPTED)
    try:
        cascade = fit_cascade(ordered, order)
    except EstimationError as exc:
        step = StepRecord("cascade", None, None, None, INCONCLUSIVE,
                         {"error": str(exc)})
        return TestReport(model, order, alpha, (step,), INCONCLUSIVE)

    steps = []
    verdict = ACCEPTED
    for step in cascade.steps:
        rho, two_rho, df, p = step_test(ordered, step)
        decision = "reject" if p < alpha else "accept"
        steps.append(StepRecord(order[step.k], two_rho, df, p, decision,
                                _step_diag(step)))
        if decision == "reject":
            verdict = REJECTED
            break
    return TestReport(model, order, alpha, tuple(steps), verdict)


def test_block_parallel(data: ObservedDataset, alpha=0.05, n_bootstrap=200,
                        seed=0) -> TestReport:
    """Pairwise odds-ratio tests of the block-parallel restrictions.

    All pairs are evaluated (no early exit) so the report names every
    failing pair; a pair rejects when its bootstrap CI excludes 1.
    """
    _check_alpha(alpha)
    check_n_bootstrap(n_bootstrap)
    steps = []
    any_reject = False
    any_inconclusive = False
    for k in range(data.K):
        for j in range(k + 1, data.K):
            label = f"{data.names[k]}~{data.names[j]}"
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(k, j)))
            try:
                est = estimate_odds_ratio(data, (k, j), alpha=alpha,
                                          n_bootstrap=n_bootstrap, rng=rng)
            except EstimationError as exc:
                steps.append(StepRecord(label, None, None, None, INCONCLUSIVE,
                                        {"error": str(exc)}))
                any_inconclusive = True
                continue
            decision = "reject" if est.ci_excludes_one else "accept"
            any_reject |= est.ci_excludes_one
            steps.append(StepRecord(label, est.theta_hat, None, None, decision,
                                    {"ci": list(est.bootstrap_ci),
                                     "n_bootstrap": est.n_bootstrap,
                                     "failed_resamples": est.n_failed_resamples,
                                     "failed_resamples_by_reason": est.failed_by_reason,
                                     "n_patterns": est.n_patterns,
                                     "numerator_cell": est.numerator_cell}))
    if any_reject:
        verdict = REJECTED
    elif any_inconclusive:
        verdict = INCONCLUSIVE
    else:
        verdict = ACCEPTED
    return TestReport("block-parallel", data.names, alpha, tuple(steps), verdict)


def _step_diag(step):
    w = np.asarray(step.weights, dtype=float)
    return {
        "n_masked": int(step.mask.sum()),
        "max_weight": float(w.max()) if w.size else 0.0,
        "clip_events": int(step.clip_events),
        "stabilized": bool(step.stabilized),
    }
