"""End-to-end goodness-of-fit procedures and structured reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .data import ObservedDataset
from .estimation import (EstimationError, check_n_bootstrap, estimate_odds_ratio,
                         mar_steps, mnar_steps, step_test)
from .graph import MDag
from .numerics import child_rng

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
    return _sequential_test("sequential-MAR", mar_steps, data, order, alpha)


def test_sequential_mnar(data: ObservedDataset, order, alpha=0.05,
                         graph: MDag | None = None) -> TestReport:
    """Backward sequence of weighted likelihood-ratio tests of the
    sequential-MNAR restrictions.  A declared graph with a colluder or
    criss-cross is refused (the cascade is not identified there)."""
    return _sequential_test("sequential-MNAR",
                            lambda ordered: mnar_steps(ordered, graph),
                            data, order, alpha)


def _sequential_test(model, cascade_steps, data, order, alpha):
    """One pass over the model's cascade: each step is tested as soon as it
    is fit, and the first rejection ends the test, so nothing after it is
    built or fit.  A cascade that fails before any rejection makes the test
    inconclusive, with one record naming the failure."""
    _check_alpha(alpha)
    order = tuple(order)
    ordered = data.reorder(order)
    if len(order) <= 1:
        return TestReport(model, order, alpha, (), ACCEPTED)
    steps = []
    try:
        for step in cascade_steps(ordered):
            rho, two_rho, df, p = step_test(ordered, step)
            decision = "reject" if p < alpha else "accept"
            steps.append(StepRecord(order[step.k], two_rho, df, p, decision,
                                    _step_diag(step)))
            if decision == "reject":
                return TestReport(model, order, alpha, tuple(steps), REJECTED)
    except EstimationError as exc:
        step = StepRecord("cascade", None, None, None, INCONCLUSIVE,
                          {"error": str(exc)})
        return TestReport(model, order, alpha, (step,), INCONCLUSIVE)
    return TestReport(model, order, alpha, tuple(steps), ACCEPTED)


def test_block_parallel(data: ObservedDataset, alpha=0.05, n_bootstrap=200,
                        seed=0) -> TestReport:
    """Pairwise odds-ratio tests of the block-parallel restrictions.

    All pairs are evaluated (no early exit) so the report names every
    failing pair; a pair rejects when its bootstrap CI excludes 1.
    """
    _check_alpha(alpha)
    check_n_bootstrap(n_bootstrap)
    steps = []
    for k in range(data.K):
        for j in range(k + 1, data.K):
            label = f"{data.names[k]}~{data.names[j]}"
            try:
                est = estimate_odds_ratio(data, (k, j), alpha=alpha,
                                          n_bootstrap=n_bootstrap,
                                          rng=child_rng(seed, k, j))
            except EstimationError as exc:
                steps.append(StepRecord(label, None, None, None, INCONCLUSIVE,
                                        {"error": str(exc)}))
                continue
            decision = "reject" if est.ci_excludes_one else "accept"
            steps.append(StepRecord(label, est.theta_hat, None, None, decision,
                                    {"ci": list(est.bootstrap_ci),
                                     "n_bootstrap": est.n_bootstrap,
                                     "failed_resamples": est.n_failed_resamples,
                                     "failed_resamples_by_reason": est.failed_by_reason,
                                     "n_patterns": est.n_patterns,
                                     "numerator_cell": est.numerator_cell}))
    decisions = {s.decision for s in steps}
    verdict = (REJECTED if "reject" in decisions else
               INCONCLUSIVE if INCONCLUSIVE in decisions else ACCEPTED)
    return TestReport("block-parallel", data.names, alpha, tuple(steps), verdict)


def _step_diag(step):
    return {
        "n_masked": int(step.mask.sum()),
        "max_weight": float(step.weights.max()),
        "clip_events": int(step.clip_events),
        "stabilized": bool(step.stabilized),
    }
