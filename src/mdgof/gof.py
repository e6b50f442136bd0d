"""End-to-end goodness-of-fit procedures and structured reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .data import ObservedDataset
from .estimation import (EstimationError, _pattern_odds_ratio, _row_patterns,
                         _sorted_patterns, check_alpha, check_n_bootstrap,
                         mar_steps, mnar_steps)
from .graph import MDag
from .numerics import child_rng

ACCEPTED = "accepted"
REJECTED = "rejected"
INCONCLUSIVE = "inconclusive"
# Version of the JSON report's layout, its first key: it changes when a key
# is renamed, removed or changes meaning.
REPORT_SCHEMA = 1


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
        return {"schema": REPORT_SCHEMA, "model": self.model,
                "order": list(self.order), "alpha": self.alpha,
                "steps": [s.to_dict() for s in self.steps],
                "verdict": self.verdict}

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)


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
                            lambda rows, counts: mnar_steps(rows, graph, counts),
                            data, order, alpha)


def _sequential_test(model, cascade_steps, data, order, alpha):
    """One pass over the model's cascade: each step comes tested from its
    fit, and the first rejection ends the test, so nothing after it is
    built or fit.  The cascade runs on the distinct (R, X*) rows with their
    counts, as the odds-ratio bootstrap does: every quantity it computes
    for a row depends only on the row's pattern.  A cascade that fails
    before any rejection makes the test inconclusive: the report keeps the
    steps accepted so far and adds one record, labelled with the variable
    whose step or weight fit failed, that names the failure.  A dataset
    without rows is such a failure, labelled "cascade": every column would
    count as fully observed, and the test would accept on no evidence."""
    check_alpha(alpha)
    order = tuple(order)
    patterns, counts = _row_patterns(data.reorder(order))
    steps = []
    try:
        if not data.n:
            raise EstimationError("the dataset has no rows")
        for step in cascade_steps(patterns, counts):
            decision = "reject" if step.p_value < alpha else "accept"
            steps.append(StepRecord(order[step.k], step.statistic, step.df,
                                    step.p_value, decision, _step_diag(step)))
            del step  # the cascade's next build and fits need not hold it
            if decision == "reject":
                return TestReport(model, order, alpha, tuple(steps), REJECTED)
    except EstimationError as exc:
        label = "cascade" if exc.index is None else order[exc.index]
        steps.append(StepRecord(label, None, None, None, INCONCLUSIVE,
                                {"error": str(exc)}))
        return TestReport(model, order, alpha, tuple(steps), INCONCLUSIVE)
    return TestReport(model, order, alpha, tuple(steps), ACCEPTED)


def test_block_parallel(data: ObservedDataset, alpha=0.05, n_bootstrap=200,
                        seed=0) -> TestReport:
    """Pairwise odds-ratio tests of the block-parallel restrictions.

    All pairs are evaluated (no early exit) so the report names every
    failing pair; a pair rejects when its bootstrap CI excludes 1.  The
    data are compressed to distinct (R, X*) rows, or sorted when they do
    not compress, once for every pair.
    """
    check_alpha(alpha)
    check_n_bootstrap(n_bootstrap)
    patterns, counts = _sorted_patterns(data)
    steps = []
    for k in range(data.K):
        for j in range(k + 1, data.K):
            label = f"{data.names[k]}~{data.names[j]}"
            try:
                est = _pattern_odds_ratio(patterns, counts, data.n, (k, j),
                                          alpha, n_bootstrap, child_rng(seed, k, j))
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
        "n_masked": int(step.counts.sum()),
        "max_weight": float((step.weights / step.counts).max()),
        "clip_events": int(step.clip_events),
        "stabilized": bool(step.stabilized),
        "n_patterns": int(step.mask.size),
    }
