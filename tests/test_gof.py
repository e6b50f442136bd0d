"""End-to-end goodness-of-fit procedures and their reports."""

import collections
import dataclasses
import functools
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgof import estimation, gof
from mdgof.data import DataError, ObservedDataset
from mdgof.estimation import EstimationError
from mdgof.gof import ACCEPTED, INCONCLUSIVE, REJECTED
from mdgof.gof import test_block_parallel as run_block_parallel
from mdgof.gof import test_sequential_mar as run_sequential_mar
from mdgof.gof import test_sequential_mnar as run_sequential_mnar
from mdgof.graph import GraphError, MDag
from mdgof.simulate import ScenarioConfig, simulate_dataset


def scenario_dataset(scenario, n, seed, dist="binary", K=4,
                     param_range=(0.0, 2.0)):
    config = ScenarioConfig(scenario=scenario, dist=dist, K=K, n=n,
                            param_range=param_range, seed=seed)
    return simulate_dataset(config, 0)[0]


class TestSequentialMar:
    def test_single_variable_vacuous(self):
        data = scenario_dataset("mar-null", 500, 0, K=1)
        report = run_sequential_mar(data, ("X1",))
        assert report.verdict == ACCEPTED
        assert report.steps == ()

    def test_complete_data_accepted(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        data = ObservedDataset(("X1", "X2", "X3"),
                               np.ones((200, 3), dtype=np.int8), x)
        report = run_sequential_mar(data, data.names)
        assert report.verdict == ACCEPTED

    def test_null_accepted(self):
        data = scenario_dataset("mar-null", 10_000, 1)
        report = run_sequential_mar(data, data.names)
        assert report.verdict == ACCEPTED
        assert all(s.decision == "accept" for s in report.steps)
        assert len(report.steps) == 3

    def test_failure_after_an_accepted_step_keeps_it(self):
        # X3 is X2, fully observed.  Step X2 tests X3 and accepts; step X1
        # tests X2 and X3, equal on its rows, so its information is
        # singular.  The report keeps X2's record and names X1's failure.
        rng = np.random.default_rng(0)
        n = 2000
        x1, x2 = rng.normal(size=(2, n))
        r1 = rng.random(n) < 0.8
        r2 = rng.random(n) < 1.0 / (1.0 + np.exp(-0.5 - 0.5 * np.where(r1, x1, 0.0)))
        r = np.column_stack([r1, r2, np.ones(n, dtype=bool)]).astype(np.int8)
        data = ObservedDataset(("X1", "X2", "X3"), r,
                               np.where(r == 1, np.column_stack([x1, x2, x2]), np.nan))
        report = run_sequential_mar(data, data.names)
        assert report.verdict == INCONCLUSIVE
        accepted, failed = report.steps
        assert (accepted.label, accepted.decision, accepted.df) == ("X2", "accept", 1)
        assert "error" not in accepted.diagnostics
        assert (failed.label, failed.decision, failed.statistic) == (
            "X1", INCONCLUSIVE, None)
        assert failed.diagnostics["error"].startswith(
            "robust p-value: singular information matrix")

    def test_alt_rejected_with_early_exit(self):
        data = scenario_dataset("mar-alt", 10_000, 0)
        report = run_sequential_mar(data, data.names)
        assert report.verdict == REJECTED
        assert report.steps[-1].decision == "reject"

    def test_report_structure(self):
        data = scenario_dataset("mar-null", 5000, 1)
        report = run_sequential_mar(data, data.names)
        obj = json.loads(report.to_json())
        assert obj["model"] == "sequential-MAR"
        assert obj["order"] == list(data.names)
        for step in obj["steps"]:
            assert set(step) == {"k", "statistic", "df", "p_value",
                                 "decision", "diagnostics"}
            assert 0.0 <= step["p_value"] <= 1.0
            assert step["df"] >= 1

    def test_alpha_validated(self):
        data = scenario_dataset("mar-null", 500, 0)
        with pytest.raises(ValueError):
            run_sequential_mar(data, data.names, alpha=1.5)

    def test_deterministic_report(self):
        data = scenario_dataset("mar-null", 4000, 2)
        a = run_sequential_mar(data, data.names).to_json()
        b = run_sequential_mar(data, data.names).to_json()
        assert a == b


class TestSequentialMnar:
    def test_null_accepted(self):
        data = scenario_dataset("mnar-null", 10_000, 0)
        report = run_sequential_mnar(data, data.names)
        assert report.verdict == ACCEPTED
        assert len(report.steps) == 3

    def test_alt_rejected(self):
        data = scenario_dataset("mnar-alt", 10_000, 0)
        report = run_sequential_mnar(data, data.names)
        assert report.verdict == REJECTED

    def test_two_variable_single_step(self):
        data = scenario_dataset("mnar-null", 8000, 3, K=2)
        report = run_sequential_mnar(data, ("X1", "X2"))
        assert len(report.steps) == 1
        assert report.steps[0].label == "X2"
        assert report.steps[0].df == 1

    def test_crisscross_graph_inconclusive(self):
        data = scenario_dataset("mnar-null", 2000, 0, K=2)
        g = MDag.create(("X1", "X2"),
                        edges=[("X1", "X2"), ("X2", "R1"), ("X1", "R2"),
                               ("R1", "R2")])
        report = run_sequential_mnar(data, data.names, graph=g)
        assert report.verdict == INCONCLUSIVE
        assert "error" in report.steps[0].diagnostics

    def test_colluder_report_names_only_the_blockers(self, monkeypatch):
        # The refusal reads colluders and criss-crosses alone: no colluding
        # path is enumerated, and the message names only those structures.
        def no_paths(*args):
            raise AssertionError("colluding paths enumerated")
        monkeypatch.setattr("mdgof.graph._colluding_paths", no_paths)
        data = scenario_dataset("mnar-null", 2000, 0)
        g = MDag.create(data.names, edges=[("X1", "X2"), ("X1", "R2"), ("R1", "R2")])
        report = run_sequential_mnar(data, data.names, graph=g)
        assert report.verdict == INCONCLUSIVE
        assert report.steps[0].diagnostics["error"] == (
            "declared graph blocks identification of the cascade: "
            "colluders [['X1', 'R2', 'R1']], criss-crosses []")

    @pytest.mark.parametrize("K, missing", [(4, "X1, X2, X3, X4"), (1, "X1")])
    def test_graph_over_other_variables_refused(self, K, missing):
        # Also at K = 1, where the cascade has no step to test.
        data = scenario_dataset("mnar-null", 2000, 0, K=K)
        g = MDag.create(("A", "B"), [("A", "B")])
        with pytest.raises(GraphError, match=f"missing {missing}; unknown A, B$"):
            run_sequential_mnar(data, data.names, graph=g)

    def test_single_variable_vacuous(self):
        data = scenario_dataset("mnar-null", 500, 0, K=1)
        assert run_sequential_mnar(data, ("X1",)).verdict == ACCEPTED


@pytest.mark.parametrize("run, scenario", [(run_sequential_mar, "mar-null"),
                                           (run_sequential_mnar, "mnar-null")])
class TestSequentialReports:
    def test_order_must_be_a_permutation(self, run, scenario):
        data = scenario_dataset(scenario, 500, 0)
        with pytest.raises(DataError, match="repeated X1$"):
            run(data, ("X1", "X1", "X2", "X3", "X4"))
        with pytest.raises(DataError, match="missing X2, X3, X4$"):
            run(data, ("X1",))

    def test_unconverged_stabilizer_reported(self, run, scenario, monkeypatch):
        data = scenario_dataset(scenario, 3000, 1)
        assert all(s.diagnostics["stabilized"] for s in run(data, data.names).steps)
        real = estimation.fit_weighted_logistic
        real_patterns = gof._row_patterns
        compressed = []  # the (patterns, counts) the cascade runs on
        forced = []

        def row_patterns(data):
            patterns, counts = real_patterns(data)
            compressed.append((patterns, counts))
            return patterns, counts

        def fit(design, outcome, weights=None, **kw):
            result = real(design, outcome, weights, **kw)
            # The stabilizer is the one fit weighted by the counts alone
            # whose outcome is the row mask rather than one of the
            # cascade's indicator columns.
            patterns, counts = compressed[-1]
            if weights is counts and not np.shares_memory(outcome, patterns.r):
                forced.append(design.p)
                return dataclasses.replace(result, converged=False,
                                           message="forced")
            return result

        monkeypatch.setattr(gof, "_row_patterns", row_patterns)
        monkeypatch.setattr(estimation, "fit_weighted_logistic", fit)
        report = run(data, data.names)
        assert len(report.steps) == 3
        # A mask that keeps every row (MNAR's first step) needs no
        # stabilizer, so no fit is made for it.
        assert len(forced) == sum(s.diagnostics["n_masked"] < data.n
                                  for s in report.steps)
        assert [s.diagnostics["stabilized"] for s in report.steps] == [
            s.diagnostics["n_masked"] == data.n for s in report.steps]
        assert not all(s.diagnostics["stabilized"] for s in report.steps)


def _count_calls(monkeypatch, *names):
    """Counter of the calls the cascades make to ``names`` in estimation."""
    calls = collections.Counter()
    for name in names:
        def counting(*args, real=getattr(estimation, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(estimation, name, counting)
    return calls


@pytest.mark.parametrize("run, scenario, seed, verdict, fits, builds", [
    # MAR, K = 4: X4 a full-sample null; X3 and X2 a stabilizer, a masked
    # null and an alternative on the step's design, then, once the step is
    # accepted, a full-sample null on a design of its own; X1 the step's
    # three fits.  So a rejection at X3 fits no null for X3: 4 fits and 2
    # builds, where fitting X3's null with its step made 5 and 2, and an
    # accepted test builds 6 designs where sharing the step's made 4.
    (run_sequential_mar, "mar-null", 0, ACCEPTED, 12, 6),
    (run_sequential_mar, "mar-alt", 2, REJECTED, 4, 2),
    # MNAR, K = 4: X4 a null and an alternative (its null fit is its weight
    # update); X3 a stabilizer, a null, an alternative and a weight update;
    # X2 the first three, since no step reads its weight update.
    (run_sequential_mnar, "mnar-null", 0, ACCEPTED, 9, 3),
    (run_sequential_mnar, "mnar-alt", 1, REJECTED, 2, 1)])
def test_one_pass_fits_and_builds(run, scenario, seed, verdict, fits, builds,
                                  monkeypatch):
    # Every index is partially observed; a rejection at the first step
    # ends the test before anything more is built or fit.
    data = scenario_dataset(scenario, 3000, seed)
    assert not np.any(np.all(data.r == 1, axis=0))
    calls = _count_calls(monkeypatch, "fit_weighted_logistic", "build_features")
    report = run(data, data.names)
    assert report.verdict == verdict
    assert len(report.steps) == (3 if verdict == ACCEPTED else 1)
    assert calls == {"fit_weighted_logistic": fits, "build_features": builds}


@pytest.mark.parametrize("run, scenario, seed, verdict, builds", [
    (run_sequential_mar, "mar-alt", 2, REJECTED, 2),
    (run_sequential_mar, "mar-null", 0, INCONCLUSIVE, 2),
    (run_sequential_mnar, "mnar-alt", 1, REJECTED, 1),
    (run_sequential_mnar, "mnar-null", 0, INCONCLUSIVE, 1)])
def test_failure_after_the_first_step(run, scenario, seed, verdict, builds,
                                      monkeypatch):
    # Every build after the first step's fails.  After a rejection nothing
    # is built, so the rejection stands; after an acceptance the failure
    # makes the test inconclusive: the report keeps the accepted step and
    # adds a record of the failure, labelled with the variable of the failed
    # build, X3's full-sample null (MAR) or X3's step (MNAR).
    data = scenario_dataset(scenario, 3000, seed)
    real = estimation.build_features
    built = []

    def failing_later(*args):
        built.append(args[1])
        if len(built) > builds:
            raise EstimationError("no rows left")
        return real(*args)

    monkeypatch.setattr(estimation, "build_features", failing_later)
    report = run(data, data.names)
    assert report.verdict == verdict
    if verdict == REJECTED:
        assert len(built) == builds
        assert [s.decision for s in report.steps] == ["reject"]
    else:
        assert len(built) == builds + 1
        accepted, failed = report.steps
        assert (accepted.label, accepted.decision) == ("X4" if scenario == "mnar-null"
                                                       else "X3", "accept")
        assert failed.to_dict() == {
            "k": "X3", "statistic": None, "df": None, "p_value": None,
            "decision": INCONCLUSIVE, "diagnostics": {"error": "no rows left"}}


def test_mar_fits_no_null_for_a_rejected_step(monkeypatch):
    # MAR accepts X3 and rejects X2.  X4's and X3's full-sample nulls weight
    # the steps after them; X2's would weight X1's step, which is never
    # reached, so it is never fit.
    data = scenario_dataset("mar-alt", 3000, 1)
    real = estimation.build_features
    nulls = []

    def build_features(data, k, null_proxies, tested_proxies):
        if not tested_proxies:  # a full-sample null's design
            nulls.append(data.names[k])
        return real(data, k, null_proxies, tested_proxies)

    monkeypatch.setattr(estimation, "build_features", build_features)
    calls = _count_calls(monkeypatch, "fit_weighted_logistic", "build_features")
    report = run_sequential_mar(data, data.names)
    assert [(s.label, s.decision) for s in report.steps] == [
        ("X3", "accept"), ("X2", "reject")]
    assert nulls == ["X4", "X3"]
    assert calls == {"fit_weighted_logistic": 8, "build_features": 4}


def test_rejection_stands_when_a_later_null_would_fail(monkeypatch):
    # Every full-sample null of X3 or an earlier index fails to converge.
    # The test rejects at X3, and no step reads those nulls, so none is fit
    # and the rejection stands.
    data = scenario_dataset("mar-alt", 3000, 2)
    real = estimation.fit_weighted_logistic
    real_patterns = gof._row_patterns
    compressed = []  # the (patterns, counts) the cascade runs on
    nulls = []  # the column count of every full-sample null fit

    def row_patterns(data):
        patterns, counts = real_patterns(data)
        compressed.append((patterns, counts))
        return patterns, counts

    def fit(design, outcome, weights=None, **kw):
        result = real(design, outcome, weights, **kw)
        # A full-sample null is weighted by the counts alone and has an
        # indicator column for its outcome; index k's has 1 + 2k columns.
        patterns, counts = compressed[-1]
        if weights is counts and np.shares_memory(outcome, patterns.r):
            nulls.append(design.p)
            if design.p <= 5:
                return dataclasses.replace(result, converged=False, message="forced")
        return result

    monkeypatch.setattr(gof, "_row_patterns", row_patterns)
    monkeypatch.setattr(estimation, "fit_weighted_logistic", fit)
    report = run_sequential_mar(data, data.names)
    assert report.verdict == REJECTED
    assert [(s.label, s.decision) for s in report.steps] == [("X3", "reject")]
    assert nulls == [7]  # X4's, which X3's step reads


def _memory_owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


# MAR builds each full-sample null's design after its step is accepted
# (6 builds); MNAR builds one design per step (3).
@pytest.mark.parametrize("run, family, builds", [(run_sequential_mar, "mar", 6),
                                                 (run_sequential_mnar, "mnar", 3)])
@pytest.mark.parametrize("dist", ["binary", "gaussian"])
def test_no_design_outlives_its_test(run, family, builds, dist, monkeypatch):
    # Every design a fit ran on (full-row, masked or null) is freed before
    # the next step's design is built: neither the test's loop nor the
    # cascade holds a tested step or a design once nothing reads it.
    data = scenario_dataset(f"{family}-null", 3000, 0, dist=dist)
    real_fit, real_build = estimation.fit_weighted_logistic, estimation.build_features
    fitted, built = [], []

    def fit(design, *args, **kwargs):
        fitted.append(weakref.ref(_memory_owner(design.values)))
        return real_fit(design, *args, **kwargs)

    def build(*args):
        live = [ref().shape for ref in fitted if ref() is not None]
        assert not live, f"designs alive at build {len(built) + 1}: {live}"
        built.append(args[1])
        return real_build(*args)

    monkeypatch.setattr(estimation, "fit_weighted_logistic", fit)
    monkeypatch.setattr(estimation, "build_features", build)
    report = run(data, data.names)
    assert report.verdict == ACCEPTED
    assert len(built) == builds


def _row_level_report(run, data, alpha=0.05):
    """(verdict, steps) of ``run``'s cascade on ``data`` with every row
    counted once, each step tested as the sequential tests test it: a step
    is (label, 2*rho, df, p, decision, n_masked, clip_events, max_weight)."""
    steps = (estimation.mar_steps(data) if run is run_sequential_mar
             else estimation.mnar_steps(data, None))
    records = []
    for step in steps:
        decision = "reject" if step.p_value < alpha else "accept"
        records.append((data.names[step.k], step.statistic, step.df,
                        step.p_value, decision,
                        int(step.mask.sum()), step.clip_events,
                        float(step.weights.max())))
        if decision == "reject":
            return REJECTED, records
    return ACCEPTED, records


@pytest.mark.parametrize("run, family", [(run_sequential_mar, "mar"),
                                         (run_sequential_mnar, "mnar")])
@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("clip", [estimation.PROPENSITY_CLIP, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compressed_cascade_equals_row_level(run, family, alt, clip, seed,
                                             monkeypatch):
    # The sequential tests fit binary data's distinct (R, X*) rows with
    # counts; the cascade on every row must give the same report.  Only
    # the order of the sums differs, so statistics and p-values agree to
    # 1e-9 as in the row-order test, and so does the largest weight, a
    # product of fitted propensities.  A clip floor of 0.9 clips many
    # propensities, so clip_events counts rows, not patterns.
    monkeypatch.setattr(estimation, "PROPENSITY_CLIP", clip)
    data = scenario_dataset(f"{family}-{'alt' if alt else 'null'}", 2000, seed)
    report = run(data, data.names)
    verdict, want = _row_level_report(run, data)
    assert report.verdict == verdict
    assert [(s.label, s.df, s.decision) for s in report.steps] == [
        (w[0], w[2], w[4]) for w in want]
    for s, (_, two_rho, _, p, _, n_masked, clip_events, max_weight) in zip(
            report.steps, want):
        assert s.statistic == pytest.approx(two_rho, rel=1e-9, abs=1e-9)
        assert s.p_value == pytest.approx(p, rel=1e-9, abs=1e-9)
        d = s.diagnostics
        assert (d["n_masked"], d["clip_events"]) == (n_masked, clip_events)
        assert d["max_weight"] == pytest.approx(max_weight, rel=1e-9)
        assert d["n_patterns"] <= 3 ** data.K < data.n
    if clip == 0.9:
        assert any(s.diagnostics["clip_events"] for s in report.steps)


@functools.cache
def _natural_order_report(run, scenario):
    data = scenario_dataset(scenario, 2000, 4, dist="gaussian")
    return data, run(data, data.names).to_dict()


@pytest.mark.parametrize("run, scenario", [(run_sequential_mar, "mar-null"),
                                           (run_sequential_mnar, "mnar-null")])
@settings(max_examples=15, deadline=None)
@given(perm=st.permutations(range(4)),
       names=st.lists(st.text(min_size=1, max_size=6), min_size=4, max_size=4,
                      unique=True))
def test_report_invariant_to_column_names_and_positions(run, scenario, perm, names):
    # Moving the columns and renaming the variables, with the order mapped
    # alike, must leave the report exactly as it was apart from its labels.
    data, want = _natural_order_report(run, scenario)
    rename = dict(zip(data.names, names))
    moved = ObservedDataset(tuple(names[i] for i in perm),
                            data.r[:, perm], data.xstar[:, perm])
    got = run(moved, [rename[v] for v in data.names]).to_dict()
    back = {new: old for old, new in rename.items()}
    got["order"] = [back[v] for v in got["order"]]
    for step in got["steps"]:
        step["k"] = back[step["k"]]
    assert got == want


@pytest.mark.parametrize("run, family", [(run_sequential_mar, "mar"),
                                         (run_sequential_mnar, "mnar")])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), alt=st.booleans(),
       dist=st.sampled_from(("binary", "gaussian")),
       perm_seed=st.integers(0, 2 ** 32 - 1))
def test_report_invariant_to_row_order(run, family, seed, alt, dist, perm_seed):
    # Permuting the rows leaves the verdict, each step's label, df and
    # decision, and each statistic within 1e-9 relative.  Summing the rows
    # in another order moves each log-likelihood by about 1e-12, so a
    # statistic near 0 is compared to 1e-9 absolute, as is a p-value: its
    # sandwich eigenvalues amplify rounding in fits near separation (up to
    # 3.5e-11 absolute, 8.5e-9 relative, in 5031 binary and gaussian steps).
    data = scenario_dataset(f"{family}-{'alt' if alt else 'null'}", 1500, seed,
                            dist=dist)
    perm = np.random.default_rng(perm_seed).permutation(data.n)
    moved = ObservedDataset(data.names, data.r[perm], data.xstar[perm])
    want, got = run(data, data.names), run(moved, data.names)
    assert got.verdict == want.verdict
    assert [(s.label, s.df, s.decision) for s in got.steps] == [
        (s.label, s.df, s.decision) for s in want.steps]
    for g, w in zip(got.steps, want.steps):
        if w.statistic is None:
            assert g.statistic is None and g.diagnostics == w.diagnostics
            continue
        assert g.statistic == pytest.approx(w.statistic, rel=1e-9, abs=1e-9)
        assert g.p_value == pytest.approx(w.p_value, rel=1e-9, abs=1e-9)
        assert g.diagnostics == pytest.approx(w.diagnostics, rel=1e-9)


@pytest.mark.parametrize("model, run", [
    ("sequential-MAR", lambda data: run_sequential_mar(data, data.names)),
    ("sequential-MNAR", lambda data: run_sequential_mnar(data, data.names)),
    ("block-parallel", lambda data: run_block_parallel(data, n_bootstrap=20)),
], ids=["mar", "mnar", "bp"])
def test_json_report_states_its_schema(model, run):
    report = json.loads(run(scenario_dataset("mar-null", 1000, 1)).to_json())
    assert list(report) == ["schema", "model", "order", "alpha", "steps", "verdict"]
    assert (report["schema"], report["model"]) == (1, model)


class TestBlockParallel:
    def test_independent_coin_flips_accepted(self):
        rng = np.random.default_rng(6)
        n = 4000
        x = rng.normal(size=(n, 3))
        r = (rng.random((n, 3)) < 0.8).astype(np.int8)
        data = ObservedDataset(("X1", "X2", "X3"),
                               r, np.where(r == 1, x, np.nan))
        report = run_block_parallel(data, seed=0, n_bootstrap=100)
        assert report.verdict == ACCEPTED
        assert len(report.steps) == 3  # every unordered pair

    def test_alt_rejected_and_all_pairs_reported(self):
        data = scenario_dataset("bp-alt", 8000, 1)
        report = run_block_parallel(data, seed=0, n_bootstrap=100)
        assert report.verdict == REJECTED
        assert len(report.steps) == 6
        assert any(s.decision == "reject" for s in report.steps)

    def test_steps_report_patterns_and_numerator_cell(self):
        data = scenario_dataset("bp-alt", 3000, 3)
        report = run_block_parallel(data, seed=0, n_bootstrap=40)
        for step in report.steps:
            assert step.diagnostics["n_patterns"] <= 3 ** data.K
            assert step.diagnostics["numerator_cell"] >= 0
        first = report.steps[0]  # X1~X2
        cell = (data.r[:, 2] == 1) & (data.r[:, 3] == 1) \
            & (data.r[:, 0] == 0) & (data.r[:, 1] == 0)
        assert first.label == "X1~X2"
        assert first.diagnostics["numerator_cell"] == int(cell.sum())

    def test_steps_report_failed_resamples_by_reason(self):
        data = scenario_dataset("bp-null", 60, 3, K=3)
        report = run_block_parallel(data, seed=0, n_bootstrap=60)
        for step in report.steps:
            if step.decision == INCONCLUSIVE:
                continue
            by_reason = step.diagnostics["failed_resamples_by_reason"]
            assert set(by_reason) == {"no variation", "fit not converged"}
            assert sum(by_reason.values()) == step.diagnostics["failed_resamples"]
        json.loads(report.to_json())

    @pytest.mark.parametrize("n_bootstrap", [9, -3])
    def test_bootstrap_count_below_minimum_refused(self, n_bootstrap):
        data = scenario_dataset("bp-null", 500, 1)
        with pytest.raises(ValueError, match="at least 10") as info:
            run_block_parallel(data, seed=0, n_bootstrap=n_bootstrap)
        assert not isinstance(info.value, estimation.EstimationError)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empty_numerator_cell_inconclusive(self, seed):
        # bp-null (the restrictions hold) at n = 80, K = 3: the X1~X2
        # numerator cell is empty, which once gave CI (0, 0) and a rejection.
        data = scenario_dataset("bp-null", 80, seed, K=3)
        report = run_block_parallel(data, seed=0, n_bootstrap=50)
        first = report.steps[0]
        assert first.label == "X1~X2"
        assert first.decision == INCONCLUSIVE
        assert "empty numerator cell" in first.diagnostics["error"]
        assert report.verdict == INCONCLUSIVE

    def test_point_estimate_without_variation_inconclusive(self):
        # X1 and X2 are never observed together: the numerator cell (both
        # missing) has rows, but every row with X2 observed misses X1, so
        # X1's propensity has a one-class outcome.
        rng = np.random.default_rng(2)
        r = np.array([[0, 0], [0, 1], [1, 0]] * 40, dtype=np.int8)
        data = ObservedDataset(("X1", "X2"), r,
                               np.where(r == 1, rng.normal(size=r.shape), np.nan))
        report = run_block_parallel(data, seed=0, n_bootstrap=20)
        assert report.verdict == INCONCLUSIVE
        assert [s.to_dict() for s in report.steps] == [
            {"k": "X1~X2", "statistic": None, "df": None, "p_value": None,
             "decision": INCONCLUSIVE,
             "diagnostics": {"error": "no variation in X1 among rows with all "
                                      "other indicators observed"}}]

    def test_empty_dataset_inconclusive(self):
        data = ObservedDataset(("X1", "X2", "X3"), np.zeros((0, 3)),
                               np.zeros((0, 3)))
        report = run_block_parallel(data, seed=0, n_bootstrap=10)
        assert report.verdict == INCONCLUSIVE
        assert all("error" in s.diagnostics for s in report.steps)

    @pytest.mark.parametrize("run", [run_sequential_mar, run_sequential_mnar])
    def test_sequential_empty_dataset_inconclusive(self, run):
        # With no rows every column would count as fully observed, and the
        # cascade would have no step to reject.
        data = ObservedDataset(("X1", "X2", "X3"), np.zeros((0, 3)),
                               np.zeros((0, 3)))
        report = run(data, ("X3", "X1", "X2"))
        assert report.verdict == INCONCLUSIVE
        assert [s.to_dict() for s in report.steps] == [
            {"k": "cascade", "statistic": None, "df": None, "p_value": None,
             "decision": INCONCLUSIVE,
             "diagnostics": {"error": "the dataset has no rows"}}]

    @pytest.mark.parametrize("scenario, dist", [("bp-alt", "binary"),
                                                ("bp-null", "gaussian")])
    def test_data_compressed_once_for_every_pair(self, monkeypatch, scenario, dist):
        data = scenario_dataset(scenario, 1500, 3, dist=dist)
        real_patterns = estimation._row_patterns
        calls = []

        def row_patterns(rows):
            calls.append(rows)
            return real_patterns(rows)

        monkeypatch.setattr(gof, "_row_patterns", row_patterns)
        monkeypatch.setattr(estimation, "_row_patterns", row_patterns)
        report = run_block_parallel(data, alpha=0.1, seed=5, n_bootstrap=30)
        assert len(calls) == 1
        # The report is that of estimating each pair on the data alone,
        # compressed anew for every pair.
        monkeypatch.setattr(
            gof, "_pattern_odds_ratio",
            lambda patterns, counts, n, pair, alpha, n_bootstrap, rng:
                estimation.estimate_odds_ratio(data, pair, alpha, n_bootstrap, rng))
        per_pair = run_block_parallel(data, alpha=0.1, seed=5, n_bootstrap=30)
        assert len(calls) == 2 + len(report.steps)
        assert report.to_json() == per_pair.to_json()

    def test_seed_determinism(self):
        data = scenario_dataset("bp-null", 3000, 2)
        a = run_block_parallel(data, seed=5, n_bootstrap=60).to_json()
        b = run_block_parallel(data, seed=5, n_bootstrap=60).to_json()
        assert a == b

    def test_step_labels_name_pairs(self):
        data = scenario_dataset("bp-null", 3000, 4)
        report = run_block_parallel(data, seed=0, n_bootstrap=60)
        labels = {s.label for s in report.steps}
        assert "X1~X2" in labels and "X3~X4" in labels


@pytest.mark.parametrize("decisions, verdict", [
    (("reject", INCONCLUSIVE, "accept"), REJECTED),
    ((INCONCLUSIVE, "accept", "reject"), REJECTED),
    ((INCONCLUSIVE, "accept", "accept"), INCONCLUSIVE),
    (("accept", "accept", "accept"), ACCEPTED)])
def test_block_parallel_verdict_rule(decisions, verdict, monkeypatch):
    # A rejecting pair rejects the model whatever the other pairs give;
    # without one, an inconclusive pair makes the verdict inconclusive.
    by_pair = dict(zip([(0, 1), (0, 2), (1, 2)], decisions))

    def pair_estimate(patterns, counts, n, pair, alpha, n_bootstrap, rng):
        if by_pair[pair] == INCONCLUSIVE:
            raise EstimationError("forced")
        ci = (1.5, 2.0) if by_pair[pair] == "reject" else (0.5, 2.0)
        return estimation.OddsRatioEstimate(
            1.7, ci, n_bootstrap, counts.size, 1,
            dict.fromkeys(estimation.FAILURE_REASONS, 0))

    monkeypatch.setattr(gof, "_pattern_odds_ratio", pair_estimate)
    data = scenario_dataset("bp-null", 300, 0, K=3)
    report = run_block_parallel(data, seed=0, n_bootstrap=10)
    assert [s.decision for s in report.steps] == list(decisions)
    assert report.verdict == verdict


@functools.cache
def _gaussian_bp_report():
    data = scenario_dataset("bp-null", 400, 6, dist="gaussian", K=3)
    return data, run_block_parallel(data, seed=2, n_bootstrap=30).to_json()


@settings(max_examples=10, deadline=None)
@given(perm_seed=st.integers(0, 2 ** 32 - 1))
def test_block_parallel_report_invariant_to_row_order(perm_seed):
    # Gaussian rows are each their own pattern; they are sorted before any
    # pair reads them, so a seed draws the same resamples from permuted rows
    # and the report is equal, bit for bit.
    data, want = _gaussian_bp_report()
    assert estimation._row_patterns(data)[0] is data
    assert any(s["decision"] != INCONCLUSIVE for s in json.loads(want)["steps"])
    perm = np.random.default_rng(perm_seed).permutation(data.n)
    moved = ObservedDataset(data.names, data.r[perm], data.xstar[perm])
    assert run_block_parallel(moved, seed=2, n_bootstrap=30).to_json() == want
