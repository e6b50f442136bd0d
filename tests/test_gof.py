"""End-to-end goodness-of-fit procedures and their reports."""

import collections
import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgof import estimation
from mdgof.data import DataError, ObservedDataset
from mdgof.estimation import EstimationError
from mdgof.gof import ACCEPTED, INCONCLUSIVE, REJECTED
from mdgof.gof import test_block_parallel as run_block_parallel
from mdgof.gof import test_sequential_mar as run_sequential_mar
from mdgof.gof import test_sequential_mnar as run_sequential_mnar
from mdgof.graph import MDag
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
        forced = []

        def fit(design, outcome, weights=None, **kw):
            result = real(design, outcome, weights, **kw)
            # The stabilizer is the one unweighted fit whose outcome is the
            # row mask rather than one of the dataset's indicator columns.
            if weights is None and not np.shares_memory(outcome, data.r):
                forced.append(design.p)
                return dataclasses.replace(result, converged=False,
                                           message="forced")
            return result

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
    # MAR, K = 4: X4 a full-sample null; X3 and X2 a full-sample null, a
    # stabilizer, a masked null and an alternative; X1 the last three.
    (run_sequential_mar, "mar-null", 0, ACCEPTED, 12, 4),
    (run_sequential_mar, "mar-alt", 2, REJECTED, 5, 2),
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
    # makes the test inconclusive, reported as one record of the cascade.
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
        assert [s.to_dict() for s in report.steps] == [
            {"k": "cascade", "statistic": None, "df": None, "p_value": None,
             "decision": INCONCLUSIVE, "diagnostics": {"error": "no rows left"}}]


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

    def test_empty_dataset_inconclusive(self):
        data = ObservedDataset(("X1", "X2", "X3"), np.zeros((0, 3)),
                               np.zeros((0, 3)))
        report = run_block_parallel(data, seed=0, n_bootstrap=10)
        assert report.verdict == INCONCLUSIVE
        assert all("error" in s.diagnostics for s in report.steps)

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
