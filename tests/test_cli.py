"""Command-line surface: exit codes, formats, round trips, seeds."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdgof
from mdgof.cli import main
from mdgof.data import read_csv
from mdgof.gof import ACCEPTED, REJECTED
from mdgof.gof import test_sequential_mar as run_sequential_mar


@pytest.fixture
def graph_json(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "variables": ["X1", "X2"],
        "edges": [["X1", "X2"], ["X1*", "R2"]],
        "order": ["X1", "X2"],
    }))
    return str(path)


def emit_dataset(tmp_path, scenario, seed, n=4000):
    path = str(tmp_path / f"{scenario}.csv")
    code = main(["simulate", "--scenario", scenario, "--n", str(n),
                 "--K", "3", "--seed", str(seed), "--emit-data", path])
    assert code == 0
    return path


class TestExitCodes:
    def test_usage_error_on_bad_subcommand(self):
        assert main(["frobnicate"]) == 64

    def test_usage_error_on_missing_required(self):
        assert main(["test", "--model", "sequential-mar"]) == 64

    def test_order_required_for_sequential(self, tmp_path):
        path = emit_dataset(tmp_path, "mar-null", 1)
        assert main(["test", "--input", path,
                     "--model", "sequential-mar"]) == 64
        # The order is checked before the file is read.
        assert main(["test", "--input", "/nonexistent.csv",
                     "--model", "sequential-mar"]) == 64

    def test_data_error_on_missing_file(self):
        assert main(["test", "--input", "/nonexistent.csv",
                     "--model", "block-parallel"]) == 65

    def test_data_error_on_fully_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1,X2\n1.0,NA\n2.0,NA\n")
        assert main(["test", "--input", str(path), "--order", "X1,X2",
                     "--model", "sequential-mar"]) == 65

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_data_error_on_non_finite_cell(self, tmp_path, capsys, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"X1,X2\n1.0,NA\n2.0,3.0\nNA,4.0\n\n0.5,{token}\n")
        for model in ("sequential-mar", "block-parallel"):
            assert main(["test", "--input", str(path), "--order", "X1,X2",
                         "--model", model]) == 65
            err = capsys.readouterr().err
            assert "line 6, column X2" in err
            assert "non-finite" in err

    def test_repeated_order_entry_is_usage_error(self, tmp_path, capsys):
        path = emit_dataset(tmp_path, "mar-null", 1, n=500)
        for model in ("sequential-mar", "sequential-mnar", "block-parallel"):
            assert main(["test", "--input", path, "--order", "X1,X1,X2,X3",
                         "--model", model]) == 64
            assert capsys.readouterr().err.endswith(
                "--order must be a permutation of the CSV columns: repeated X1\n")

    @pytest.mark.parametrize("body", [b"1.0,\xff\n", b"1.0," + b"2" * 200_000 + b"\n"],
                             ids=["not-utf8", "over-field-limit"])
    def test_data_error_on_unreadable_file(self, tmp_path, capsys, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"X1,X2\n" + body)
        assert main(["test", "--input", str(path), "--model", "block-parallel"]) == 65
        assert "mdgof: error: unreadable CSV: " in capsys.readouterr().err

    def test_bad_alpha_is_usage_error(self, tmp_path):
        path = emit_dataset(tmp_path, "mar-null", 1)
        assert main(["test", "--input", path, "--order", "X1,X2,X3",
                     "--model", "sequential-mar", "--alpha", "2.0"]) == 64

    def test_bad_alpha_in_a_bp_study_is_usage_error(self, capsys, monkeypatch):
        # Refused before any study starts, not reported as CIs with lo > hi.
        def no_study(*args, **kwargs):
            raise AssertionError("a study started")

        monkeypatch.setattr("mdgof.cli.run_study", no_study)
        assert main(["simulate", "--scenario", "bp-null", "--K", "3", "--n", "400",
                     "--reps", "2", "--seed", "1", "--bootstrap", "20",
                     "--alpha", "1.5"]) == 64
        assert capsys.readouterr().err == (
            "mdgof: error: alpha must lie in (0, 1), got 1.5\n")

    @pytest.mark.parametrize("flag", ["0", "-3"],
                             ids=["flag-zero", "flag-negative"])
    def test_threads_below_one_is_usage_error(self, capsys, monkeypatch, flag):
        # The count is refused before any study (or worker pool) starts.
        def no_study(*args, **kwargs):
            raise AssertionError("a study started")

        monkeypatch.setattr("mdgof.cli.run_study", no_study)
        assert main(["simulate", "--scenario", "mar-null", "--n", "200",
                     "--reps", "1", "--seed", "0", "--threads", flag]) == 64
        assert f"--threads must be at least 1, got {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["9", "5", "-3"])
    def test_bootstrap_below_minimum_is_usage_error(self, tmp_path, capsys, count):
        path = emit_dataset(tmp_path, "bp-null", 1, n=500)
        assert main(["test", "--input", path, "--model", "block-parallel",
                     "--seed", "0", "--bootstrap", count]) == 64
        assert "at least 10" in capsys.readouterr().err
        assert main(["simulate", "--scenario", "bp-null", "--n", "500",
                     "--reps", "1", "--seed", "0", "--bootstrap", count]) == 64
        assert "at least 10" in capsys.readouterr().err

    def test_verdict_exit_codes_match_library(self, tmp_path):
        for scenario, seed in (("mar-null", 1), ("mar-alt", 0)):
            path = emit_dataset(tmp_path, scenario, seed, n=8000)
            data = read_csv(path)
            report = run_sequential_mar(data, data.names)
            expected = {ACCEPTED: 0, REJECTED: 1}[report.verdict]
            code = main(["test", "--input", path, "--order", "X1,X2,X3",
                         "--model", "sequential-mar"])
            assert code == expected


class TestTestCommand:
    def test_singular_information_is_inconclusive(self, tmp_path):
        # X3 is X1 zero-imputed: on step X2 the tested column X[X3] equals
        # the null column R*Xs[X1], so the robust reference does not exist
        # and the test ends inconclusive, naming why (exit 2).
        rng = np.random.default_rng(5)
        n = 1000
        x1, x2 = rng.normal(size=(2, n))
        r1 = rng.random(n) < 0.8
        r2 = rng.random(n) < 1.0 / (1.0 + np.exp(-0.5 - 0.5 * np.where(r1, x1, 0.0)))
        rows = [(repr(a) if ra else "NA", repr(b) if rb else "NA",
                 repr(a if ra else 0.0))
                for a, b, ra, rb in zip(x1.tolist(), x2.tolist(), r1, r2)]
        path, out = tmp_path / "dup.csv", tmp_path / "report.json"
        path.write_text("X1,X2,X3\n" + "".join(f"{','.join(r)}\n" for r in rows))
        assert main(["test", "--input", str(path), "--model", "sequential-mar",
                     "--order", "X1,X2,X3", "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["verdict"] == "inconclusive"
        [step] = report["steps"]
        assert step["decision"] == "inconclusive"
        assert step["diagnostics"]["error"].startswith(
            "robust p-value: singular information matrix")

    def test_json_report_written(self, tmp_path, capsys):
        path = emit_dataset(tmp_path, "mar-null", 1)
        out = str(tmp_path / "report.json")
        code = main(["test", "--input", path, "--order", "X1,X2,X3",
                     "--model", "sequential-mar", "--output", out])
        assert code in (0, 1)
        report = json.loads(open(out).read())
        assert report["model"] == "sequential-MAR"
        assert report["order"] == ["X1", "X2", "X3"]

    def test_round_trip_verdicts_identical(self, tmp_path):
        path = emit_dataset(tmp_path, "mnar-null", 2)
        data = read_csv(path)
        rewritten = str(tmp_path / "rewritten.csv")
        data.to_csv(rewritten)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        c1 = main(["test", "--input", path, "--order", "X1,X2,X3",
                   "--model", "sequential-mnar", "--output", out1])
        c2 = main(["test", "--input", rewritten, "--order", "X1,X2,X3",
                   "--model", "sequential-mnar", "--output", out2])
        assert c1 == c2
        assert open(out1).read() == open(out2).read()

    def test_input_with_a_byte_order_mark(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" starts with a BOM: the header's first
        # name is still X1, and the report is the one of the file without it.
        path = emit_dataset(tmp_path, "mar-null", 1, n=1000)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        reports = []
        for source in (path, str(marked)):
            out = tmp_path / "report.json"
            assert main(["test", "--input", source, "--order", "X1,X2,X3",
                         "--model", "sequential-mar", "--output", str(out)]) in (0, 1)
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    def test_block_parallel_runs_without_order(self, tmp_path):
        path = emit_dataset(tmp_path, "bp-null", 3, n=2500)
        code = main(["test", "--input", path, "--model", "block-parallel",
                     "--seed", "0", "--bootstrap", "40",
                     "--output", str(tmp_path / "bp.json")])
        assert code in (0, 1, 2)


class TestSimulateCommand:
    def test_study_csv_shape(self, tmp_path):
        out = str(tmp_path / "study.csv")
        code = main(["simulate", "--scenario", "mar-null", "--K", "3",
                     "--n", "500", "--reps", "2", "--seed", "5",
                     "--output", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "n,acceptance_rate,complete_case_pct,inconclusive"
        assert lines[1].startswith("500,")

    def test_sweep_csv_rows(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["simulate", "--scenario", "mar-null", "--K", "3",
                     "--reps", "2", "--seed", "5", "--n-grid", "300:700:200",
                     "--output", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 4  # header plus grid points 300, 500, 700

    def test_same_seed_same_file(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", "--scenario", "mnar-null", "--K", "3",
                "--n", "400", "--reps", "2", "--seed", "9"]
        assert main(args + ["--output", a]) == 0
        assert main(args + ["--output", b]) == 0
        assert open(a).read() == open(b).read()

    def test_missing_seed_printed(self, capsys):
        code = main(["simulate", "--scenario", "mar-null", "--K", "2",
                     "--n", "200", "--reps", "1"])
        assert code == 0
        assert "seed:" in capsys.readouterr().err

    def test_bp_theta_table(self, tmp_path):
        out = str(tmp_path / "bp.csv")
        code = main(["simulate", "--scenario", "bp-null", "--K", "3",
                     "--n", "1500", "--reps", "2", "--seed", "4",
                     "--bootstrap", "40", "--output", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "rep,theta_hat,ci_lo,ci_hi"

    def test_bp_pair_outside_the_variables_is_usage_error(self, capsys):
        # The block-parallel pair (X1, X2) does not exist at K = 1.
        assert main(["simulate", "--scenario", "bp-null", "--K", "1",
                     "--n", "200", "--reps", "1", "--seed", "1"]) == 64
        assert "pair must be two distinct indices in 0..0" in capsys.readouterr().err

    def test_gaussian_at_k10_emits_data(self, tmp_path):
        # The unclamped lag correlation is indefinite at K = 10.
        out = str(tmp_path / "k10.csv")
        assert main(["simulate", "--scenario", "mar-null", "--dist", "gaussian",
                     "--K", "10", "--n", "300", "--seed", "1",
                     "--emit-data", out]) == 0
        assert open(out).readline().rstrip() == ",".join(f"X{i}" for i in range(1, 11))

    def test_bad_grid_spec(self):
        assert main(["simulate", "--scenario", "mar-null",
                     "--n-grid", "10,20", "--seed", "0"]) == 64

    @pytest.mark.parametrize("flag, value, message", [
        ("--param-range", "0", "expected lo,hi range, got '0'"),
        ("--param-range", "0,x", "expected lo,hi range, got '0,x'"),
        ("--param-range", "0,inf", "param_range must have finite bounds and a "
                                   "finite width, got (0.0, inf)"),
        ("--param-range", "-inf,1", "param_range must have finite bounds and a "
                                    "finite width, got (-inf, 1.0)"),
        ("--param-range", "-1e308,1e308", "param_range must have finite bounds "
                                          "and a finite width, got (-1e+308, 1e+308)"),
        ("--n-grid", "10:20:x", "expected integer lo:hi:step grid, got '10:20:x'"),
        ("--n-grid", "0:20:5", "bad grid '0:20:5'"),
        ("--n-grid", "20:10:5", "bad grid '20:10:5'"),
        ("--n-grid", "10:20:0", "bad grid '10:20:0'")])
    def test_bad_range_or_grid_is_usage_error(self, capsys, flag, value, message):
        assert main(["simulate", "--scenario", "mar-null", "--reps", "1",
                     "--seed", "0", f"{flag}={value}"]) == 64
        assert capsys.readouterr().err == f"mdgof: error: {message}\n"

    def test_bad_grid_leaves_the_output_file_alone(self, tmp_path, capsys):
        out = tmp_path / "existing.csv"
        out.write_text("n,acceptance_rate\n")
        assert main(["simulate", "--scenario", "mar-null", "--reps", "1",
                     "--seed", "0", "--n-grid", "5:1:1", "--output", str(out)]) == 64
        assert capsys.readouterr().err == "mdgof: error: bad grid '5:1:1'\n"
        assert out.read_text() == "n,acceptance_rate\n"

    def test_emit_data_round_trips(self, tmp_path):
        path = emit_dataset(tmp_path, "mar-null", 7, n=300)
        data = read_csv(path)
        assert data.names == ("X1", "X2", "X3")
        assert data.n == 300


class TestGraphCommand:
    def test_dsep_json(self, graph_json, capsys):
        code = main(["graph", "dsep", "--graph", graph_json,
                     "--x", "R1", "--y", "X2", "--given", "R2", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_separated"] is False

    def test_classify(self, graph_json, capsys):
        code = main(["graph", "classify", "--graph", graph_json])
        assert code == 0
        assert "sequential-MAR" in capsys.readouterr().out

    def test_count_params(self, graph_json, capsys):
        code = main(["graph", "count-params", "--graph", graph_json, "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"full_law": 7, "saturated_observed_law": 8}

    @pytest.mark.parametrize("cards, want", [("X1=3", (10, 11)),
                                             ("X2=4", (11, 14)),
                                             (" X1 = 3 ,X2=2", (10, 11))])
    def test_count_params_cardinalities(self, graph_json, capsys, cards, want):
        code = main(["graph", "count-params", "--graph", graph_json,
                     "--cardinalities", cards, "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["full_law"], out["saturated_observed_law"]) == want

    @pytest.mark.parametrize("cards, message", [
        ("x1=3", "'x1' is not a graph variable"),
        ("X1=1", "X1=1 is below 2"),
        ("x1=3,X2=0,R1=2", "'x1' is not a graph variable; X2=0 is below 2; "
                           "'R1' is not a graph variable"),
        ("X1", "expected name=cardinality, got 'X1'"),
        ("X1=a", "bad cardinality 'a' for 'X1'")])
    def test_bad_cardinalities_are_usage_errors(self, graph_json, capsys,
                                                cards, message):
        assert main(["graph", "count-params", "--graph", graph_json,
                     "--cardinalities", cards]) == 64
        err = capsys.readouterr().err
        assert message in err and err.startswith("mdgof: error: ")

    def test_structures_clean(self, graph_json, capsys):
        code = main(["graph", "structures", "--graph", graph_json, "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["clean"] is True

    def test_dsep_requires_sets(self, graph_json):
        assert main(["graph", "dsep", "--graph", graph_json]) == 64

    def test_repeated_order_in_graph_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({"variables": ["X1", "X2", "X3"],
                                    "order": ["X1", "X1", "X2", "X3"]}))
        assert main(["graph", "classify", "--graph", str(path)]) == 65
        assert capsys.readouterr().err == ("mdgof: error: 'order' must be a "
                                           "permutation of 'variables': repeated X1\n")

    @pytest.mark.parametrize("order, defect", [("X1,X1,X2", "repeated X1"),
                                               ("X2", "missing X1")])
    def test_bad_order_option_is_usage_error(self, graph_json, capsys, order,
                                             defect):
        assert main(["graph", "classify", "--graph", graph_json,
                     "--order", order]) == 64
        assert capsys.readouterr().err == (
            "mdgof: error: --order must be a permutation of the graph "
            f"variables: {defect}\n")

    @pytest.mark.parametrize("entries, message", [
        ({"edges": [["X1"]]}, "each 'edges' entry must be 2 names, got ['X1']"),
        ({"edges": "X1X2"}, "'edges' must be a list of name pairs, got 'X1X2'"),
        ({"variables": [1, 2]},
         "'variables' must be a list of non-empty names, got [1, 2]"),
        ({"variables": ["X1", "X1"]}, "'variables' must be distinct: repeated X1"),
        ({"bidirected": [["X1", "X2", "X1"]]},
         "each 'bidirected' entry must be 2 names, got ['X1', 'X2', 'X1']"),
        ({"order": 5}, "'order' must be a list of non-empty names, got 5"),
        ({"order": "X1"}, "'order' must be a list of non-empty names, got 'X1'")])
    def test_malformed_graph_is_data_error(self, tmp_path, capsys, entries,
                                           message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"variables": ["X1", "X2"], **entries}))
        assert main(["graph", "classify", "--graph", str(path)]) == 65
        assert capsys.readouterr().err == f"mdgof: error: {message}\n"

    @pytest.mark.parametrize("action", ["classify", "count-params", "structures"])
    @pytest.mark.parametrize("variables, repeated", [
        (["X1", "R1"], "R1"), (["A", "R_A"], "R_A"), (["X1", "X1*"], "X1*")])
    def test_colliding_vertex_names_are_data_errors(self, tmp_path, capsys,
                                                    action, variables, repeated):
        path = tmp_path / "colliding.json"
        path.write_text(json.dumps({"variables": variables}))
        assert main(["graph", action, "--graph", str(path)]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "mdgof: error: invalid graph: vertex names must be distinct across "
            f"the three layers: repeated {repeated}")

    def test_invalid_graph_is_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"variables": ["X1"],
                                    "edges": [["R1", "X1"]]}))
        assert main(["graph", "classify", "--graph", str(path)]) == 65
        # Still a data error when the flags spell a valid query.
        assert main(["graph", "dsep", "--graph", str(path),
                     "--x", "R1", "--y", "X1"]) == 65

    @pytest.mark.parametrize("action", ["dsep", "testability"])
    @pytest.mark.parametrize("flags, message", [
        (["--x", "R1", "--y", "R1"], "query vertex sets overlap: ['R1']"),
        (["--x", "Q9", "--y", "X2"], "unknown vertex 'Q9'"),
        (["--x", "X2", "--y", "R1", "--do", "X1"],
         "can only intervene on indicators, got 'X1'"),
        # Every indicator the relation needs is given or none is needed, so
        # testability asks no d-separation; the query is still checked.
        (["--x", "X1", "--y", "Zed", "--given", "R1,R2"], "unknown vertex 'Zed'"),
        (["--x", "R1", "--y", "R2", "--do", "X1"],
         "can only intervene on indicators, got 'X1'")])
    def test_bad_query_is_usage_error(self, graph_json, capsys, action, flags,
                                      message):
        assert main(["graph", action, "--graph", graph_json, *flags]) == 64
        assert capsys.readouterr().err == f"mdgof: error: {message}\n"

    def test_unknown_vertex_named_alike_under_any_hash_seed(self, graph_json,
                                                             tmp_path):
        src = str(Path(mdgof.__file__).resolve().parent.parent)
        for seed in ("0", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "mdgof.cli", "graph", "dsep", "--graph",
                 graph_json, "--x", "Q7,Q8,Q9", "--y", "X1"],
                cwd=tmp_path, capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
            assert (done.returncode, done.stderr) == (
                64, "mdgof: error: unknown vertex 'Q7'\n")

    @pytest.mark.parametrize("action", ["dsep", "testability"])
    @pytest.mark.parametrize("flags", [["--x", ",", "--y", "X2"],
                                       ["--x", " ", "--y", "X2"],
                                       ["--x", "R1", "--y", " , "]])
    def test_empty_vertex_list_is_usage_error(self, graph_json, capsys, action,
                                              flags):
        assert main(["graph", action, "--graph", graph_json, *flags]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"mdgof: error: graph {action} requires "
                                "non-empty --x and --y\n")

    def test_testability(self, graph_json, capsys):
        code = main(["graph", "testability", "--graph", graph_json, "--x", "R2",
                     "--y", "X1", "--given", "X1*", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "directly-testable"


class TestVerifyCounterexample:
    def test_text_output_passes(self, capsys):
        assert main(["verify-counterexample"]) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out

    def test_json_output_has_fractions(self, capsys):
        assert main(["verify-counterexample", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["shared_observed_law"]["0,0,?,?"] == "17/25"

    def test_repeated_runs_identical(self, capsys):
        main(["verify-counterexample", "--format", "json"])
        first = capsys.readouterr().out
        main(["verify-counterexample", "--format", "json"])
        assert capsys.readouterr().out == first


class TestRuntimeNeedsNumpyAlone:
    """scipy is a test-only oracle: the package and its CLI never import it."""

    def _run(self, code, tmp_path):
        src = str(Path(mdgof.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        return subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)

    def test_import_loads_no_scipy(self, tmp_path):
        done = self._run(
            "import sys, mdgof, mdgof.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))", tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_sequential_test_runs_without_scipy(self, tmp_path):
        done = self._run(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mdgof.cli import main\n"
            "assert main(['simulate', '--scenario', 'mnar-null', '--dist',"
            " 'gaussian', '--K', '4', '--n', '2000', '--seed', '7',"
            " '--emit-data', 'data.csv']) == 0\n"
            "sys.exit(main(['test', '--input', 'data.csv', '--model',"
            " 'sequential-mnar', '--order', 'X1,X2,X3,X4',"
            " '--output', 'report.json']))", tmp_path)
        assert done.returncode <= 2, done.stderr
        assert (tmp_path / "report.json").exists(), done.stderr
        steps = json.loads((tmp_path / "report.json").read_text())["steps"]
        assert steps
        assert all(math.isfinite(s["p_value"]) for s in steps)
