"""The four benchmark workloads: their inputs, one operation each, and the
check of every operation's output against values recorded in expected.json.

Inputs come from fixed pools.  Pool entry ``i`` of a workload is generated
from a fixed base seed plus ``i``, so every operation's output can be checked
against the value recorded for its entry, and ``--seed`` picks the run's
inputs from the pool: the same seed gives the same inputs.  The program only
ever receives the generated inputs (a simulation config, a CSV file, a
graph).

Every run goes round a panel of inputs more than once, so each input is
timed at several moments of the run.  study-seq's panel is 96 consecutive
entries of a 512-entry pool (12 per cell), starting where the seed says.
The other workloads fit only a few slow operations in a run, and their cost
varies by up to 70% between inputs, so their panel is the whole (small)
pool and the seed sets the order.

Every call into the package goes through a module attribute looked up at call
time (``mdgof.simulate.run_study``, ``mdgof.graph.classify_model``, ...), so
the tracer can wrap the names the package's own modules look up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time

import numpy as np

import mdgof.cli
import mdgof.counterexample
import mdgof.graph
import mdgof.simulate

STUDY_CELLS = tuple((s, d) for s in ("mar-null", "mar-alt", "mnar-null", "mnar-alt")
                    for d in ("binary", "gaussian"))
BP_CELLS = ("bp-null", "bp-alt")
CLI_CELLS = (("sequential-mar", "mar-null"), ("sequential-mnar", "mnar-null"))
STUDY_BASE, BP_BASE, CLI_BASE = 10_000, 20_000, 30_000
GRAPH_MASTER = 40_000
REL_TOL = 1e-6

# Sizes per unit of work.  "full" is what the benchmark measures; "tiny"
# exists so the smoke test can run every workload in seconds.  Dense graphs
# (every X_i -> R_j, i != j, and every pair of indicators joined by a
# bidirected edge) drive the colluding-path search, and their path count
# depends only on K; sparse DAGs drive parameter counting.  The rotation is laid out
# so the median audit lands among the three dense K=6 graphs and the p90
# among the two dense K=7 ones: both quantiles then sit inside a block of
# equal-cost inputs, not on the edge between two strata.
SIZES = {
    "full": {
        "study_n": 10_000, "study_pool": 512, "study_window": 96,
        "bp_n": 10_000, "bp_bootstrap": 200, "bp_warm_bootstrap": 20, "bp_pool": 4,
        "cli_n": 200_000, "cli_warm_n": 2_000, "cli_pool": 2,
        "graph_pool": 2,
        "rotation": ("dense4", "sparse8", "dense6", "dense5", "sparse10", "dense6",
                     "sparse12", "dense7", "sparse14", "dense6", "sparse16", "dense7"),
    },
    "tiny": {
        "study_n": 2_000, "study_pool": 8, "study_window": 4,
        "bp_n": 2_000, "bp_bootstrap": 20, "bp_warm_bootstrap": 10, "bp_pool": 2,
        "cli_n": 2_000, "cli_warm_n": 1_000, "cli_pool": 2,
        "graph_pool": 1,
        "rotation": ("dense4", "sparse8", "dense5"),
    },
}
GRAPH_STRATA = {f"{family}{K}": (family, K) for family, Ks in
                (("dense", (4, 5, 6, 7)), ("sparse", (8, 10, 12, 14, 16)))
                for K in Ks}


class Op:
    """One operation: ``key`` names its entry in expected.json, ``params``
    is the input handed to the package."""

    __slots__ = ("key", "params")

    def __init__(self, key, params):
        self.key, self.params = key, params


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _panel(seed, pool, window):
    """Pool indices: ``window`` consecutive entries from a seeded start,
    round and round."""
    start = int(np.random.default_rng(seed).integers(pool))
    return itertools.cycle([(start + i) % pool for i in range(window)])


# ---------------------------------------------------------------------------
# study-seq and study-bp: one simulate replication per operation
# ---------------------------------------------------------------------------

class StudySeq:
    name = "study-seq"

    def __init__(self, size, expected, workdir):
        self.size, self.expected = SIZES[size], expected
        self.pool = self.size["study_pool"]
        self.window = self.size["study_window"]

    def entry(self, i):
        scenario, dist = STUDY_CELLS[i % len(STUDY_CELLS)]
        return Op(str(i), mdgof.simulate.ScenarioConfig(
            scenario=scenario, dist=dist, K=4, n=self.size["study_n"], reps=1,
            seed=STUDY_BASE + i))

    def warmup(self):
        return self.entry(self.pool)

    def ops(self, seed):
        return map(self.entry, _panel(seed, self.pool, self.window))

    def execute(self, op):
        return mdgof.simulate.run_study(op.params, n_jobs=1)

    def summary(self, op, result):
        return result.verdicts[0]

    def check(self, op, result):
        verdict = result.verdicts[0]
        if verdict == mdgof.INCONCLUSIVE:
            return [f"{self.name}[{op.key}]: inconclusive"]
        want = self.expected["verdicts"][int(op.key)]
        if verdict != want:
            return [f"{self.name}[{op.key}]: verdict {verdict}, recorded {want}"]
        return []


class StudyBP(StudySeq):
    """Bootstrap verdicts are compared as a count over the distinct inputs
    run, not one by one: batching the bootstrap legitimately changes its
    random stream.  An input's verdict is the same on every repeat, so it is
    counted once and the check does not depend on how many passes a run
    makes.  The point estimate does not depend on that stream and is
    compared exactly."""

    name = "study-bp"
    # Rejections the count may differ by, over the whole panel.
    VERDICT_SLACK = 1

    def __init__(self, size, expected, workdir):
        super().__init__(size, expected, workdir)
        self.pool = self.window = self.size["bp_pool"]
        self.verdicts = {}  # pool index -> verdict of its first run

    def entry(self, i, bootstrap=None):
        return Op(str(i), mdgof.simulate.ScenarioConfig(
            scenario=BP_CELLS[i % len(BP_CELLS)], dist="binary", K=4,
            n=self.size["bp_n"], reps=1,
            n_bootstrap=bootstrap or self.size["bp_bootstrap"], seed=BP_BASE + i))

    def warmup(self):
        """Same code path with a short bootstrap, so set-up stays short."""
        return self.entry(self.pool, self.size["bp_warm_bootstrap"])

    def summary(self, op, result):
        return {"verdict": result.verdicts[0],
                "theta": result.thetas[0] if result.thetas else None}

    def check(self, op, result):
        if result.verdicts[0] == mdgof.INCONCLUSIVE:
            return [f"{self.name}[{op.key}]: inconclusive"]
        theta, (lo, hi) = result.thetas[0], result.theta_cis[0]
        want = self.expected["thetas"][int(op.key)]
        problems = []
        if not _close(theta, want):
            problems.append(f"{self.name}[{op.key}]: theta {theta!r}, recorded {want!r}")
        if not lo <= theta <= hi:
            problems.append(f"{self.name}[{op.key}]: CI ({lo}, {hi}) excludes theta {theta}")
        # The warm-up (entry ``pool``) runs a shorter bootstrap: not counted.
        if int(op.key) < self.pool:
            self.verdicts.setdefault(int(op.key), result.verdicts[0])
        return problems

    def count_check(self):
        """Rejections over the distinct inputs run against the recorded
        count, allowing VERDICT_SLACK flips from a changed bootstrap stream."""
        got = sum(v == mdgof.REJECTED for v in self.verdicts.values())
        want = sum(self.expected["verdicts"][i] == mdgof.REJECTED for i in self.verdicts)
        if abs(got - want) > self.VERDICT_SLACK:
            return [f"{self.name}: {got} rejections over {len(self.verdicts)} inputs, "
                    f"recorded {want} (allowed +-{self.VERDICT_SLACK})"]
        return []


# ---------------------------------------------------------------------------
# cli-csv: `mdgof simulate --emit-data`, then `mdgof test` on the file
# ---------------------------------------------------------------------------

class CliCsv:
    name = "cli-csv"

    def __init__(self, size, expected, workdir):
        self.size, self.expected, self.workdir = SIZES[size], expected, workdir
        self.pool = self.size["cli_pool"]

    def entry(self, i, n=None):
        model, scenario = CLI_CELLS[i % len(CLI_CELLS)]
        csv_path = os.path.join(self.workdir, f"data-{i}.csv")
        report = os.path.join(self.workdir, f"report-{i}.json")
        names = ",".join(f"X{k + 1}" for k in range(4))
        emit = ["simulate", "--scenario", scenario, "--dist", "gaussian",
                "--K", "4", "--n", str(n or self.size["cli_n"]),
                "--seed", str(CLI_BASE + i), "--emit-data", csv_path]
        test = ["test", "--input", csv_path, "--model", model,
                "--order", names, "--output", report]
        return Op(str(i), (emit, test, csv_path, report))

    def warmup(self):
        op = self.entry(self.pool, n=self.size["cli_warm_n"])
        op.key = "warmup"
        return op

    def ops(self, seed):
        return map(self.entry, _panel(seed, self.pool, self.pool))

    def execute(self, op):
        """Both commands through ``mdgof.cli.main``, in this process.  Run
        as child processes, their times drifted by up to 40% between
        identical runs with the cost of starting an interpreter; start-up
        is measured by set-up (a fresh interpreter importing mdgof.cli) and
        by the traced run's cli.startup_s instead."""
        emit, test, csv_path, report = op.params
        out = {}
        try:
            t0 = time.perf_counter()
            out["emit_exit"] = mdgof.cli.main(emit)
            t1 = time.perf_counter()
            out["test_exit"] = mdgof.cli.main(test)
            out["emit_s"], out["test_s"] = t1 - t0, time.perf_counter() - t1
            if os.path.exists(report):
                with open(report) as fh:
                    out["report"] = json.load(fh)
        finally:
            for path in (csv_path, report):
                if os.path.exists(path):
                    os.remove(path)
        return out

    def summary(self, op, result):
        report = result.get("report") or {}
        return {"exit": result.get("test_exit"), "verdict": report.get("verdict"),
                "steps": [[s["k"], s["statistic"]] for s in report.get("steps", [])]}

    def check(self, op, result):
        tag = f"{self.name}[{op.key}]"
        if result.get("emit_exit") != 0:
            return [f"{tag}: emit exited {result.get('emit_exit')}"]
        want = self.expected["warmup" if op.key == "warmup" else "entries"]
        if op.key != "warmup":
            want = want[int(op.key)]
        got = self.summary(op, result)
        if got["verdict"] == mdgof.INCONCLUSIVE:
            return [f"{tag}: inconclusive"]
        if got["exit"] != want["exit"] or got["verdict"] != want["verdict"]:
            return [f"{tag}: exit {got['exit']} verdict {got['verdict']}, "
                    f"recorded exit {want['exit']} verdict {want['verdict']}"]
        if [s[0] for s in got["steps"]] != [s[0] for s in want["steps"]]:
            return [f"{tag}: steps {got['steps']}, recorded {want['steps']}"]
        return [f"{tag}: step {g[0]} statistic {g[1]!r}, recorded {w[1]!r}"
                for g, w in zip(got["steps"], want["steps"])
                if not _close(g[1], w[1])]


# ---------------------------------------------------------------------------
# graph-audit: one m-DAG audit per operation; once per pass over the suite
# the audit is the exact criss-cross counterexample
# ---------------------------------------------------------------------------

def make_graph(stratum, index):
    """Graph ``index`` of ``stratum``, generated from its own seed stream."""
    family, K = GRAPH_STRATA[stratum]
    rng = np.random.default_rng([GRAPH_MASTER, list(GRAPH_STRATA).index(stratum), index])
    X = [f"X{i + 1}" for i in range(K)]
    R = [mdgof.graph.indicator_name(x) for x in X]
    edges = [(X[i], X[j]) for i in range(K) for j in range(i + 1, K)
             if rng.random() < (0.5 if family == "dense" else 2.0 / K)]
    if family == "dense":
        edges += [(X[i], R[j]) for i in range(K) for j in range(K) if i != j]
        bidirected = [(R[i], R[j]) for i in range(K) for j in range(i + 1, K)]
        return mdgof.graph.MDag.create(X, edges, bidirected)
    p = 2.0 / K
    edges += [(R[i], R[j]) for i in range(K) for j in range(i + 1, K)
              if rng.random() < p]
    for i in range(K):
        for j in range(K):
            if i != j and rng.random() < p:
                source = X[i] if rng.random() < 0.5 else mdgof.graph.proxy_name(X[i])
                edges.append((source, R[j]))
    return mdgof.graph.MDag.create(X, edges)


def graph_input(stratum, index):
    """(graph, class queries): everything an audit receives."""
    graph = make_graph(stratum, index)
    return graph, class_queries(graph.substantive)


def class_queries(order):
    """The defining independences of the five model classes under ``order``
    (sequential MAR, sequential MNAR, block-parallel, permutation, no
    self-censoring), built from the public query type."""
    R = [mdgof.graph.indicator_name(v) for v in order]
    P = [mdgof.graph.proxy_name(v) for v in order]
    X = list(order)
    Q = mdgof.graph.IndependenceQuery
    out = []
    for k in range(len(order)):
        pre_r, pre_p, pre_x, post_x = set(R[:k]), set(P[:k]), set(X[:k]), set(X[k + 1:])
        out += [Q({R[k]}, set(X), pre_r | pre_p),
                Q({R[k]}, pre_x | {X[k]} | pre_p, pre_r | post_x),
                Q({R[k]}, (set(R) - {R[k]}) | {X[k]}, set(X) - {X[k]}),
                Q({R[k]}, pre_x | {X[k]}, pre_r | pre_p | post_x),
                Q({R[k]}, {X[k]}, (set(R) - {R[k]}) | (set(X) - {X[k]}))]
    return out


def audit(graph, queries):
    """Classification, structure report, testability of every class query,
    and (without bidirected edges) the parameter counts."""
    g = mdgof.graph
    order = graph.substantive
    return (g.classify_model(graph, order), g.detect_structures(graph),
            [g.testability_verdict(graph, q) for q in queries],
            None if graph.bidirected_edges else
            g.count_parameters(graph, {v: 2 for v in order}))


def digest(result):
    """Order-free digest of an audit's outputs."""
    cls, rep, tests, params = result
    out = {
        "class": cls,
        "self_censoring": sorted(map(list, rep.self_censoring_edges)),
        "colluders": sorted(map(list, rep.colluders)),
        "criss_crosses": sorted(sorted(c) for c in rep.criss_crosses),
        "colluding_paths": sorted(map(list, rep.colluding_paths)),
        "testability": [[t.verdict, t.route] for t in tests],
        "params": params and list(params),
    }
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()[:16]


class GraphAudit:
    name = "graph-audit"

    def __init__(self, size, expected, workdir):
        self.size, self.expected = SIZES[size], expected
        self.pool = self.size["graph_pool"]

    def suite(self):
        """``graph_pool`` passes over the rotation: (stratum, index) pairs."""
        used = dict.fromkeys(GRAPH_STRATA, 0)
        out = []
        for _ in range(self.pool):
            for stratum in self.size["rotation"]:
                out.append((stratum, used[stratum]))
                used[stratum] += 1
        return out

    def warmup(self):
        return Op("dense4/warmup", graph_input("dense4", self.pool))

    def ops(self, seed):
        """The suite in a seeded order, then the counterexample, repeated.
        Graphs are generated outside the timed region."""
        suite = self.suite()
        order = [suite[i] for i in np.random.default_rng(seed).permutation(len(suite))]
        graphs = {key: graph_input(*key) for key in order}
        while True:
            for stratum, i in order:
                yield Op(f"{stratum}/{i}", graphs[stratum, i])
            yield Op("counterexample", None)

    def execute(self, op):
        if op.key == "counterexample":
            return mdgof.counterexample.verify_crisscross_counterexample()
        return audit(*op.params)

    def summary(self, op, result):
        return digest(result)

    def check(self, op, result):
        if op.key == "counterexample":
            return [] if result.verified else ["counterexample: not verified"]
        stratum, index = op.key.split("/")
        recorded = self.expected["warmup" if index == "warmup" else stratum]
        want = recorded if index == "warmup" else recorded[int(index)]
        got = digest(result)
        if got != want:
            return [f"{self.name}[{op.key}]: audit digest {got}, recorded {want}"]
        return []


WORKLOADS = {cls.name: cls for cls in (StudySeq, StudyBP, CliCsv, GraphAudit)}
