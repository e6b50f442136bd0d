"""Command-line interface.

Exit codes: 0 model accepted / success, 1 model rejected, 2 inconclusive,
64 usage error, 65 malformed input data.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import counterexample
from .data import DataError, permutation_defects, read_csv
from .gof import (ACCEPTED, INCONCLUSIVE, REJECTED, test_block_parallel,
                  test_sequential_mar, test_sequential_mnar)
from .graph import (GraphError, IndependenceQuery, classify_model,
                    count_parameters, d_separated, detect_structures,
                    load_graph_json, testability_verdict)
from .simulate import (COEF_RANGES, SCENARIOS, ScenarioConfig, run_study,
                       simulate_dataset, sweep_curve)

EXIT_ACCEPTED = 0
EXIT_REJECTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

MODELS = {
    "sequential-mar": "sequential-MAR",
    "sequential-mnar": "sequential-MNAR",
    "block-parallel": "block-parallel",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(ValueError):
    pass


def _resolve_seed(seed):
    """Explicit seed, or fresh OS entropy (printed so runs can be replayed)."""
    if seed is not None:
        return seed
    seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _resolve_threads(threads):
    """--threads (default 1); a count below 1 is refused."""
    if threads < 1:
        raise UsageError(f"--threads must be at least 1, got {threads}")
    return threads


def _parse_names(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_range(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected lo,hi range, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"expected lo,hi range, got {text!r}")
    return lo, hi


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"expected lo:hi:step grid, got {text!r}")
    try:
        lo, hi, step = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"expected integer lo:hi:step grid, got {text!r}")
    if lo < 1 or hi < lo or step < 1:
        raise UsageError(f"bad grid {text!r}")
    return list(range(lo, hi + 1, step))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_test(args):
    model = MODELS[args.model]
    if model != "block-parallel" and not args.order:
        # The ordering is analyst knowledge (e.g. time order); never guess it.
        raise UsageError(f"--order is required for {args.model}")
    data = read_csv(args.input)
    order = _parse_names(args.order) if args.order else data.names
    defects = permutation_defects(order, data.names)
    if defects:
        raise UsageError(f"--order must be a permutation of the CSV columns: {defects}")

    if model == "sequential-MAR":
        report = test_sequential_mar(data, order, alpha=args.alpha)
    elif model == "sequential-MNAR":
        report = test_sequential_mnar(data, order, alpha=args.alpha)
    else:
        seed = _resolve_seed(args.seed)
        report = test_block_parallel(data.reorder(order), alpha=args.alpha,
                                     n_bootstrap=args.bootstrap, seed=seed)

    text = report.to_json(indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return {ACCEPTED: EXIT_ACCEPTED, REJECTED: EXIT_REJECTED,
            INCONCLUSIVE: EXIT_INCONCLUSIVE}[report.verdict]


def cmd_simulate(args):
    seed = _resolve_seed(args.seed)
    n_jobs = _resolve_threads(args.threads)
    config = ScenarioConfig(scenario=args.scenario, dist=args.dist, K=args.K,
                            n=args.n, reps=args.reps,
                            param_range=_parse_range(args.param_range),
                            alpha=args.alpha, seed=seed,
                            n_bootstrap=args.bootstrap)
    if args.emit_data:
        # One replication's dataset (replication 0 of the configured stream).
        simulate_dataset(config, 0)[0].to_csv(args.emit_data)
        return EXIT_ACCEPTED
    # A bad grid is refused before --output is opened, which would empty it.
    grid = _parse_grid(args.n_grid) if args.n_grid else None
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if grid:
            rows = sweep_curve(config, grid, n_jobs=n_jobs)
            print("n,acceptance_rate,complete_case_pct,inconclusive", file=out)
            for n, rate, cc, inc in rows:
                print(f"{n},{rate:.4f},{cc:.4f},{inc}", file=out)
        else:
            res = run_study(config, n_jobs=n_jobs)
            if args.scenario.startswith("bp"):
                # A replication has an estimate exactly when it is conclusive.
                reps = [i for i, v in enumerate(res.verdicts) if v != INCONCLUSIVE]
                print("rep,theta_hat,ci_lo,ci_hi", file=out)
                for i, th, ci in zip(reps, res.thetas, res.theta_cis):
                    print(f"{i},{th:.6f},{ci[0]:.6f},{ci[1]:.6f}", file=out)
            print("n,acceptance_rate,complete_case_pct,inconclusive", file=out)
            print(f"{config.n},{res.acceptance_rate:.4f},"
                  f"{res.complete_case_proportion:.4f},{res.inconclusive}", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_ACCEPTED


def _cardinalities(args, graph):
    """--cardinalities as {variable: cardinality}, 2 for each variable not
    named; a name that is not a graph variable or a value below 2 is a
    usage error."""
    cards = dict.fromkeys(graph.substantive, 2)
    if not args.cardinalities:
        return cards
    problems = []
    for item in args.cardinalities.split(","):
        if "=" not in item:
            raise UsageError(f"expected name=cardinality, got {item!r}")
        name, value = (part.strip() for part in item.split("=", 1))
        try:
            card = int(value)
        except ValueError:
            raise UsageError(f"bad cardinality {value!r} for {name!r}")
        if name not in cards:
            problems.append(f"{name!r} is not a graph variable")
        elif card < 2:
            problems.append(f"{name}={card} is below 2")
        cards[name] = card
    if problems:
        raise UsageError("--cardinalities: " + "; ".join(problems))
    return cards


def cmd_graph(args):
    graph, order = load_graph_json(args.graph)
    if args.order:
        order = _parse_names(args.order)
        defects = permutation_defects(order, graph.substantive)
        if defects:
            raise UsageError(
                f"--order must be a permutation of the graph variables: {defects}")
    if order is None:
        order = graph.substantive

    if args.action in ("dsep", "testability"):
        x, y = _parse_names(args.x or ""), _parse_names(args.y or "")
        if not x or not y:
            raise UsageError(f"graph {args.action} requires non-empty --x and --y")
        # The graph file is valid by now, so a GraphError here comes from
        # the query the flags spelled: a usage error.
        try:
            query = IndependenceQuery(
                x, y,
                _parse_names(args.given) if args.given else frozenset(),
                _parse_names(args.do) if args.do else frozenset())
            if args.action == "dsep":
                result = {"d_separated": d_separated(graph, query)}
            else:
                t = testability_verdict(graph, query)
                result = {"verdict": t.verdict, "route": t.route, "detail": t.detail}
        except GraphError as exc:
            raise UsageError(str(exc)) from exc
    elif args.action == "classify":
        result = {"model": classify_model(graph, order), "order": list(order)}
    elif args.action == "structures":
        rep = detect_structures(graph)
        result = {
            "self_censoring_edges": [list(e) for e in rep.self_censoring_edges],
            "colluders": [list(c) for c in rep.colluders],
            "criss_crosses": [sorted(c) for c in rep.criss_crosses],
            "colluding_paths": [list(p) for p in rep.colluding_paths],
            "clean": rep.clean,
        }
    else:  # count-params
        full, saturated = count_parameters(graph, _cardinalities(args, graph))
        result = {"full_law": full, "saturated_observed_law": saturated}

    if args.json:
        print(json.dumps(result, indent=2))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")
    return EXIT_ACCEPTED


def cmd_verify_counterexample(args):
    record = counterexample.verify_crisscross_counterexample()

    def fmt_law(law):
        return {",".join(str(v) for v in key): str(p) for key, p in sorted(
            law.items(), key=lambda kv: tuple(str(v) for v in kv[0]))}

    payload = {
        "observed_laws_identical": record.observed_laws_identical,
        "full_laws_differ": record.full_laws_differ,
        "both_normalized": record.both_normalized,
        "both_factorize": record.both_factorize,
        "verified": record.verified,
        "shared_observed_law": fmt_law(record.observed),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key in ("observed_laws_identical", "full_laws_differ",
                    "both_normalized", "both_factorize", "verified"):
            print(f"{key}: {payload[key]}")
        print("shared observed law (r1, r2, x1*, x2*) -> probability:")
        for key, p in payload["shared_observed_law"].items():
            print(f"  ({key}) -> {p}")
    return EXIT_ACCEPTED if record.verified else EXIT_REJECTED


# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="mdgof",
                     description="Goodness-of-fit tests for missing-data DAG models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run a goodness-of-fit test on a CSV dataset")
    p.add_argument("--input", required=True, help="CSV with NA for missing cells")
    p.add_argument("--model", required=True, choices=sorted(MODELS))
    p.add_argument("--order", help="comma-separated variable order")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bootstrap", type=int, default=200)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("simulate", help="replicated acceptance-rate study")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--dist", default="binary", choices=("binary", "gaussian"))
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--n-grid", help="lo:hi:step sample-size sweep")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--param-range", default="0,2",
                   help=f"lo,hi for missingness coefficients; studied ranges: "
                        f"{COEF_RANGES}")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bootstrap", type=int, default=200)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (default: 1)")
    p.add_argument("--output", help="write the CSV here instead of stdout")
    p.add_argument("--emit-data",
                   help="write one replication's dataset as a CSV and exit")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("graph", help="graph queries: d-separation, "
                                     "classification, audits, parameter counts")
    p.add_argument("action", choices=("dsep", "classify", "structures",
                                      "count-params", "testability"))
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--x", help="left vertex set, comma-separated")
    p.add_argument("--y", help="right vertex set, comma-separated")
    p.add_argument("--given", help="conditioning set, comma-separated")
    p.add_argument("--do", help="indicators fixed to 1, comma-separated")
    p.add_argument("--order", help="variable order for classification")
    p.add_argument("--cardinalities", help="name=card pairs, comma-separated "
                                           "(default 2 each)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify-counterexample",
                       help="exact-arithmetic identifiability counterexample check")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_verify_counterexample)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (DataError, GraphError, OSError) as exc:
        print(f"mdgof: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"mdgof: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
