"""Spans around the package's layer boundaries, and the per-layer metrics
computed from them.

A span is wrapped around a name the package looks up at call time: modules
import functions by name (``from .numerics import fit_weighted_logistic``), so
``mdgof.estimation.fit_weighted_logistic`` is wrapped, not only the defining
module's attribute.  Wrappers are installed for one traced operation at a
time and removed afterwards, so untraced executions run the package as is.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import time

LAYERS = ("numerics", "estimation", "gof", "simulate", "data", "cli", "graph",
          "counterexample")

# Unit of every per-layer metric.  "_ms" and "_calls" metrics are per
# operation unless the name says otherwise (per fit, per test, per call).
UNITS = {
    "numerics.fit_calls": "count", "numerics.fit_self_ms": "ms",
    "numerics.fit_rows": "rows", "numerics.newton_iters": "count",
    "numerics.loglik_per_iter": "ratio", "numerics.fit_nonconverged": "ratio",
    "estimation.cascade_self_ms": "ms", "estimation.features_calls": "count",
    "estimation.features_ms": "ms", "estimation.step_test_ms": "ms",
    "estimation.pvalue_ms": "ms", "estimation.resample_ms": "ms",
    "estimation.resample_fit_share": "ratio", "estimation.failed_resamples": "ratio",
    "gof.test_self_ms": "ms", "gof.steps_run": "count", "gof.inconclusive": "count",
    "simulate.generate_ms": "ms",
    "data.read_csv_s": "s", "data.read_mb_per_s": "MB/s", "data.to_csv_s": "s",
    "data.write_mb_per_s": "MB/s", "data.reorder_calls": "count",
    "cli.startup_s": "s",
    "graph.classify_ms": "ms", "graph.dsep_calls": "count", "graph.detect_ms": "ms",
    "graph.testability_ms": "ms", "graph.count_params_ms": "ms",
    "graph.colluding_paths": "count",
    "counterexample.verify_ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_share": "ratio", "trace.overhead_ms": "ms",
}


def _fit(args, kwargs, res):
    design = args[0] if args else kwargs["design"]
    return {"rows": design.n, "iters": res.iterations, "converged": res.converged}


def _test(args, kwargs, res):
    out = {"steps": len(res.steps)}
    if res.verdict == "inconclusive":
        out["reason"] = next((s.diagnostics.get("error", "") for s in res.steps
                              if s.decision == "inconclusive"), "")
    return out


def _odds_ratio(args, kwargs, res):
    return {"resamples": res.n_bootstrap, "failed": res.n_failed_resamples}


def _file_size(index):
    def attrs(args, kwargs, res):
        return {"bytes": os.path.getsize(args[index])}
    return attrs


# (span name, owner "module" or "module:Class", attribute, attribute function)
SPANS = (
    ("numerics.fit", "mdgof.estimation", "fit_weighted_logistic", _fit),
    ("estimation.cascade", "mdgof.gof", "fit_cascade_mar", None),
    ("estimation.cascade", "mdgof.gof", "fit_cascade_mnar", None),
    ("estimation.features", "mdgof.estimation", "build_features", None),
    ("estimation.step_test", "mdgof.gof", "step_test", None),
    ("estimation.pvalue", "mdgof.estimation", "robust_lr_pvalue", None),
    ("estimation.odds_ratio", "mdgof.simulate", "estimate_odds_ratio", _odds_ratio),
    ("gof.test", "mdgof.simulate", "test_sequential_mar", _test),
    ("gof.test", "mdgof.simulate", "test_sequential_mnar", _test),
    ("gof.test", "mdgof.cli", "test_sequential_mar", _test),
    ("gof.test", "mdgof.cli", "test_sequential_mnar", _test),
    ("simulate.run_study", "mdgof.simulate", "run_study", None),
    ("simulate.generate", "mdgof.simulate", "generate_full_data", None),
    ("simulate.generate", "mdgof.simulate", "generate_missingness", None),
    ("simulate.generate", "mdgof.cli", "generate_full_data", None),
    ("simulate.generate", "mdgof.cli", "generate_missingness", None),
    ("data.read_csv", "mdgof.cli", "read_csv", _file_size(0)),
    ("data.to_csv", "mdgof.data:ObservedDataset", "to_csv", _file_size(1)),
    ("data.reorder", "mdgof.data:ObservedDataset", "reorder", None),
    ("cli.main", "mdgof.cli", "main", None),
    ("graph.classify", "mdgof.graph", "classify_model", None),
    ("graph.detect", "mdgof.graph", "detect_structures",
     lambda a, k, res: {"paths": len(res.colluding_paths)}),
    ("graph.testability", "mdgof.graph", "testability_verdict", None),
    ("graph.count_params", "mdgof.graph", "count_parameters", None),
    ("graph.dsep", "mdgof.graph", "d_separated", None),
    ("counterexample.verify", "mdgof.counterexample",
     "verify_crisscross_counterexample", None),
)
# Counted, not spanned: called several times per Newton iteration.
COUNTS = (("numerics.loglik", "mdgof.numerics", "weighted_bernoulli_loglik"),)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id, attrs]."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = None
        self.missing = []
        self._stack = []
        self._saved = []

    def _span(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                    tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = {"error": f"{type(exc).__name__}: {exc}"}
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, res)
            return res
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, op_id):
        self.op = op_id
        wrappers = [(n, o, a, lambda fn, n=n, f=f: self._span(n, fn, f))
                    for n, o, a, f in SPANS]
        wrappers += [(n, o, a, lambda fn, n=n: self._counter(n, fn))
                     for n, o, a in COUNTS]
        for name, owner_path, attr, make in wrappers:
            owner = _owner(owner_path)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                where = f"{owner_path}.{attr}"
                if where not in self.missing:
                    self.missing.append(where)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, make(fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self.op = None


def layer_metrics(tracer, n_ops, traced_s, untraced_s, startup_s):
    """Per-layer metrics over ``n_ops`` traced operations.  ``traced_s`` and
    ``untraced_s`` are the summed wall times of the same inputs run with and
    without tracing."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            covered[s[3]] += dur[i]
    own = [d - c for d, c in zip(dur, covered)]
    by = collections.defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def total(name, values=dur):
        return sum(values[i] for i in by[name])

    def attr(name, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in by[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def inside(i, name):
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    fits = by["numerics.fit"]
    iters = attr("numerics.fit", "iters")
    resamples = attr("estimation.odds_ratio", "resamples")
    tests = len(by["gof.test"])
    reasons = collections.Counter()
    for name in ("gof.test", "estimation.odds_ratio"):
        for i in by[name]:
            a = spans[i][5] or {}
            if "reason" in a or "error" in a:
                reasons[a.get("reason") or a.get("error")] += 1
    read_s, write_s = total("data.read_csv"), total("data.to_csv")
    m = {
        "numerics.fit_calls": ratio(len(fits), n_ops),
        "numerics.fit_self_ms": ratio(total("numerics.fit", own) * 1e3, n_ops),
        "numerics.fit_rows": ratio(attr("numerics.fit", "rows"), n_ops),
        "numerics.newton_iters": ratio(iters, len(fits)),
        "numerics.loglik_per_iter": ratio(tracer.counts["numerics.loglik"], iters),
        "numerics.fit_nonconverged": ratio(
            sum(not (spans[i][5] or {}).get("converged", False) for i in fits), len(fits)),
        "estimation.cascade_self_ms": ratio(total("estimation.cascade", own) * 1e3, n_ops),
        "estimation.features_calls": ratio(len(by["estimation.features"]), n_ops),
        "estimation.features_ms": ratio(total("estimation.features") * 1e3, n_ops),
        "estimation.step_test_ms": ratio(total("estimation.step_test") * 1e3, n_ops),
        "estimation.pvalue_ms": ratio(total("estimation.pvalue") * 1e3, n_ops),
        "estimation.resample_ms": ratio(total("estimation.odds_ratio") * 1e3, resamples),
        "estimation.resample_fit_share": ratio(
            sum(dur[i] for i in fits if inside(i, "estimation.odds_ratio")),
            total("estimation.odds_ratio")),
        "estimation.failed_resamples": ratio(attr("estimation.odds_ratio", "failed"), resamples),
        "gof.test_self_ms": ratio(total("gof.test", own) * 1e3, n_ops),
        "gof.steps_run": ratio(attr("gof.test", "steps"), tests),
        "gof.inconclusive": sum(reasons.values()),
        "simulate.generate_ms": ratio(total("simulate.generate") * 1e3, n_ops),
        "data.read_csv_s": ratio(read_s, len(by["data.read_csv"])),
        "data.read_mb_per_s": ratio(attr("data.read_csv", "bytes") / 1e6, read_s),
        "data.to_csv_s": ratio(write_s, len(by["data.to_csv"])),
        "data.write_mb_per_s": ratio(attr("data.to_csv", "bytes") / 1e6, write_s),
        "data.reorder_calls": ratio(len(by["data.reorder"]), tests),
        "cli.startup_s": startup_s,
        "graph.classify_ms": ratio(total("graph.classify") * 1e3, n_ops),
        "graph.dsep_calls": ratio(len(by["graph.dsep"]), n_ops),
        "graph.detect_ms": ratio(total("graph.detect") * 1e3, n_ops),
        "graph.testability_ms": ratio(total("graph.testability") * 1e3, n_ops),
        "graph.count_params_ms": ratio(total("graph.count_params") * 1e3, n_ops),
        "graph.colluding_paths": ratio(attr("graph.detect", "paths"), n_ops),
        "counterexample.verify_ms": ratio(total("counterexample.verify") * 1e3,
                                          len(by["counterexample.verify"])),
    }
    shares = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        shares[layer] += own[i]
        calls[layer] += 1
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(shares[layer], traced_s)
    m["trace.overhead_share"] = ratio(traced_s - untraced_s, untraced_s)
    m["trace.overhead_ms"] = ratio((traced_s - untraced_s) * 1e3, n_ops)
    table = {
        "layers": {layer: {"self_share": m[f"{layer}.self_share"],
                           "spans_per_op": ratio(calls[layer], n_ops)}
                   for layer in LAYERS},
        "unattributed_share": 1.0 - sum(m[f"{l}.self_share"] for l in LAYERS),
        "inconclusive_reasons": dict(reasons),
        "overhead_share": m["trace.overhead_share"],
        "traced_ops": n_ops,
        "missing_wrap_targets": list(tracer.missing),
    }
    return m, table
