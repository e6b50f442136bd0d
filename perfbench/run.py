"""mdgof benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload study-seq --seed 1 --seconds 22 --trace 0

With ``--trace 0`` the end-to-end metrics are measured with no tracing; with
``--trace 1`` every input is run twice, untraced and traced, and the
per-layer metrics come from the traced runs (the difference is the tracing
overhead).  Every operation's output is checked against expected.json.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record, including provenance.  Exit code 0 means every check passed, 1 that
one failed, 2 that the package sources are not there.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import gc
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One core of load: BLAS runs single-threaded here and in the set-up
# processes, so timings do not depend on what else holds the machine's
# other cores.  Set before numpy is imported; recorded in the provenance.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
STARTUP_PROBES = 3
# Time of each calibration kernel that operation times are scaled to.
CALIB_REF_S = {"fit": 0.0045, "graph": 0.007}
# Set-up is timed in fresh processes, whose start-up cost swings with the
# machine's state by more than the calibration kernel does.  Each set-up
# time is scaled instead by a reference process started just before it,
# one that only imports numpy, to this time of that reference.
SETUP_REF = ("-c", "import numpy")
SETUP_REF_S = 0.15


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("study-seq", "study-bp", "cli-csv", "graph-audit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the smoke test")
    p.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                   help="recorded outputs to check against")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up (imports, warm-up operation) and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def quantile(xs, q):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def blas_info():
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                info["threads"] = int(getattr(lib, fn)())
                return info
    return info


def provenance(seed):
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "mdgof", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()), "machine": platform.machine(),
        "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed,
    }


class Calibrator:
    """Times a fixed kernel that uses nothing from mdgof.  The machine this
    runs on changes speed by up to +-20% over tens of seconds, and the
    kernel slows by about the same factor as the workload, so operation
    times are reported as measured wall or CPU time times
    CALIB_REF_S / (kernel time next to the measurement).

    The "fit" kernel, for the numpy-bound workloads, is six Newton steps of
    a weighted logistic fit on 10 000 x 5 rows.  The "graph" kernel, for
    graph-audit's set- and dict-bound searches, is three depth-first
    reachability searches in a fixed 2 000-node digraph; it tracks those
    audits' times about twice as closely as the fit kernel does.  Both end
    with a 30 000-step Python loop."""

    def __init__(self, kind):
        import numpy
        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.kind = kind
        self.x = rng.random((10_000, 5))
        self.w = rng.random(10_000)
        self.y = (rng.random(10_000) < 0.5).astype(float)
        self.adj = [set(rng.integers(0, 2_000, 6).tolist()) for _ in range(2_000)]

    def _fit(self):
        np, x, w, y = self.np, self.x, self.w, self.y
        beta = np.zeros(x.shape[1])
        for _ in range(6):
            mu = 1.0 / (1.0 + np.exp(-(x @ beta)))
            hess = x.T @ (x * (w * mu * (1.0 - mu))[:, None])
            beta = beta + np.linalg.solve(hess, x.T @ (w * (y - mu)))

    def _graph(self):
        adj = self.adj
        for start in (0, 700, 1400):
            seen, stack = {start}, [start]
            while stack:
                for v in adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)

    def _kernel(self):
        t0 = time.perf_counter()
        if self.kind == "fit":
            self._fit()
        else:
            self._graph()
        total = 0
        for i in range(30_000):
            total += i * i
        return time.perf_counter() - t0

    def scale(self):
        """CALIB_REF_S over the median of three kernel times, now."""
        kernel = statistics.median(self._kernel() for _ in range(3))
        return CALIB_REF_S[self.kind] / kernel


def timed_child(argv, env=None):
    """(wall s, problems) of one child process run to completion."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        return wall, [f"{' '.join(argv[1:4])} exited {done.returncode}: "
                      f"{done.stderr.strip()[-500:]}"]
    return wall, []


def setup(wl):
    """Warm-up operation, checked like any other."""
    op = wl.warmup()
    return wl.check(op, wl.execute(op))


def run_ops(wl, seed, seconds, tracer, calibrator):
    """Closed loop: one operation at a time until ``seconds`` have passed.
    With a tracer each input runs twice, untraced and traced, in alternating
    order.  Before every execution, outside the timed region, the heap is
    collected.  Without a tracer the machine's speed is calibrated before
    and after it, and the two scales averaged: that follows the speed over
    a long operation and halves the calibration's own noise.  Only time
    spent here counts towards ``seconds``, not what the caller does between
    operations.
    Yields (op, traced, scale, wall s, cpu s, result, problems)."""
    ops = wl.ops(seed)
    spent = 0.0
    for k in itertools.count():
        op = next(ops)
        order = ((False,) if tracer is None else
                 (False, True) if k % 2 == 0 else (True, False))
        for traced in order:
            begin = time.perf_counter()
            result = None
            gc.collect()
            scale = calibrator.scale() if calibrator else 1.0
            if traced:
                tracer.install(k)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = wl.execute(op)
                problems = None
            except Exception as exc:
                result = None
                problems = [f"{wl.name}[{op.key}]: raised {type(exc).__name__}: {exc}"]
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if traced:
                    tracer.uninstall()
            if calibrator:
                scale = (scale + calibrator.scale()) / 2
            if problems is None:
                problems = wl.check(op, result)
            spent += time.perf_counter() - begin
            yield op, traced, scale, wall, cpu, result, problems
        if spent >= seconds:
            return


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mdgof", "__init__.py")):
        print(f"perfbench: no package sources at {os.path.relpath(SRC)}/mdgof; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    with open(args.expected) as fh:
        expected = json.load(fh)[args.size][args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.size, expected, workdir)
        if args.setup_probe:
            problems = setup(wl)
            for line in problems:
                print(line, file=sys.stderr)
            return 1 if problems else 0
        return measure(args, wl, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, tracing):
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size,
              "provenance": provenance(args.seed)}
    probe = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--size", args.size,
             "--expected", args.expected, "--setup-probe"]
    calibrator = None if args.trace else Calibrator(
        "graph" if args.workload == "graph-audit" else "fit")
    setup_s, setup_raw = [], []
    # This process's warm-up and the set-up probes together are one operation.
    setup_problems = setup(wl)

    def probe_setup():
        ref, errs = timed_child([sys.executable, *SETUP_REF])
        wall, more = timed_child(probe)
        setup_s.append(wall * SETUP_REF_S / ref)
        setup_raw.append(wall)
        setup_problems.extend(errs + more)

    probes = 0 if args.trace else SETUP_PROBES
    attempted, failed, problems = 1, 0, []

    tracer = tracing.Tracer() if args.trace else None
    wall, cpu = collections.defaultdict(list), collections.defaultdict(list)
    raw = collections.defaultdict(list)
    both = {False: 0.0, True: 0.0}  # summed wall of untraced / traced runs
    cli_split = {"emit": [], "test": []}
    # Set-up probes are spread over the run, between operations, so their
    # median spans the machine's slow swings in speed as the operations do.
    next_probe = time.perf_counter()
    for op, traced, scale, w, c, result, errs in run_ops(
            wl, args.seed, args.seconds, tracer, calibrator):
        attempted += 1
        failed += bool(errs)
        problems += errs
        both[traced] += w
        if traced or not args.trace:
            wall[op.key].append(w * scale)
            cpu[op.key].append(c * scale)
            raw[op.key].append(w)
            if args.workload == "cli-csv" and not errs:
                cli_split["emit"].append(result["emit_s"] * scale)
                cli_split["test"].append(result["test_s"] * scale)
        # Only the operation in hand is kept in memory, so that peak RSS is
        # the program's and does not grow with the number of operations.
        del result
        if len(setup_s) < probes and time.perf_counter() >= next_probe:
            probe_setup()
            next_probe = time.perf_counter() + args.seconds / probes
    while len(setup_s) < probes:
        probe_setup()
    failed += bool(setup_problems)
    problems = setup_problems + problems
    if args.workload == "study-bp":
        errs = wl.count_check()
        failed += len(errs)
        problems += errs

    n_timed = sum(map(len, wall.values()))
    # One value per distinct input: the median of its runs, which the
    # panels spread over the whole run.  It damps the machine's passing
    # swings, and runs scaled by a calibration taken during one, which the
    # best of the runs would pick out; it keeps every difference between
    # inputs.
    keys = list(wall)
    raw = [statistics.median(v) for v in raw.values()]
    wall = [statistics.median(v) for v in wall.values()]
    cpu = [statistics.median(v) for v in cpu.values()]
    if args.trace:
        startup = 0.0
        if args.workload == "cli-csv":
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, (SRC, os.environ.get("PYTHONPATH")))))
            starts = [timed_child([sys.executable, "-c", "import mdgof.cli"], env)
                      for _ in range(STARTUP_PROBES)]
            startup = statistics.median(t for t, _ in starts)
            for _, errs in starts:
                failed += bool(errs)
                problems += errs
        metrics, table = tracing.layer_metrics(tracer, n_timed, both[True],
                                               both[False], startup)
        units = tracing.UNITS
        record["table"] = table
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p50": statistics.median(wall) * 1e3,
            "op_cpu_ms_p90": quantile(cpu, 0.9) * 1e3,
            "peak_rss_mb": peak / 1024.0,
        }
        units = END_TO_END_UNITS
        record["setup_samples_s"] = setup_s
        record["setup_raw_s"] = setup_raw
        record["input_ms"] = dict(zip(keys, (round(w * 1e3, 3) for w in wall)))
        record["raw_wall_ms"] = {"p50": statistics.median(raw) * 1e3,
                                 "p90": quantile(raw, 0.9) * 1e3}
        record["quantiles_ms"] = {
            "wall_p50": statistics.median(wall) * 1e3, "wall_p90": quantile(wall, 0.9) * 1e3,
            "cpu_p50": statistics.median(cpu) * 1e3, "cpu_p90": quantile(cpu, 0.9) * 1e3}
        for part, values in cli_split.items():
            if values:
                record[f"cli_{part}_s_p50"] = statistics.median(values)
    record.update(ops=n_timed, inputs=len(wall), attempted=attempted, failed=failed,
                  failed_share=failed / attempted, problems=problems[:20])
    out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    record["metrics"] = out

    for name, m in out.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"{'samples':32s} {n_timed:14d} operations timed, {len(wall)} distinct inputs")
    print(f"{'failed_share':32s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for line in problems[:20]:
        print("problem:", line)
    print("record", json.dumps(record, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_cpu_ms_p90": "ms",
                    "peak_rss_mb": "MB"}

if __name__ == "__main__":
    sys.exit(main())
