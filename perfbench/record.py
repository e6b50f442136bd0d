"""Record the outputs the benchmark checks against, from the code as it is.

    python3 perfbench/record.py            # rewrites perfbench/expected.json
    python3 perfbench/record.py tiny       # only the smoke-test sizes

Run this only when a change is meant to alter results, and say so where the
change is described: every benchmark run compares each operation's output
with these values.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def record(size, name, workdir):
    wl = workloads.WORKLOADS[name](size, None, workdir)
    run = lambda op: wl.summary(op, wl.execute(op))
    if name == "study-seq":
        return {"verdicts": [run(wl.entry(i)) for i in range(wl.pool + 1)]}
    if name == "study-bp":
        out = [run(wl.entry(i)) for i in range(wl.pool + 1)]
        return {"verdicts": [o["verdict"] for o in out],
                "thetas": [o["theta"] for o in out]}
    if name == "cli-csv":
        return {"entries": [run(wl.entry(i)) for i in range(wl.pool)],
                "warmup": run(wl.warmup())}
    out = {"warmup": run(wl.warmup())}
    for stratum, i in wl.suite():
        graph = workloads.graph_input(stratum, i)
        out.setdefault(stratum, []).append(workloads.digest(workloads.audit(*graph)))
    return out


def main(sizes):
    path = os.path.join(HERE, "expected.json")
    expected = {}
    if os.path.exists(path):
        with open(path) as fh:
            expected = json.load(fh)
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for size in sizes:
            expected[size] = {}
            for name in workloads.WORKLOADS:
                print(f"recording {size} {name}", file=sys.stderr, flush=True)
                expected[size][name] = record(size, name, workdir)
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(workloads.SIZES))
