"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile distance over the median)
against its bound in BENCHMARK.json.  Every workload of BENCHMARK.json is
run at its ``run_seconds``, the run length the bounds are set for.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --trace-seed 1 --out perfbench/baseline.json

``--trace-seed`` adds one traced run per workload and keeps its per-layer
table; ``--out`` writes runs, summaries and tables as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    record = next((json.loads(l[len("record "):]) for l in lines
                   if l.startswith("record ")), None)
    if done.returncode != 0 or record is None:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return record


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third": spread < bound / 3}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        records = [run(workload, s, seconds, 0) for s in args.seeds]
        summary = {name: summarize([r["metrics"][name]["value"] for r in records], bound)
                   for name, bound in bounds.items()}
        entry = {"summary": summary, "runs": [
            {"seed": r["seed"], "ops": r["ops"], "inputs": r["inputs"], "failed": r["failed"],
             "loadavg_start": r["provenance"]["loadavg_start"],
             "metrics": {k: v["value"] for k, v in r["metrics"].items()},
             "raw_wall_ms": r["raw_wall_ms"], "setup_raw_s": r["setup_raw_s"]}
            for r in records]}
        entry["provenance"] = records[0]["provenance"]
        extra = {f"({q})": summarize([r["quantiles_ms"][q] for r in records], 0.0)
                 for q in records[0]["quantiles_ms"]}
        for name, s in list(summary.items()) + list(extra.items()):
            flag = "" if not s["bound"] else "ok" if s["within_third"] else "WIDE"
            print(f"{workload:12s} {name:14s} median {s['median']:12.5g} "
                  f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} "
                  f"spread {s['spread']:7.4f} bound {s['bound']:5.3f} {flag}", flush=True)
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "table": traced["table"],
                              "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
