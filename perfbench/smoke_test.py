"""Smoke test of the benchmark itself, at the tiny input sizes.

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

Checks that every workload emits every end-to-end and per-layer metric of
BENCHMARK.json with its unit, that the correctness check fails a run when a
recorded value is corrupted, and that the command refuses to run without
the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, expected=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if expected:
        cmd += ["--expected", expected]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


def corrupt(expected, workload):
    """Change every recorded value the workload checks."""
    e = expected["tiny"][workload]
    if workload == "study-seq":
        flip = {"accepted": "rejected", "rejected": "accepted"}
        e["verdicts"] = [flip.get(v, v) for v in e["verdicts"]]
    elif workload == "study-bp":
        e["thetas"] = [t * 1.01 for t in e["thetas"]]
    elif workload == "cli-csv":
        for entry in e["entries"] + [e["warmup"]]:
            entry["steps"] = [[k, s * 1.01] for k, s in entry["steps"]]
    else:
        for key, value in e.items():
            e[key] = "0" * 16 if isinstance(value, str) else ["0" * 16] * len(value)


def test_metrics_emitted_with_units():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in WORKLOADS:
            code, result, done = bench(workload, trace)
            assert code == 0, (workload, trace, done.stdout[-2000:], done.stderr[-2000:])
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name)


def test_corrupted_expected_value_fails_the_run():
    with open(os.path.join(HERE, "expected.json")) as fh:
        original = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in WORKLOADS:
            expected = json.loads(json.dumps(original))
            corrupt(expected, workload)
            path = os.path.join(tmp, f"{workload}.json")
            with open(path, "w") as fh:
                json.dump(expected, fh)
            code, result, done = bench(workload, expected=path)
            assert code == 1, (workload, code, done.stderr[-2000:])
            assert result["correct"] is False and result["failed"] >= 1, (workload, result)


def test_refuses_without_package_sources():
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, done = bench(WORKLOADS[0], cwd=tmp)
        assert code != 0 and result is None, (code, done.stdout[-500:])


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
