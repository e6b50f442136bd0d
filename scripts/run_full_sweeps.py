#!/usr/bin/env python3
"""Full-scale acceptance-rate curves for all scenarios.

Sweeps the sample size from 1000 to 15000 in steps of 500 (29 grid points)
for every scenario, both distributions, and all three coefficient ranges,
writing one CSV per combination, named <scenario>_<dist>_<lo>_<hi>.csv with
a minus sign in a bound written as m (mar-null_binary_m1_1.csv).  This is
hours of compute at 100 replications per grid point; the desk-scale single
points live in the test suite, and this script exists for full reproduction
runs.

Usage:
    python scripts/run_full_sweeps.py --out results/ [--threads 4]
        [--reps 100] [--seed 7] [--scenario mar-null ...]
"""

import argparse
import os
import sys
import time

from mdgof.cli import main as mdgof_main
from mdgof.simulate import COEF_RANGES, SCENARIOS

GRID = "1000:15000:500"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scenario", action="append", choices=SCENARIOS,
                        help="restrict to these scenarios (default: all)")
    args = parser.parse_args()

    scenarios = args.scenario or list(SCENARIOS)
    os.makedirs(args.out, exist_ok=True)
    for scenario in scenarios:
        for dist in ("binary", "gaussian"):
            for lo, hi in COEF_RANGES:
                bounds = f"{lo:g}_{hi:g}".replace("-", "m")
                tag = f"{scenario}_{dist}_{bounds}"
                path = os.path.join(args.out, f"{tag}.csv")
                if os.path.exists(path):
                    print(f"skip {path} (exists)", file=sys.stderr)
                    continue
                start = time.time()
                partial = path + ".part"  # a cut run leaves no CSV to skip
                code = mdgof_main([
                    "simulate", "--scenario", scenario, "--dist", dist, "--K", "4",
                    "--reps", str(args.reps), f"--param-range={lo!r},{hi!r}",
                    "--seed", str(args.seed), "--threads", str(args.threads),
                    "--n-grid", GRID, "--output", partial])
                if code:
                    sys.exit(f"mdgof simulate failed for {path} (exit {code})")
                os.replace(partial, path)
                print(f"{path} done in {time.time() - start:.0f}s",
                      file=sys.stderr)


if __name__ == "__main__":
    main()
