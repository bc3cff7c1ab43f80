#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) and
prints, per metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to a third of the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             check=True, cwd=ROOT).stdout
        result = json.loads(out.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {result}")
        row = []
        for name in bounds:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"  {name:12s} median {med:12.5g}  spread {spread:7.4f}  "
              f"(bound/3 {bounds[name] / 3:.4f})")


if __name__ == "__main__":
    main()
