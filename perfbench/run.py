#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout. The program is built from the checkout's
sources with CMake (perfbench/CMakeLists.txt) into .bench_build/perfbench,
or $CARGO_TARGET_DIR/perfbench when that is set. A traced run (--trace 1)
also writes a Chrome trace there and checks it with lltrace. The last line
of stdout is the run's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["llbench", "lltrace"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def build(out):
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", *TARGETS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts (the benchmark's own tests)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources (src/) in this checkout")
    out = build_dir()
    build(out)

    cmd = [os.path.join(out, "llbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    trace_file = None
    if args.trace == "1":
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        trace_file = os.path.join(out, "traces",
                                  f"{args.workload}-{args.seed}.json")
        cmd += ["--trace-out", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)

    result = json.loads(lines[-1])
    if trace_file is not None:
        check = subprocess.run([os.path.join(out, "lltrace"), trace_file],
                               stdout=subprocess.DEVNULL, check=False)
        if check.returncode != 0:
            print(f"run.py: lltrace rejected {trace_file}", file=sys.stderr)
            result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
