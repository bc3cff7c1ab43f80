#!/usr/bin/env python3
"""The benchmark's own tests: every workload, untraced and traced, with all
of its checks, at smoke size (a few ops each, about a minute in all after
the first build).

    python3 perfbench/test_perfbench.py

Smoke runs use the default seed, so each workload's pinned output digest is
checked too; a run that fails any check reports "correct": false.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
DEFAULT_SEED = 42

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)


def run(workload, trace, cwd=ROOT, runner=RUN):
    cmd = [sys.executable, runner, "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=cwd, timeout=600, check=False)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, expected):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if trace == 0:  # end-to-end metrics are never 0
                self.assertGreater(got["value"], 0, m["name"])
        return result

    def test_untraced(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, BENCH["end_to_end"])

    def test_traced(self):
        """Traced runs report every per-layer metric, and each layer's
        counters are non-zero on the workload that drives it."""
        busy = {
            "paper_sweep": ["cluster.tick_ms", "des.scheduled", "runner.tasks"],
            "cluster_scale": ["des.cancelled", "cluster.completion_ms"],
            "sharded_scale": ["shard.windows", "shard.advance_ms",
                              "shard.drain_ms", "des.fired"],
            "serve_mix": ["serve.hit_ratio", "serve.simulate_ms",
                          "trace.pool_builds"],
        }
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 1, BENCH["per_layer"])[
                    "metrics"]
                for name in busy[w["name"]] + ["obs.trace_overhead"]:
                    self.assertGreater(metrics[name]["value"], 0, name)

    def test_refuses_without_sources(self):
        """With only BENCHMARK.json and perfbench/, the run fails fast."""
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            proc = run("paper_sweep", 0, cwd=bare,
                       runner=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
