#!/usr/bin/env python3
"""Smoke tests of the paper-workload benchmark at tiny sizes.

Run from the repository root:
  python3 paperbench/smoke_test.py

Each workload must run in both modes, pass its output gate and emit every
metric BENCHMARK.json names; a deliberately corrupted expectation must show
up as failed runs; and the benchmark must refuse to run, without printing a
result, in a tree that holds only BENCHMARK.json and the benchmark.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "paperbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tiny(workload, trace, *extra):
    return result_of(run("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace),
                         "--size", "tiny", *extra))


class Workloads(unittest.TestCase):
    def check(self, res, metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                res = tiny(w["name"], 0)
                self.check(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                                       m["name"])
            with self.subTest(workload=w["name"], trace=1):
                res = tiny(w["name"], 1)
                self.check(res, SPEC["per_layer"])
                self.assertGreater(
                    res["metrics"]["flowsim.phase_coverage"]["value"], 0.9)

    def test_corrupted_expectation_raises_error_rate(self):
        res = tiny("fig5-trace-8pod", 0, "--corrupt-expected")
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["metrics"]["ok_rate"]["value"], 1)

    def test_unknown_workload_is_refused(self):
        proc = run("--workload", "no-such-workload", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)

    def test_refuses_to_run_without_the_library(self):
        bare = ROOT / ".bench_build" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "paperbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "paperbench/run.py", "--workload",
                 "fig5-trace-8pod", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={"PATH": "/usr/bin:/bin"})
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
