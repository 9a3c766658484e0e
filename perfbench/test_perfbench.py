#!/usr/bin/env python3
"""The benchmark's own tests, at tiny input sizes.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that every workload
prints every named metric with its unit, that a corrupted result raises the
failure count and the exit code, that one seed gives identical inputs and
two seeds different ones, and that the adhoc plan sequence never repeats.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--scale", "0.02", "--seconds", "1"]


def run_py(*args):
    """run.py at tiny sizes: (exit code, stdout lines, final JSON)."""
    r = subprocess.run([sys.executable, str(HERE / "run.py"), *TINY, *args],
                       capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines, json.loads(lines[-1])


BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())


def binary(*args):
    r = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                       timeout=120, check=True)
    return r.stdout


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, workload, trace, kind):
        code, lines, result = run_py("--workload", workload, "--seed", "3",
                                     "--trace", str(trace))
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        printed = {l.split()[1]: l.split() for l in lines
                   if l.startswith("metric ")}
        for name, unit in want.items():
            self.assertIn(unit, printed[name])
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float))
        self.assertTrue(any(l.startswith("failed_frac ") for l in lines))
        self.assertTrue(any(l.startswith("provenance {") for l in lines))
        return code, result

    def test_every_workload_prints_every_metric(self):
        listed = [w["name"] for w in BENCH["workloads"]]
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = self.check_metrics(workload, trace, kind)
                    if workload in listed:
                        self.assertEqual(code, 0)
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_corrupted_result_raises_failed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run_py("--workload", workload, "--seed",
                                             "3", "--trace", "0", "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                frac = [l for l in lines if l.startswith("failed_frac ")]
                self.assertGreater(float(frac[0].split()[1]), 0)

    def test_seed_determines_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                def digest(seed):
                    return binary("--workload", workload, "--seed", str(seed),
                                  "--seconds", "1", "--scale", "0.02",
                                  "--digest", "--list-plans", "40")
                self.assertEqual(digest(5), digest(5))
                self.assertNotEqual(digest(5), digest(6))

    def test_adhoc_plans_never_repeat(self):
        out = binary("--workload", "adhoc", "--seed", "7", "--seconds", "1",
                     "--scale", "0.02", "--list-plans", "2000")
        plans = [l.split(" ", 2)[2] for l in out.splitlines()
                 if l.startswith("plan ")]
        self.assertEqual(len(plans), 2000)
        self.assertEqual(len(set(plans)), len(plans))


if __name__ == "__main__":
    unittest.main()
