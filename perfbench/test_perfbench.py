#!/usr/bin/env python3
"""The benchmark's own tests: tiny runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that each workload emits exactly the metric names and units that
BENCHMARK.json declares, in both trace modes, and that the correctness gate
catches a corrupted tensor digest, byte count and what-if projection.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = ["--seconds", "0.2", "--corpus", "8", "--catalog", "200", "--min-batches", "1"]
WORKLOADS = ("raw", "sophon", "whatif-sweep")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace, *extra):
        done = subprocess.run([self.binary, "--workload", workload, "--seed", "3",
                               "--trace", str(trace)] + TINY + list(extra),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        lines = done.stdout.decode().splitlines()
        self.assertTrue(lines[0].startswith("fingerprint "), lines[0])
        fingerprint = json.loads(lines[0][len("fingerprint "):])
        for key in ("nproc", "cpu", "compiler", "build_type", "commit", "seed"):
            self.assertIn(key, fingerprint)
        return done.returncode, json.loads(lines[-1]), done.stderr.decode()

    def test_metric_names_and_units_match_benchmark_json(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = self.run_bench(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_gate_catches_corruption(self):
        for workload, corrupt in (("raw", "digest"), ("sophon", "digest"), ("raw", "bytes"),
                                  ("sophon", "bytes"), ("whatif-sweep", "projection")):
            with self.subTest(workload=workload, corrupt=corrupt):
                code, result, err = self.run_bench(workload, 0, "--corrupt", corrupt)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)
                self.assertIn("gate:", err)

    def test_bad_arguments_print_no_result(self):
        done = subprocess.run([self.binary, "--workload", "nope", "--seed", "1", "--seconds",
                               "1", "--trace", "0"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        self.assertEqual(done.returncode, 2)
        self.assertNotIn('"correct"', done.stdout.decode())


if __name__ == "__main__":
    unittest.main()
