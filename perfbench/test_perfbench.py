#!/usr/bin/env python3
"""Tests of the benchmark itself: every correctness gate fails when its
fault is injected, bad flags are refused cleanly, and the metrics printed
are the ones BENCHMARK.json declares.

Run from the root of the repository (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(*args):
    """Run the benchmark command; returns (exit code, stdout, stderr)."""
    done = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                           *args], cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)
    return done.returncode, done.stdout, done.stderr


def result(stdout):
    return json.loads(stdout.strip().split("\n")[-1])


def gate_line(stdout, gate):
    for line in stdout.split("\n"):
        if " gate " + gate + " " in line:
            return line
    return ""


class GatePolarity(unittest.TestCase):
    """Each injected fault must fail the gate that guards it."""

    def check_fails(self, workload, fault, gate):
        code, out, _ = bench("--workload", workload, "--seconds", "1",
                             "--seed", "5", "--inject", fault)
        self.assertNotEqual(code, 0)
        self.assertIn("FAIL", gate_line(out, gate))
        res = result(out)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_wrong_expected_alpha_fails_table1_gate(self):
        self.check_fails("configure_mci", "wrong-alpha",
                         "configure.table1_reproduced")

    def test_double_release_fails_unknown_release_gate(self):
        self.check_fails("churn_serve", "double-release",
                         "churn.no_unknown_releases")

    def test_undersized_recorder_fails_registration_gate(self):
        self.check_fails("churn_serve", "small-recorder",
                         "churn.recorder_registers_flows")


class CleanRuns(unittest.TestCase):
    """Without faults every gate passes and the metrics match the spec."""

    @classmethod
    def setUpClass(cls):
        with open(SPEC) as f:
            cls.spec = json.load(f)

    def test_every_workload_passes_with_end_to_end_metrics(self):
        names = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                code, out, _ = bench("--workload", workload, "--seconds", "1",
                                     "--seed", "2", "--trace", "0")
                self.assertEqual(code, 0, out[-2000:])
                res = result(out)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                                 names)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        names = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        code, out, _ = bench("--workload", "overload_batch", "--seconds", "1",
                             "--seed", "2", "--trace", "1")
        self.assertEqual(code, 0, out[-2000:])
        res = result(out)
        self.assertTrue(res["correct"])
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, names)
        trace = os.path.join(run.OUT_DIR, "overload_batch-seed2.trace.json")
        with open(trace) as f:
            self.assertTrue(json.load(f)["traceEvents"])


class BadFlags(unittest.TestCase):
    """Bad input gets an error message and a non-zero exit, never an
    uncaught exception."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def binary(self, *args):
        done = subprocess.run([run.BINARY, *args], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_binary_refuses_bad_flags(self):
        for args in (["--workload", "churn_serve", "--bogus", "1"],
                     ["--workload", "nope"],
                     ["--workload", "churn_serve", "--seed", "-1"],
                     ["--workload", "churn_serve", "--seed", "abc"],
                     ["--workload", "churn_serve", "--seconds", "0"],
                     ["--workload", "churn_serve", "--trace", "2"],
                     ["--workload", "churn_serve", "--inject", "nope"],
                     ["--workload"],
                     ["--seed", "1"]):
            with self.subTest(args=args):
                code, out, err = self.binary(*args)
                self.assertEqual(code, 2)
                self.assertIn("ubac_perfbench:", err)
                self.assertNotIn("terminate", err)
                self.assertNotIn('"correct"', out)

    def test_command_refuses_bad_flags(self):
        for args in (["--workload", "churn_serve", "--bogus"],
                     ["--workload", "churn_serve", "--seed", "x"],
                     ["--workload", "churn_serve", "--trace", "3"]):
            with self.subTest(args=args):
                code, out, err = bench(*args)
                self.assertEqual(code, 2)
                self.assertIn("error", err)
                self.assertNotIn('"correct"', out)


if __name__ == "__main__":
    unittest.main()
