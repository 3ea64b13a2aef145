#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root (builds the benchmark on first use):

    python3 e2e_bench/test_bench.py

A short run of every workload must print every metric BENCHMARK.json
lists, with the layer times adding up to the traced wall time; an injected
failed check must fail the run; malformed flags must exit 2; and without
the library sources the benchmark must exit non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the benchmark once; later runs reuse the build.
        proc = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark build/run failed:\n{proc.stderr[-3000:]}")

    def check_run(self, workload, trace, names):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), names)
        return result["metrics"]

    def test_every_workload_prints_every_metric(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        layers = [m["name"] for m in SPEC["per_layer"]]
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0, e2e)
                for name, m in metrics.items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertGreater(m["value"], 0.0, name)
                metrics = self.check_run(workload, 1, layers)
                for name, m in metrics.items():
                    self.assertEqual(m["unit"], units[name])
                # Layer self times plus unattributed_s partition the wall.
                parts = sum(m["value"] for name, m in metrics.items()
                            if m["unit"] == "s" and not name.startswith("bench."))
                wall = metrics["bench.traced_wall_s"]["value"]
                self.assertAlmostEqual(parts, wall, delta=1e-4 * wall)

    def test_injected_failed_check_fails_the_run(self):
        proc = run_bench("--workload", "fleet_e2e", "--seed", "1", "--seconds", "1",
                         "--trace", "0", "--inject-check-failure")
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_malformed_flags_exit_2(self):
        good = ["--workload", "tuner_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
        cases = [
            good + ["--bogus", "1"],
            ["--workload", "tuner_swep"] + good[2:],
            good[:3] + ["x"] + good[4:],
            good[:5] + ["-1"] + good[6:],
            good[:7] + ["2"],
            good[:6],
            ["--work", "tuner_sweep"] + good[2:],
        ]
        for args in cases:
            with self.subTest(args=args):
                proc = run_bench(*args)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertEqual(proc.stdout, "")
        binary = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e_bench" / "mntp_e2e"
        for args in (good + ["--bogus"], good[:3] + ["1e3"] + good[4:], good + ["--seed", "2"]):
            with self.subTest(binary_args=args):
                proc = subprocess.run([str(binary)] + args, capture_output=True, text=True)
                self.assertEqual(proc.returncode, 2, proc.stderr)

    def test_without_sources_exits_nonzero_without_result(self):
        bare = ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench("--workload", "testbed_h2h", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
