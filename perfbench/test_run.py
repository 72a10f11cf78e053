#!/usr/bin/env python3
"""Smoke test of the serving-path benchmark.

    python3 perfbench/test_run.py

Runs every workload BENCHMARK.json lists at its smoke size
(perfbench/workloads.json), untraced and traced, through perfbench/run.py,
and checks that each run prints every metric BENCHMARK.json names with its
unit, that all output checks pass, and that the traced run reproduces the
untraced run's fingerprint. web_cbslru checks that the simulated metrics
repeat exactly for a seed. Takes about a minute after the first build.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
EXACT = ("sim_resp_ms_p50", "sim_resp_ms_p99", "hit_ratio",
         "ssd_erases_per_kq")


def run(workload, trace, cwd=ROOT, seed=SEED):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def fingerprint(stdout):
    return [line for line in stdout.splitlines()
            if line.startswith("fingerprint ")]


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as f:
            cls.bench = json.load(f)
        cls.results = {}

    def result(self, workload, trace):
        key = (workload, trace)
        if key not in self.results:
            proc = run(workload, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
            self.results[key] = proc
        return self.results[key]

    def check_metrics(self, workload, trace):
        proc = self.result(workload, trace)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {n: m["unit"] for n, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        return result

    def test_every_workload_prints_every_metric(self):
        for w in self.bench["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.check_metrics(w["name"], trace)
                    if trace == 0:
                        for name in ("qps", "setup_s", "hit_ratio",
                                     "ssd_erases_per_kq"):
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_traced_run_reproduces_fingerprint(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                untraced = fingerprint(self.result(w["name"], 0).stdout)
                traced = fingerprint(self.result(w["name"], 1).stdout)
                self.assertEqual(len(untraced), 1)
                self.assertEqual(len(traced), 2)  # execute pass, layer pass
                self.assertEqual(traced, untraced * 2)

    def test_sim_metrics_repeat_for_a_seed(self):
        first = self.result("web_cbslru", 0).stdout.splitlines()[-1]
        first = json.loads(first)
        again = run("web_cbslru", 0)
        self.assertEqual(again.returncode, 0, again.stderr[-3000:])
        second = json.loads(again.stdout.splitlines()[-1])
        for name in EXACT:
            self.assertEqual(first["metrics"][name], second["metrics"][name])
        other = run("web_cbslru", 0, seed=SEED + 1)
        self.assertEqual(other.returncode, 0, other.stderr[-3000:])
        self.assertNotEqual(fingerprint(other.stdout),
                            fingerprint(self.result("web_cbslru", 0).stdout))

    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "web_cbslru", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotRegex(proc.stdout, re.compile(r'"correct"'))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
