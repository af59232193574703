"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the output schema of every workload in quick mode, traced and
untraced, against BENCHMARK.json; that a deliberately wrong stored
reference is counted as a failed run rather than crashing the benchmark;
and that the benchmark refuses to run without the package sources.  Takes
about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

HERE, ROOT, OUT = run.HERE, run.ROOT, run.OUT
WORKLOADS = run.wl.WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def setUp(self):
        os.makedirs(OUT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="selftest-", dir=OUT)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _check_metrics(self, metrics: dict, expected: dict):
        self.assertEqual(set(metrics), set(expected))
        for name, m in metrics.items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], expected[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_quick_run_of_every_workload_matches_the_schema(self):
        proc = _bench("--workload", "all", "--quick")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = _last_json(proc.stdout)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], proc.stdout[-3000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), set(WORKLOADS))
        for name in WORKLOADS:
            self._check_metrics(res["metrics"][name], {**E2E, **LAYER})
            for metric in ("wall_rel", "setup_s", "peak_rss_mb"):
                self.assertGreater(res["metrics"][name][metric]["value"], 0)
            self.assertEqual(res["metrics"][name]["cli.cache.miss"]["value"],
                             0)

    def test_wrong_reference_counts_as_failure_not_crash(self):
        with open(run.REFERENCES) as fh:
            refs = json.load(fh)
        refs["smallness-1d"]["C_inf"] *= 1.01
        out = run.run_workload("smallness-1d", 0, 0.0, False, True, refs)
        res = out["result"]
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self._check_metrics(res["metrics"], E2E)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertTrue(any(ln.startswith("failed_ratio")
                            for ln in out["lines"]))

    def test_refuses_to_run_without_package_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench("--workload", "smallness-1d",
                      "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=os.path.join(bare, "perfbench",
                                                    "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
