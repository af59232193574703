"""Smoke run of the checked-in benchmark: one quick blowup-1d run, whose
correctness gate checks exit codes, the blow-up statuses, the scaling
identity and T_max against perfbench/references.json."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_blowup_benchmark_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "blowup-1d", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
    assert set(result["metrics"]) >= {"wall_rel", "setup_s", "peak_rss_mb"}
