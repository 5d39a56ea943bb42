"""The benchmark's tiny-size self-test, run against the package in this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines()
