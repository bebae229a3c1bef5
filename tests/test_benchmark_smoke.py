"""The benchmark's smoke test (``perfbench/smoke.py``) as part of the suite.

The benchmark drives the package from outside: it builds problems and run
configs through the CLI helpers and traces the package's callables by
attribute.  Running its smoke test here makes a change that breaks the
benchmark's workloads or its tracer fail the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_test_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
