"""The benchmark's smoke test (``perfbench/smoke.py``) as part of the suite.

The benchmark drives the package from outside: it builds problems and run
configs through the CLI helpers and traces the package's callables by
attribute.  Running its smoke test here makes a change that breaks the
benchmark's workloads or its tracer fail the suite.  The tracer reports a
hook whose target is gone as absent rather than failing, so the manifold
hooks are also looked up here, and a rename that hides them fails.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def spans():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("manifold", ["Sphere", "Stiefel"])
@pytest.mark.parametrize("operation", ["tangent_project", "transport", "retract"])
def test_tracer_finds_the_manifold_operations(spans, manifold, operation):
    path = f"manifolds.{manifold}.{operation}"
    assert ("manifolds." + operation, path, None) in spans.HOOKS
    assert spans._resolve(path) is not None


def test_benchmark_smoke_test_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
