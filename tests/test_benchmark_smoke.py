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

from bregopt import dynamics

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    """A benchmark module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    """The benchmark's tracer module."""
    return _load("spans")


@pytest.mark.parametrize("manifold", ["Sphere", "Stiefel"])
@pytest.mark.parametrize("operation", ["tangent_project", "transport", "retract"])
def test_tracer_finds_the_manifold_operations(spans, manifold, operation):
    path = f"manifolds.{manifold}.{operation}"
    assert ("manifolds." + operation, path, None) in spans.HOOKS
    assert spans._resolve(path) is not None


def test_benchmark_counts_the_order_check_reference_steps():
    # the benchmark keeps its own copy of the reference refinement to count
    # the order check's iterations; a drift would mis-scale us_per_iter
    workloads = _load("workloads")
    assert workloads.REFERENCE_REFINEMENT == dynamics.REFERENCE_REFINEMENT


def test_benchmark_smoke_test_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
