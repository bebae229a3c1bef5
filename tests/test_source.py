"""Checks on the package source itself.

The ``@`` operator goes through numpy's ``matmul`` ufunc, whose dispatch
costs more than the product on the small arrays of the per-iteration path
(about 1.4 against 0.8 microseconds for a 5 x 20 by 20 x 5 product, one BLAS
thread).  ``ndarray.dot`` reaches the same BLAS routines, so the two give
the same bits and no trace digest can tell them apart; this test keeps the
operator out instead.

The Stiefel retraction calls numpy's private ``_umath_linalg`` gufuncs
without the ``np.linalg`` wrappers; ``manifolds`` is the one module that may
name them, and its tests pin their bits to the public calls.

The Bregman row's powers of the time coordinate are evaluated once, in
``bregman.step_coefficients``; the Hamiltonian values and partials read
that result, so ``**`` may appear nowhere else in ``bregman``.
"""

import ast
from pathlib import Path

import pytest

import bregopt

SOURCES = sorted(Path(bregopt.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"manifolds.py", "problems.py",
                                               "optimizers.py", "bregman.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_matmul_operator(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.MatMult))
    assert not lines, f"{path.name} uses @ on lines {lines}; use ndarray.dot"


def test_private_linalg_only_in_manifolds():
    naming = {path.name for path in SOURCES
              if "_umath_linalg" in path.read_text(encoding="utf-8")}
    assert naming == {"manifolds.py"}


def test_powers_only_in_step_coefficients():
    path = Path(bregopt.__file__).parent / "bregman.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    inside = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name == "step_coefficients"
              for node in ast.walk(function)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.Pow) and id(node) not in inside)
    assert inside, "bregman.py defines no step_coefficients"
    assert not lines, f"bregman.py uses ** outside step_coefficients on lines {lines}"
