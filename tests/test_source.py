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

The per-iteration path sums arrays with the ufunc's own ``reduce``
(``np.add.reduce(x, axis=None)``) and tests for a nonzero entry with
``np.count_nonzero``.  ``np.sum``, ``ndarray.any`` and their kin reach the
same reductions through a Python wrapper that costs more than the reduction
at these sizes (5.9 against 4.2 microseconds for the Procrustes
``value_and_grad``, 1.0 against 0.3 for ``any`` of a length-100 vector), so
they stay out of ``manifolds``, ``optimizers``, ``bregman`` and the
``value_and_grad`` closures of ``problems``.  A max or min of absolute
values is read as ``b.item(b.argmax())`` (or ``argmin``) of ``b =
np.abs(a)``, which is the float ``np.maximum.reduce`` (``np.minimum.reduce``)
gives, NaN included, bit for bit (``tests/test_manifolds.py`` pins that),
without the ufunc reduction's set-up: the 5 x 5 violation of a 20 x 5
Stiefel point takes 1.9 against 2.6 microseconds per call that way (best of
5 x 20000 calls, one BLAS thread).  So ``np.maximum.reduce`` and
``np.minimum.reduce`` stay off the path too.  A Python ``max`` or ``min``
over the m entries of an m x m diagonal, read as a list
(``diagonal().tolist()``), is no such wrapper and is allowed: at these sizes
it is cheaper than a ufunc reduction (0.4 against 1.3 microseconds for five
entries), and the Stiefel retraction reads its guards that way.

Each stepper's finiteness test reads scalars its step has already formed:
the violation the kernel reported in place of ``x.x`` and, for HTVI, ``r_t``
in place of ``r.r``.  So the ``advance`` closures of ``optimizers`` take two
inner products, neither of which a step forms: the EL velocity's ``v.v``,
and the HTVI gradient restart's test ``r.rgrad``.

The layout and size of the constraint multiplier are the manifold's alone:
the steppers hand ``solve_multiplier`` back the ``lam`` it returned, or
``None``, so no module but ``manifolds`` subscripts or reshapes a ``lam`` or
``lam0``, and none names a multiplier size ``constraint_dim``.

The Rayleigh and Brockett oracles are optimal values, which the eigenvalues
alone give.  A drawn instance reads them from the spectrum it was drawn
from, with no factorization (``tests/test_problems.py`` pins that); for a
matrix the caller gives, ``problems`` calls ``np.linalg.eigvalsh``, never
``eigh``, whose eigenvectors took 45% of a default Rayleigh instance's
set-up (1.06 of 2.36 ms at n = 100 under cProfile, one BLAS thread) and
which nothing read.
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


# Reductions reached through a Python wrapper: np.sum, np.any, np.all, np.max,
# np.min, np.amax and np.amin, and the ndarray methods of the same names.
WRAPPED_REDUCTIONS = {"sum", "any", "all", "max", "min", "amax", "amin"}


def step_path_trees():
    """``(label, tree)`` of the per-iteration sources: ``manifolds``,
    ``optimizers`` and ``bregman`` whole, and each ``value_and_grad``
    nested in a function of ``problems``."""
    package = Path(bregopt.__file__).parent
    for name in ("manifolds.py", "optimizers.py", "bregman.py"):
        path = package / name
        yield name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    path = package / "problems.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for outer in tree.body:
        if isinstance(outer, ast.FunctionDef):
            for node in ast.walk(outer):
                if (isinstance(node, ast.FunctionDef) and node is not outer
                        and node.name == "value_and_grad"):
                    yield f"problems.py:{outer.name}", node


def test_no_wrapped_reductions_on_the_step_path():
    trees = list(step_path_trees())
    # the three objectives' closures, so the walk is not vacuous
    assert [label for label, _ in trees][3:] == ["problems.py:rayleigh",
                                                 "problems.py:brockett",
                                                 "problems.py:procrustes"]
    calls = [f"{label} line {node.lineno}: .{node.func.attr}()"
             for label, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in WRAPPED_REDUCTIONS]
    assert not calls, ("use the ufunc's reduce or np.count_nonzero instead of "
                       + "; ".join(calls))


def test_no_extremum_reductions_on_the_step_path():
    reductions = [(label, node) for label, tree in step_path_trees() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "reduce"
                  and isinstance(node.value, ast.Attribute)]
    # the Procrustes sum of squares, so the walk is not vacuous
    assert any(node.value.attr == "add" for _, node in reductions)
    uses = [f"{label} line {node.lineno}: {ast.unparse(node)}" for label, node in reductions
            if node.value.attr in ("maximum", "minimum")]
    assert not uses, ("read a max or min of |a| as b.item(b.argmax()) or argmin instead of "
                      + "; ".join(uses))


def test_advance_closures_dot_only_the_velocity():
    path = Path(bregopt.__file__).parent / "optimizers.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    closures = {outer.name: node for outer in tree.body
                if isinstance(outer, ast.FunctionDef)
                for node in ast.walk(outer)
                if isinstance(node, ast.FunctionDef) and node.name == "advance"}
    assert sorted(closures) == ["_el_stepper", "_htvi_stepper", "_rgd_stepper"]
    dots = {name: [ast.unparse(node) for node in ast.walk(closure)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "dot"]
            for name, closure in closures.items()}
    assert dots == {"_el_stepper": ["v.dot(v)"], "_htvi_stepper": ["state.r.dot(rgrad)"],
                    "_rgd_stepper": []}, \
        f"read the step's violation or r_t instead of forming {dots}"


def test_no_module_names_a_multiplier_size():
    naming = [path.name for path in SOURCES
              if "constraint_dim" in path.read_text(encoding="utf-8")]
    assert not naming, f"{naming} name constraint_dim; the multiplier's size is the manifold's"


MULTIPLIER_NAMES = {"lam", "lam0"}


def is_multiplier(node):
    """Whether ``node`` is a name or attribute called ``lam`` or ``lam0``."""
    return ((isinstance(node, ast.Name) and node.id in MULTIPLIER_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr in MULTIPLIER_NAMES))


def multiplier_layout_uses(tree):
    """Lines that subscript or reshape a multiplier: ``lam[...]``,
    ``lam.reshape(...)`` and ``np.reshape(lam, ...)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_multiplier(node.value):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "reshape"
              and (is_multiplier(node.func.value)
                   or (node.args and is_multiplier(node.args[0])))):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_manifolds_reads_the_multiplier_layout():
    uses = {path.name: multiplier_layout_uses(ast.parse(path.read_text(encoding="utf-8"),
                                                        filename=str(path)))
            for path in SOURCES}
    # the Stiefel solve reads its guess, so the walk is not vacuous
    assert uses.pop("manifolds.py")
    outside = {name: lines for name, lines in uses.items() if lines}
    assert not outside, f"the multiplier's layout is read outside manifolds: {outside}"


def test_problems_form_no_eigenvectors():
    path = Path(bregopt.__file__).parent / "problems.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = {node.func.attr: node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("eigh", "eigvalsh")}
    # the oracles' eigenvalue call, so the walk is not vacuous
    assert "eigvalsh" in calls
    assert "eigh" not in calls, (f"problems.py calls eigh on line {calls['eigh']}; "
                                 "the oracles need only eigvalsh")
