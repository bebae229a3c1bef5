"""Every function of the package is called by the program itself.

A child process profiles ``bregopt`` from its import on, through a handful
of small CLI configs: ``run`` and ``compare`` on random and file-based
problems with every method, an HTVI run that fails at its third step, a
config error and both order-check systems.  Each function defined in
``src/bregopt``, nested ones included, must be called, or else be named in
``UNREACHED`` with its reason.  A function that only the tests call does not
belong in the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import bregopt

PACKAGE = Path(bregopt.__file__).resolve().parent

# Functions the program does not call, with the reason each stays.
UNREACHED = {
    "bregman._hamiltonian": "the extended Hamiltonian, kept for a drift trace column",
    "bregman.hamiltonian_direct": "the acceptance tests evaluate it",
    "bregman.hamiltonian_adaptive": "the acceptance tests evaluate it",
    "bregman.hamiltonian_partials": "the acceptance tests evaluate it",
    "dynamics.project_momentum": "the acceptance tests import it",
    "optimizers.Trace.iterations_to_gap": "the acceptance tests import it",
    "manifolds.EmbeddedManifold.constraint_violation": "abstract; every manifold overrides it",
    "manifolds.EmbeddedManifold.solve_multiplier": "abstract; every manifold overrides it",
    "manifolds.EmbeddedManifold.tangent_project": "abstract; every manifold overrides it",
    "manifolds.EmbeddedManifold.retract": "abstract; every manifold overrides it",
    "manifolds.EmbeddedManifold.transport": "abstract; every manifold overrides it",
    "manifolds.EmbeddedManifold.random_point": "abstract; every manifold overrides it",
}

# Profiles the import of the CLI and each command line given as JSON in
# argv[1]; writes the (file, first line) of every called code object to
# argv[2].
CHILD = """
import contextlib, io, json, sys
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from bregopt import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        cli.main(argv)
sys.setprofile(None)
with open(sys.argv[2], "w") as handle:
    json.dump(sorted(called), handle)
"""


def defined_functions():
    """``{(file, first line): dotted name}`` of every function the package
    defines; a decorated function's code starts at its first decorator."""
    functions = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[str(path), first] = name
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return functions


def command_lines(directory):
    """Small configs that between them take every path of the program."""
    symmetric = directory / "a.txt"
    symmetric.write_text("2 1 0 0\n1 3 1 0\n0 1 4 1\n0 0 1 5\n")
    tall = directory / "b.txt"
    tall.write_text("1 0\n0 1\n1 1\n0 2\n1 0\n")
    every_method = [{"method": method, "max_iters": 5}
                    for method in ("htvi_direct", "htvi_adaptive", "el_v1", "el_v2", "rgd")]
    runs = [
        ("run", {"problem": {"name": "rayleigh", "dims": [4]}, "methods": every_method}),
        ("compare", {"problem": {"name": "brockett", "dims": [4, 2]}, "methods": every_method}),
        ("run", {"problem": {"name": "procrustes", "dims": [3, 2, 4]}, "methods": every_method}),
        ("run", {"problem": {"name": "rayleigh", "file": str(symmetric)},
                 "methods": every_method[:1]}),
        ("compare", {"problem": {"name": "brockett", "file": str(symmetric), "m": 2},
                     "methods": every_method[:2]}),
        ("run", {"problem": {"name": "procrustes", "file": str(tall), "file_b": str(tall)},
                 "methods": every_method[:1]}),
        # the multiplier solve finds the constraint unreachable at k = 3
        ("run", {"problem": {"name": "brockett", "dims": [4, 2]},
                 "methods": [{"method": "htvi_direct", "h": 0.05, "max_iters": 5}]}),
        ("run", {"problem": {"name": "rayleigh", "dims": [4]},
                 "methods": [{"method": "rgd", "h": -1.0}]}),
        ("order-check", {"system": "quadratic", "h_list": [0.1, 0.05, 0.025],
                         "duration": 0.5, "expected_rate": [0.8, 1.2]}),
        ("order-check", {"system": "spherical_pendulum", "h_list": [0.1, 0.05, 0.025],
                         "duration": 0.5, "expected_rate": [1.8, 2.2]}),
    ]
    argvs = []
    for index, (command, config) in enumerate(runs):
        config["output_dir"] = str(directory / f"out{index}")
        path = directory / f"config{index}.json"
        path.write_text(json.dumps(config))
        argvs.append([command, "--config", str(path)])
    return argvs


def test_every_function_is_called(tmp_path):
    result = tmp_path / "called.json"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(command_lines(tmp_path)),
                    str(result)], check=True, env=env, timeout=60)
    called = {tuple(entry) for entry in json.loads(result.read_text())}
    functions = defined_functions()
    unreached = {name for key, name in functions.items() if key not in called}
    never_called = sorted(unreached - set(UNREACHED))
    assert not never_called, f"the program never calls {', '.join(never_called)}"
    # each exception names a function that exists and is still not called
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"UNREACHED names {', '.join(stale)}, which the program calls or lacks"
