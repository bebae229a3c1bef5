"""Seeded config fuzzing of the CLI.

Each case draws one ``run``, ``compare`` or ``order-check`` config from its
own seed: small random or file-based problems (every dimension at most 6),
method blocks with extreme but finite Bregman parameters and at most 60
iterations, and order checks with step sizes of at least 0.03 over at most
2 time units.  A few values are malformed on purpose.  Every config must
end in one of the CLI's exit codes, with no numpy warning (the suite turns
warnings into errors) and no line on stderr but the CLI's own.  A few
cases are rejected on purpose: a file-based ``brockett`` ``m`` out of
range, a directory where an output file goes, an ``output_dir`` under a
regular file, or one that cannot be examined (a NUL character in it, or a
symlink loop on its way).  Those must exit 1 with only ``config error:``
lines and print nothing, since the outputs are checked before anything
runs.

Run as a script to fuzz a longer seed range and print the counts of exit
codes, stderr lines and cases to reject::

    PYTHONPATH=src python tests/test_fuzz.py 1000 2000
"""

import collections
import contextlib
import io
import json
import math
import random
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from bregopt.cli import main
from bregopt.optimizers import METHODS

CASES = 200
STDERR_PREFIXES = ("config error: ", "numerical failure: ", "order-check: ")


def positive(rng, lo=-300.0, hi=300.0):
    """A positive float: typical, at an end of the float range, or a decade
    drawn between ``10**lo`` and ``10**hi``."""
    return rng.choice([
        lambda: rng.uniform(0.5, 10.0),
        lambda: rng.choice([5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                            1.7976931348623157e308]),
        lambda: 10.0 ** rng.uniform(lo, hi),
    ])()


def maybe_malformed(rng, value):
    """``value``, or once in fifty draws a value the CLI must reject.

    No huge integer: ``max_iters`` = ``10**400`` is a legal budget.
    """
    if rng.random() < 0.02:
        return rng.choice([0, -1.0, "1", True, None, [1.0]])
    return value


def matrix_lines(rng, rows, cols, symmetric):
    scale = 10.0 ** rng.uniform(-300.0, 300.0) if rng.random() < 0.3 else 1.0
    entries = [[scale * rng.gauss(0.0, 1.0) for _ in range(cols)] for _ in range(rows)]
    if symmetric:
        entries = [[entries[max(i, j)][min(i, j)] for j in range(cols)] for i in range(rows)]
    return "\n".join(" ".join(repr(x) for x in row) for row in entries) + "\n"


def problem_block(rng, directory):
    """A problem block, and whether the CLI must reject it."""
    name = rng.choice(["rayleigh", "brockett", "procrustes"])
    n = rng.randint(2, 5)
    m = rng.randint(1, n)
    rows = rng.randint(max(n, m + 1), 6)  # procrustes' l
    block = {"name": name, "seed": rng.randint(0, 50)}
    if rng.random() < 0.3:
        path = directory / "a.txt"
        square = name != "procrustes"
        path.write_text(matrix_lines(rng, n if square else rows, n, square))
        block["file"] = str(path)
        if name == "brockett":
            # now and then an m out of range, which the CLI must reject
            out_of_range = rng.random() < 0.3
            block["m"] = rng.choice([n + 1, 10 ** 400, 0]) if out_of_range else m
            return block, out_of_range
        if name == "procrustes":
            path_b = directory / "b.txt"
            path_b.write_text(matrix_lines(rng, rows, m, False))
            block["file_b"] = str(path_b)
        return block, False
    dims = {"rayleigh": [n], "brockett": [n, m], "procrustes": [n, m, rows]}[name]
    if rng.random() < 0.05:  # now and then a dimension out of its bounds
        dims[rng.randrange(len(dims))] = rng.choice([0, 1, 6])
    block["dims"] = dims
    if name != "procrustes" and rng.random() < 0.7:
        block["conditioning"] = maybe_malformed(rng, 1.0 + positive(rng, -3.0, 308.0))
    return block, False


def method_block(rng):
    block = {"method": rng.choice(METHODS), "max_iters": rng.randint(0, 60)}
    for key in ("p", "p_ring", "c_const", "h", "coeff_cap", "stop_grad_tol", "stop_f_tol"):
        if rng.random() < 0.5:
            block[key] = maybe_malformed(rng, positive(rng))
    if rng.random() < 0.5:
        block["lambda_conv"] = maybe_malformed(rng, 1.0 + positive(rng))
    if rng.random() < 0.1:
        block["coeff_cap"] = math.inf
    return block


def order_check_block(rng):
    steps = sorted((10.0 ** rng.uniform(math.log10(0.03), 0.0) for _ in range(rng.randint(3, 4))),
                   reverse=True)
    lo = rng.uniform(-1.0, 3.0)
    return {"system": rng.choice(["quadratic", "spherical_pendulum"]),
            "h_list": steps,
            # two of the longest steps or more, so that few step counts tie
            "duration": 10.0 ** rng.uniform(math.log10(2.0 * steps[0]), math.log10(2.0)),
            "expected_rate": [lo, lo + rng.uniform(0.0, 1.0)]}


def output_names(command, config):
    """The files that the command writes into its output directory."""
    if command == "order-check":
        return ["order_check.csv"]
    if command == "compare":
        return ["compare.csv", "compare.svg"][:1 + config["plot"]]
    return [f"{block['method']}_{index}.csv" for index, block in enumerate(config["methods"])]


def draw_config(seed, directory):
    """The command and the config of one fuzz case, and whether the CLI must
    reject it."""
    rng = random.Random(seed)
    command = rng.choice(["run", "compare", "order-check"])
    rejected = False
    if command == "order-check":
        config = order_check_block(rng)
    else:
        blocks = rng.randint(1, 3) if command == "run" else rng.randint(2, 3)
        problem, rejected = problem_block(rng, directory)
        config = {"problem": problem,
                  "methods": [method_block(rng) for _ in range(blocks)],
                  "plot": rng.random() < 0.5}
    config["output_dir"] = str(directory / "out")
    if rng.random() < 0.03:  # an output collision
        rejected = True
        if rng.random() < 0.5:
            (directory / "taken").write_text("a file")
            config["output_dir"] = str(directory / "taken" / "out")
        else:
            (directory / "out" / rng.choice(output_names(command, config))).mkdir(parents=True)
    elif rng.random() < 0.03:  # an output directory that cannot be examined
        rejected = True
        if rng.random() < 0.5:
            config["output_dir"] = str(directory / "a\u0000b")
        else:
            (directory / "loop").symlink_to("loop")
            config["output_dir"] = str(directory / "loop" / "out")
    return command, config, rejected


def run_case(seed, directory):
    """Run one case through the CLI; whether it must be rejected, its exit
    code and its stdout and stderr lines."""
    command, config, rejected = draw_config(seed, directory)
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    return config, rejected, code, out.getvalue().splitlines(), err.getvalue().splitlines()


def is_rejection(code, out, err):
    """Exit 1 with only config error lines on stderr and nothing on stdout."""
    return (code == 1 and not out and err
            and all(line.startswith("config error: ") for line in err))


@pytest.mark.parametrize("seed", range(CASES))
def test_config_ends_in_an_exit_code(seed, tmp_path):
    config, rejected, code, out, err = run_case(seed, tmp_path)
    assert code in (0, 1, 2, 3), config
    assert all(line.startswith(STDERR_PREFIXES) for line in err), (config, err)
    assert is_rejection(code, out, err) or not rejected, (config, out, err)


if __name__ == "__main__":
    start, count = map(int, sys.argv[1:3])
    warnings.simplefilter("error")
    codes, kinds = collections.Counter(), collections.Counter()
    rejections = 0
    for seed in range(start, start + count):
        with tempfile.TemporaryDirectory() as name:
            config, rejected, code, out, err = run_case(seed, Path(name))
        codes[code] += 1
        kinds.update(line.split(":", 1)[0] for line in err)
        rejections += rejected
        if (code not in (0, 1, 2, 3)
                or not all(line.startswith(STDERR_PREFIXES) for line in err)
                or (rejected and not is_rejection(code, out, err))):
            print(f"seed {seed}: exit {code}, stderr {err}, config {config}")
    print("exit codes:", dict(sorted(codes.items())))
    print("stderr lines:", dict(sorted(kinds.items())))
    print("cases to reject:", rejections)
