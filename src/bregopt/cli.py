"""Reproducible benchmark runner.

Subcommands:

* ``run``         -- execute each configured method, one CSV trace per method.
* ``compare``     -- run all methods on the identical instance and initial
                     point, emit a combined CSV and an SVG convergence plot.
* ``order-check`` -- fit the empirical convergence rate of a named test
                     system and verify it against an expected interval.

Configurations are JSON files; every output is a deterministic function of
the configuration (seeded generators, fixed iteration order, fixed float
formatting), so reruns diff cleanly.  A key that is not listed below is a
configuration error.  Defaults are in parentheses.

A ``run`` or ``compare`` config holds:

* ``problem`` -- the problem block: ``name`` (required; ``rayleigh``,
  ``brockett`` or ``procrustes``), ``seed`` (0), ``dims`` (``[100]``,
  ``[20, 5]``, ``[20, 5, 30]``) and ``conditioning`` (10; finite and at
  least 1, the eigenvalues of a random ``rayleigh``/``brockett`` matrix
  spread over ``[1, conditioning]``).  The seed draws the random instance
  and also the initial point that every method block starts from.
  ``file`` reads the matrix ``A`` from a text file instead of drawing it;
  ``procrustes`` then reads ``B`` from ``file_b``, and ``brockett`` takes
  the weights ``1, ..., m`` with ``m`` (5).  A matrix file holds one row
  per line, entries separated by whitespace; a file of one number per line
  is a column, and a file with no numbers or a non-finite entry is an
  error.  A key that the chosen input does not read is an error: ``dims``
  and ``conditioning`` shape only a random instance (``conditioning`` only
  a ``rayleigh``/``brockett`` one), ``m`` only a ``brockett`` and
  ``file_b`` only a ``procrustes`` read from ``file``.
* ``methods`` -- a non-empty list of method blocks: ``method`` (required;
  one of ``METHODS``), ``label`` (``<method>_<index>``; the stem of the
  block's output file: letters, digits, ``_``, ``.`` and ``-``, distinct
  across blocks), the Bregman parameters ``p`` (6), ``p_ring``
  (``2 p / 3``), ``c_const`` (1), ``lambda_conv`` (1), ``h`` (1e-3) and
  ``coeff_cap`` (1e6; the bound on the EL gradient coefficient, which only
  ``el_v1`` and ``el_v2`` read, though every block accepts it; the only one
  that may be ``Infinity``, which lifts the cap), and the stopping rule
  ``max_iters`` (1000), ``stop_grad_tol`` (1e-12) and ``stop_f_tol``
  (1e-12).  A ``stop_f_tol`` below the float spacing of the oracle value
  (``math.ulp``), such as 1e-300, switches the gap stop off, since no
  gap that small can be resolved; the gap column is written either way.
  The multiplier solve's tolerance and budget are not keys but the
  constants ``NEWTON_TOL`` and ``NEWTON_MAX_ITER`` of
  ``bregopt.manifolds``.
* ``output_dir`` (``.``) and, read by ``compare`` only, ``plot`` (true; a
  JSON boolean).

``run`` and ``compare`` print one line per method block as its run ends:
``<label>: <N> iterations, <R> restarts, final f = <f>``, or
``<label>: FAILED (<reason>), <R> restarts`` for a failed run, where ``R``
counts the HTVI gradient restarts (0 for the other methods).

The counts ``seed``, ``dims``, ``m`` and ``max_iters`` must be JSON
integers: ``2.7`` or ``true`` is an error, not a truncation; ``seed`` must
also be non-negative.  Every other numeric value (the Bregman parameters,
the stopping tolerances, ``conditioning``, ``h_list``, ``duration`` and
``expected_rate``) must be a JSON number: ``true`` or ``"0.01"`` is an
error, not a conversion.

An ``order-check`` config holds ``system`` (required; ``quadratic`` or
``spherical_pendulum``), ``h_list`` (required; at least three positive,
finite, strictly decreasing step sizes whose step counts over the duration,
``max(1, round(duration / h))``, strictly increase, and that leave at most
``10**7`` steps to the reference run at ``min(h_list) / 100``),
``duration`` (1), ``expected_rate`` (required; ``[lo, hi]`` with
``lo <= hi``) and ``output_dir`` (``.``).
A step size whose error is at the noise floor is dropped from the fit and
reported as one ``order-check: <message>`` line on stderr; with fewer than
two points left the rate is ``nan`` and the check fails.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 order-check acceptance failure.  Each command checks its outputs before
it runs anything: an output path that is a directory, or an ``output_dir``
under a regular file, is a configuration error that prints no stdout line
and writes nothing.  ``run`` and ``compare`` check the method blocks, their
labels and number, and then the outputs before the problem block, so a
config that cannot run draws or reads no instance; its first fault in that
order is the one reported.  The output directory is created when the first
output is written; an output that still cannot be written is a
configuration error too.  A numerical failure is a ``run`` or ``compare`` method whose
trace failed, or an ``order-check`` trajectory, the reference or one at a
listed step size, that does not stay finite or whose step fails; the
latter prints one ``numerical failure: ...`` line naming the step size and
writes no CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dynamics, optimizers, problems
from .bregman import BregmanParams
from .dynamics import MidpointLagrangian
from .errors import BregoptError, ConfigError
from .manifolds import Sphere
from .optimizers import RunConfig, Trace

CSV_COLUMNS = ("k", "t", "f", "grad_norm", "constraint_violation",
               "error_vs_oracle", "newton_iters")

DEFAULT_DIMS = {"rayleigh": (100,), "brockett": (20, 5), "procrustes": (20, 5, 30)}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_ACCEPTANCE = 3


def _is_count(value) -> bool:
    """A JSON integer; ``int()`` would truncate a float or a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> float:
    """A JSON integer or float as a float; ``float()`` would also take a
    boolean or a numeric string."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"must be within the float range, not an integer of "
                         f"{value.bit_length()} bits") from None


RUN_KEYS = ("problem", "methods", "output_dir", "plot")
PROBLEM_KEYS = ("name", "seed", "dims", "conditioning", "file", "file_b", "m")
# The problem keys beyond name and seed that each input reads, keyed by the
# problem name and whether the block reads a ``file``.
INPUT_KEYS = {
    ("rayleigh", False): ("dims", "conditioning"),
    ("brockett", False): ("dims", "conditioning"),
    ("procrustes", False): ("dims",),
    ("rayleigh", True): ("file",),
    ("brockett", True): ("file", "m"),
    ("procrustes", True): ("file", "file_b"),
}
# Method-block keys with their converters; the dataclasses own every
# default but p's.
PARAM_KEYS = {"p": _number, "p_ring": _number, "c_const": _number,
              "lambda_conv": _number, "h": _number, "coeff_cap": _number}
# RunConfig checks the count max_iters itself.
STOP_KEYS = {"max_iters": lambda n: n, "stop_grad_tol": _number, "stop_f_tol": _number}
METHOD_KEYS = ("method", "label", *PARAM_KEYS, *STOP_KEYS)
# A label is a file stem in output_dir and a field of compare.csv/.svg.
LABEL_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")
ORDER_CHECK_KEYS = ("system", "h_list", "duration", "expected_rate", "output_dir")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    # ValueError: also bad UTF-8 and an integer past Python's digit limit;
    # RecursionError: arrays or objects nested too deep to decode
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _check_keys(block: dict, allowed: tuple, where: str) -> None:
    unknown = [key for key in block if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; "
                          f"the keys are {', '.join(allowed)}")


def _problem_seed(block: dict) -> int:
    """Seed of a problem block: it draws the instance and the initial point."""
    seed = block.get("seed", 0)
    if not _is_count(seed) or seed < 0:
        raise ConfigError(f"bad problem block: seed must be a non-negative integer, "
                          f"not {seed!r}")
    return seed


def _check_applicable(block: dict, name: str) -> None:
    """Reject a problem key that the block's input would not read."""
    from_file = "file" in block
    applicable = ("name", "seed", *INPUT_KEYS[name, from_file])
    for key in block:
        if key not in applicable:
            raise ConfigError(f"problem key {key!r} does not apply to {name} "
                              f"{'with' if from_file else 'without'} 'file'")


def build_problem(block: dict) -> problems.ProblemSpec:
    if not isinstance(block, dict) or "name" not in block:
        raise ConfigError("problem block must be an object with a 'name'")
    _check_keys(block, PROBLEM_KEYS, "problem block")
    name = block["name"]
    if not isinstance(name, str) or name not in DEFAULT_DIMS:
        raise ConfigError(f"unknown problem {name!r}")
    seed = _problem_seed(block)
    if "file" in block:
        try:
            a = problems.load_matrix(block["file"])
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad problem matrix input: {exc}") from exc
        _check_applicable(block, name)
        if name == "procrustes" and "file_b" not in block:
            raise ConfigError("bad problem block: procrustes with 'file' needs the "
                              "key 'file_b', the file of B")
        try:
            if name == "rayleigh":
                return problems.rayleigh(a)
            if name == "brockett":
                m = block.get("m", DEFAULT_DIMS["brockett"][1])
                if not _is_count(m):
                    raise TypeError(f"m must be an integer, not {m!r}")
                # before np.arange allocates m weights
                if not 1 <= m <= len(a):
                    raise ValueError(f"m must be from 1 to {len(a)}, the rows of A, not {m}")
                return problems.brockett(a, np.arange(1.0, m + 1.0))
            b = problems.load_matrix(block["file_b"])
            return problems.procrustes(a, b)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad problem matrix input: {exc}") from exc
    _check_applicable(block, name)
    conditioning = _given(block, {"conditioning": _number}).get("conditioning", 10.0)
    try:
        dims = block.get("dims", list(DEFAULT_DIMS[name]))
        if not isinstance(dims, list) or not all(map(_is_count, dims)):
            raise TypeError(f"dims must be a list of integers, not {dims!r}")
        return problems.make_instance(name, tuple(dims), seed=seed,
                                      conditioning=conditioning)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem block: {exc}") from exc


def _given(block: dict, keys: dict) -> dict:
    """The keys of ``block`` among ``keys``, converted."""
    given = {}
    for key, convert in keys.items():
        if key in block:
            try:
                given[key] = convert(block[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    return given


def build_run_config(block: dict) -> RunConfig:
    if not isinstance(block, dict) or "method" not in block:
        raise ConfigError("method block must be an object with a 'method'")
    _check_keys(block, METHOD_KEYS, "method block")
    try:
        params = BregmanParams(**{"p": 6.0, **_given(block, PARAM_KEYS)})
        return RunConfig(method=block["method"], params=params, **_given(block, STOP_KEYS))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad method block: {exc}") from exc


def _method_labels(blocks: list) -> list[str]:
    """Each block's ``label``, or ``<method>_<index>``; all distinct."""
    labels = []
    for index, block in enumerate(blocks):
        label = block.get("label", f"{block['method']}_{index}")
        if not isinstance(label, str) or not LABEL_PATTERN.fullmatch(label):
            raise ConfigError(f"method label {label!r} must match "
                              f"{LABEL_PATTERN.pattern}")
        if label in labels:
            raise ConfigError(f"method label {label!r} is used twice")
        labels.append(label)
    return labels


# ---------------------------------------------------------------------------
# CSV / SVG output
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


def _trace_lines(trace: Trace, prefix: tuple = ()) -> list[str]:
    """CSV lines of one trace; a failed run gains a trailing all-nan failure row."""
    rows = [prefix + row for row in trace.rows]
    if trace.failed:
        next_k = (trace.rows[-1][0] + 1) if trace.rows else 0
        rows.append(prefix + (next_k, math.nan, math.nan, math.nan, math.nan, None, None))
    return [",".join(_fmt(v) for v in row) for row in rows]


def _csv(header: tuple, lines: list[str]) -> str:
    return ",".join(header) + "\n" + "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    """Write one output file, creating its directory; a path that cannot be
    written is a config error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot write {path}: {exc}") from exc


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_PLOT_FLOOR = 1e-16


def convergence_svg(series, ylabel: str) -> str:
    """Hand-emitted SVG: iteration on x, log10 of the quantity on y.

    ``series`` is a list of ``(label, ks, values)`` triples; values are
    clamped below at a tiny positive floor so the log axis is total.
    """
    width, height = 720.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 30.0, 50.0

    xs_max = max((max(ks) if ks else 1) for _, ks, _ in series) or 1
    logs = []
    for _, _, values in series:
        logs.extend(math.log10(max(v, _PLOT_FLOOR)) for v in values if math.isfinite(v))
    lo = math.floor(min(logs)) if logs else -1.0
    hi = math.ceil(max(logs)) if logs else 1.0
    if hi <= lo:
        hi = lo + 1.0

    def x_px(k):
        return left + (width - left - right) * (k / xs_max)

    def y_px(val):
        ly = math.log10(max(val, _PLOT_FLOOR))
        ly = min(max(ly, lo), hi)
        return top + (height - top - bottom) * (hi - ly) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{height - bottom:.2f}" x2="{width - right:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black" stroke-width="1"/>',
    ]
    decade_step = max(1, int(math.ceil((hi - lo) / 8.0)))
    decade = lo
    while decade <= hi:
        ypix = y_px(10.0 ** decade)
        parts.append(
            f'<line x1="{left - 4:.2f}" y1="{ypix:.2f}" x2="{left:.2f}" '
            f'y2="{ypix:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{ypix + 4:.2f}" font-size="11" '
            f'text-anchor="end">1e{int(decade)}</text>'
        )
        decade += decade_step
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = frac * xs_max
        xpix = x_px(k)
        parts.append(
            f'<line x1="{xpix:.2f}" y1="{height - bottom:.2f}" x2="{xpix:.2f}" '
            f'y2="{height - bottom + 4:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xpix:.2f}" y="{height - bottom + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{int(round(k))}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 8:.2f}" '
        f'font-size="12" text-anchor="middle">iteration</text>'
    )
    parts.append(
        f'<text x="16" y="{(top + height - bottom) / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(top + height - bottom) / 2:.2f})">{ylabel}</text>'
    )
    for idx, (label, ks, values) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{x_px(k):.2f},{y_px(v):.2f}"
            for k, v in zip(ks, values)
            if math.isfinite(v)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = top + 16.0 * (idx + 1)
        lx = width - right - 150.0
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" '
            f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _exists(path: Path) -> bool:
    """Whether ``path`` exists.  Unlike ``Path.exists``, which answers False,
    it raises on a path that cannot be examined, such as one holding a NUL
    character or running through a symlink loop."""
    try:
        path.stat()
    except (FileNotFoundError, NotADirectoryError):
        return False
    return True


def _outputs(config: dict, out_override: str | None, names: list[str]) -> list[Path]:
    """The paths of the named output files in the output directory.

    It creates nothing (``_write`` does), so a command calls it before it
    runs anything: an output directory under a regular file and an output
    path that is a directory are config errors before the runs, not after.
    """
    out = out_override or config.get("output_dir", ".")
    if not isinstance(out, str):
        raise ConfigError(f"'output_dir' must be a path, not {out!r}")
    paths = [Path(out, name) for name in names]
    try:
        existing = next(path for path in (Path(out), *Path(out).parents) if _exists(path))
        taken = [path for path in paths if _exists(path) and path.is_dir()]
    except (OSError, ValueError) as exc:  # a path that cannot be examined
        raise ConfigError(f"cannot use output directory {out}: {exc}") from exc
    if not existing.is_dir():
        raise ConfigError(f"cannot use output directory {out}: {existing} is not a directory")
    if taken:
        raise ConfigError(f"cannot write {taken[0]}: it is a directory")
    return paths


def _method_blocks(config: dict):
    """The run configs and labels of a ``run`` or ``compare`` config."""
    _check_keys(config, RUN_KEYS, "config")
    blocks = config.get("methods", [])
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("config needs a non-empty 'methods' list")
    return [build_run_config(block) for block in blocks], _method_labels(blocks)


def _instance(config: dict):
    """The problem and initial point of a ``run`` or ``compare`` config.  A
    command builds them after it has checked everything else, as drawing
    the instance is the one costly step before the runs."""
    problem_block = config.get("problem", {})
    problem = build_problem(problem_block)
    seed = _problem_seed(problem_block)
    return problem, problem.manifold.random_point(np.random.default_rng(seed))


def _run_blocks(problem, run_configs, labels, initial, keep) -> int:
    """Run each method block from ``initial``, hand its label and trace to
    ``keep`` and print its outcome; the exit code of the runs."""
    failed = False
    for run_config, label in zip(run_configs, labels):
        trace = optimizers.run(run_config, problem, initial)
        keep(label, trace)
        restarts = f"{len(trace.restarts)} restarts"
        print(f"{label}: FAILED ({trace.failure_reason}), {restarts}" if trace.failed else
              f"{label}: {len(trace) - 1} iterations, {restarts}, final f = {trace.fs[-1]:.6e}")
        failed = failed or trace.failed
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_run(config_path: str, out_override: str | None = None) -> int:
    """Run every method block; write one CSV per block as its run ends."""
    config = _load_json(config_path)
    run_configs, labels = _method_blocks(config)
    names = [f"{label}.csv" for label in labels]
    paths = dict(zip(labels, _outputs(config, out_override, names)))
    problem, initial = _instance(config)

    def keep(label, trace):
        _write(paths[label], _csv(CSV_COLUMNS, _trace_lines(trace)))

    return _run_blocks(problem, run_configs, labels, initial, keep)


def cmd_compare(config_path: str, out_override: str | None = None) -> int:
    """Run all method blocks on the identical instance and initial point."""
    config = _load_json(config_path)
    plot = config.get("plot", True)
    if not isinstance(plot, bool):
        raise ConfigError(f"'plot' must be true or false, not {plot!r}")
    run_configs, labels = _method_blocks(config)
    if len(run_configs) < 2:
        raise ConfigError("compare needs at least two method blocks")
    paths = _outputs(config, out_override, ["compare.csv", "compare.svg"][:1 + plot])
    problem, initial = _instance(config)
    runs = []
    code = _run_blocks(problem, run_configs, labels, initial, lambda *run: runs.append(run))
    lines = [line for label, trace in runs for line in _trace_lines(trace, (label,))]
    _write(paths[0], _csv(("method",) + CSV_COLUMNS, lines))
    if plot:  # the oracle gap, or f without an oracle
        gap = problem.oracle_value is not None
        series = [(label, trace.ks, trace.errors_vs_oracle if gap else trace.fs)
                  for label, trace in runs]
        _write(paths[1], convergence_svg(series, "f - oracle" if gap else "f"))
    return code


PENDULUM_GRAVITY = 9.81


def spherical_pendulum_lagrangian():
    """Midpoint discrete Lagrangian of a unit-mass pendulum on the sphere."""
    return MidpointLagrangian(field=np.array([0.0, 0.0, PENDULUM_GRAVITY]))


def _order_check_system(name: str):
    """One-step map and initial state of the named convergence-rate test system.

    ``quadratic``: momentum-first symplectic Euler on the unconstrained
    quadratic Hamiltonian ``|p|^2 / 2 + q.(K q) / 2``, the explicit update
    ``p1 = p0 - h K q0``, ``q1 = q0 + h p1`` (first order).
    ``spherical_pendulum``: midpoint constrained Euler--Lagrange map on the
    sphere under gravity, one SHAKE step per step (second order).  States
    are packed as ``concat(q, p)``.
    """
    if name == "quadratic":
        stiffness = np.array([1.0, 4.0, 9.0])

        def step(state, h):
            q, p = state[:3], state[3:]
            p_next = p - h * stiffness * q
            return np.concatenate([q + h * p_next, p_next])

        return step, np.array([1.0, -0.5, 0.25, 0.0, 0.3, -0.2])

    if name == "spherical_pendulum":
        manifold = Sphere(3)
        lagrangian = spherical_pendulum_lagrangian()

        # The raw two-point momentum carries an O(h) constraint-normal
        # component; projecting it onto the cotangent space leaves the
        # position recursion unchanged and restores second-order momenta.
        def step(state, h):
            q, p = state[:3], state[3:]
            result = dynamics.constrained_lagrangian_map(lagrangian, manifold, q, p, h)
            p_next = manifold.tangent_project(result.q_next, result.p_next)
            return np.concatenate([result.q_next, p_next])

        q0 = np.array([0.6, 0.0, 0.8])
        p0 = np.array([0.0, 1.2, 0.0])
        return step, np.concatenate([q0, p0])

    raise ConfigError(f"unknown order-check system {name!r}")


def cmd_order_check(config_path: str, out_override: str | None = None) -> int:
    """Fit an empirical convergence rate and gate it against an interval."""
    config = _load_json(config_path)
    _check_keys(config, ORDER_CHECK_KEYS, "order-check config")
    name = config.get("system")
    if name is None:
        raise ConfigError("order-check config needs a 'system'")
    h_list = config.get("h_list")
    if not isinstance(h_list, list) or len(h_list) < 3:
        raise ConfigError("order-check config needs an 'h_list' of >= 3 step sizes")
    interval = config.get("expected_rate")
    if (not isinstance(interval, list)) or len(interval) != 2:
        raise ConfigError("order-check config needs 'expected_rate': [lo, hi]")
    step, initial = _order_check_system(name)
    [csv_path] = _outputs(config, out_override, ["order_check.csv"])
    try:
        duration = _number(config.get("duration", 1.0))
        lo, hi = map(_number, interval)
        if not lo <= hi:  # NaN fails it too
            raise ValueError(f"expected_rate must be [lo, hi] with lo <= hi, not {interval}")
        # each point dropped at the noise floor is one line of the report,
        # not a Python warning with its source line
        with warnings.catch_warnings(record=True) as dropped:
            warnings.simplefilter("always")
            result = dynamics.order_check(step, initial, list(map(_number, h_list)), duration)
        for warning in dropped:
            print(f"order-check: {warning.message}", file=sys.stderr)
    except BregoptError:
        raise  # a numerical failure of the step, although it may be a ValueError
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad order-check config: {exc}") from exc

    lines = [f"{_fmt(h)},{_fmt(e)}" for h, e in zip(result.step_sizes, result.errors)]
    _write(csv_path, _csv(("h", "error"), lines + [f"fitted_rate,{_fmt(result.rate)}"]))

    ok = lo <= result.rate <= hi  # a NaN rate (no fit) fails it
    status = "pass" if ok else "fail"
    print(f"{name}: fitted rate {result.rate:.4f}, expected [{lo}, {hi}] -> {status}")
    return EXIT_OK if ok else EXIT_ACCEPTANCE


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bregopt",
        description="Benchmark runner for constrained variational optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "order-check"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare, "order-check": cmd_order_check}
    try:
        return handlers[args.command](args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BregoptError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
