"""Benchmark of the bregopt solvers, driven through the package's public entry
points from a single process, with closed-loop load: the next operation
starts when the previous one returns.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sphere, stiefel-mix, or ``all`` (every workload, untraced
then traced).  A run sets up its inputs from the seed (several times, for
``setup_s``), makes one warm-up pass, then repeats rounds of every operation
while a round can end within S seconds, and at least two rounds.  Untraced
set-up passes and rounds run under the host-speed meter of ``speed.py``, and
their times are reported at its reference speed.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports per-layer metrics from the
traced ones.  It prints a report, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced run
are written to ``perfbench/out/``.  See perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported: the timed work is
# single-threaded Python around small matrices.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up passes per run: at least this many, and more while they take less
# than SETUP_MIN_S in total, so a cheap set-up still has a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_PASSES = 1000
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "time_to_target_s": "s",
    "us_per_iter": "us",
    "solved_frac": "frac",
    "ok_frac": "frac",
}

PER_LAYER = {
    "problems.make_instance_s": "s",
    "problems.jacobi_eigen_s": "s",
    "problems.objective_us": "us",
    "problems.objective_calls_per_iter": "count",
    "problems.share": "frac",
    "manifolds.constraint_us": "us",
    "manifolds.constraint_calls_per_iter": "count",
    "manifolds.constraint_jacobian_us": "us",
    "manifolds.constraint_jacobian_calls_per_iter": "count",
    "manifolds.tangent_project_us": "us",
    "manifolds.tangent_project_calls_per_iter": "count",
    "manifolds.retract_us": "us",
    "manifolds.retract_calls_per_iter": "count",
    "manifolds.transport_us": "us",
    "manifolds.share": "frac",
    "bregman.step_coefficients_us": "us",
    "bregman.share": "frac",
    "dynamics.newton_solve_us": "us",
    "dynamics.newton_solve_calls_per_iter": "count",
    "dynamics.newton_iters_per_call": "count",
    "dynamics.newton_fail_frac": "frac",
    "dynamics.constrained_lagrangian_map_us": "us",
    "dynamics.share": "frac",
    "optimizers.htvi_step_us": "us",
    "optimizers.el_step_us": "us",
    "optimizers.rgd_step_us": "us",
    "optimizers.run_self_us_per_iter": "us",
    "optimizers.share": "frac",
    "cli.self_s": "s",
    "cli.share": "frac",
    "trace_overhead_frac": "frac",
}


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    report: list = field(default_factory=list)
    summaries: list = field(default_factory=list)

    def json_line(self) -> str:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()}
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": metrics})


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def blas_threads():
    """Thread count OpenBLAS reports, or the pinned variable when numpy is
    linked against a BLAS this cannot query."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def _median(values):
    return statistics.median(values) if values else None


def _execute(op, tracer=None, meter=None):
    """Run one operation; an exception that escapes the package's own
    failure handling is an incorrect output, reported with its traceback.
    With a meter, the operation is timed by the meter's clock."""
    import workloads

    clock = time.perf_counter if meter is None else meter.clock
    start = clock()
    try:
        return op.run(tracer, clock)
    except Exception as exc:  # noqa: BLE001 - the run must go on to report it
        seconds = clock() - start
        traceback.print_exc(file=sys.stderr)
        breach = f"uncaught {type(exc).__name__}: {exc}"
        return workloads.Outcome("failed", breach, 0, float("nan"), breach), seconds


def _setup(workload, budget, meter):
    """Set up repeatedly under the meter; each sample is (seconds per
    input, first and last probe index of the pass)."""
    samples, ops = [], None
    start = time.perf_counter()
    with meter:
        while len(samples) < SETUP_REPEATS or (
            time.perf_counter() - start < SETUP_MIN_S and len(samples) < SETUP_MAX_PASSES
        ):
            first, begin = len(meter.samples), meter.clock()
            ops = workload.setup(budget)
            seconds = (meter.clock() - begin) / workload.n_inputs
            samples.append((seconds, first, len(meter.samples)))
    return ops, samples


def _end_to_end(ops, plain, ref_s, setup_ref_s):
    """``plain[i]`` holds the (outcome, seconds) pairs of op ``i`` and
    ``ref_s[i]`` its median time at the reference speed."""
    statuses = [runs[0][0].status for runs in plain]
    solved = [t for t, status in zip(ref_s, statuses) if status == "solved"]
    costs = [1e6 * t / runs[0][0].iterations for t, runs in zip(ref_s, plain) if runs[0][0].iterations]
    return {
        "setup_s": _median(setup_ref_s),
        "time_to_target_s": _median(solved),
        "us_per_iter": math.exp(statistics.fmean(math.log(c) for c in costs)) if costs else None,
        "solved_frac": statuses.count("solved") / len(ops),
        "ok_frac": 1.0 - statuses.count("failed") / len(ops),
    }


def _family_rates(ops, plain, ref_s):
    """Iterations per second at the reference speed, over one execution of
    each operation of a family."""
    rates = {}
    for family in ("htvi", "baseline"):
        chosen = [(runs[0][0].iterations, t) for op, runs, t in zip(ops, plain, ref_s) if op.family == family]
        seconds = sum(t for _, t in chosen)
        rates[family] = (sum(i for i, _ in chosen) / seconds if seconds else None, seconds)
    return rates


def _per_layer(summary, setup_summary, iterations, n_ops, overhead):
    def stat(name):
        return summary.get(name)

    def self_us(*names):
        calls = sum(stat(n).calls for n in names)
        return 1e6 * sum(stat(n).self_s for n in names) / calls if calls else 0.0

    def per_iter(*names):
        return sum(stat(n).calls for n in names) / iterations if iterations else 0.0

    def inclusive_s(name):
        s = setup_summary.get(name)
        return s.total_s / s.calls if s.calls else 0.0

    newton = stat("dynamics.newton_solve")
    metrics = {
        "problems.make_instance_s": inclusive_s("problems.make_instance"),
        "problems.jacobi_eigen_s": inclusive_s("problems.jacobi_eigen"),
        "problems.objective_us": self_us("problems.f", "problems.ambient_grad"),
        "problems.objective_calls_per_iter": per_iter("problems.f", "problems.ambient_grad"),
        "manifolds.constraint_us": self_us("manifolds.constraint"),
        "manifolds.constraint_calls_per_iter": per_iter("manifolds.constraint"),
        "manifolds.constraint_jacobian_us": self_us("manifolds.constraint_jacobian"),
        "manifolds.constraint_jacobian_calls_per_iter": per_iter("manifolds.constraint_jacobian"),
        "manifolds.tangent_project_us": self_us("manifolds.tangent_project"),
        "manifolds.tangent_project_calls_per_iter": per_iter("manifolds.tangent_project"),
        "manifolds.retract_us": self_us("manifolds.retract"),
        "manifolds.retract_calls_per_iter": per_iter("manifolds.retract"),
        "manifolds.transport_us": self_us("manifolds.transport"),
        "bregman.step_coefficients_us": self_us("bregman.step_coefficients"),
        "dynamics.newton_solve_us": self_us("dynamics.newton_solve"),
        "dynamics.newton_solve_calls_per_iter": per_iter("dynamics.newton_solve"),
        "dynamics.newton_iters_per_call": newton.value_sum / newton.calls if newton.calls else 0.0,
        "dynamics.newton_fail_frac": newton.raised / newton.calls if newton.calls else 0.0,
        "dynamics.constrained_lagrangian_map_us": self_us("dynamics.constrained_lagrangian_map"),
        "optimizers.htvi_step_us": self_us("optimizers.htvi_step"),
        "optimizers.el_step_us": self_us("optimizers.el_step"),
        "optimizers.rgd_step_us": self_us("optimizers.rgd_step"),
        "optimizers.run_self_us_per_iter":
            1e6 * stat("optimizers.run").self_s / iterations if iterations else 0.0,
        "cli.self_s": summary.layer_self_s("cli") / n_ops,
        "trace_overhead_frac": overhead,
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.share"] = summary.layer_self_s(layer) / summary.wall_s if summary.wall_s else 0.0
    return metrics


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(name, seed, seconds, trace, budget=None):
    """Run one workload and return its result; ``budget`` overrides the
    iteration budget of every solve (the smoke test uses a tiny one)."""
    import workloads

    budget = workloads.BUDGET if budget is None else budget
    work_dir = OUT / f"work-{name}-seed{seed}"
    workload = workloads.make_workload(name, seed, work_dir)
    report = [f"# workload {name} seed {seed} seconds {seconds} trace {trace} budget {budget}",
              "# environment " + json.dumps(environment())]

    meter = speed.Meter()
    ops, setup_samples = _setup(workload, budget, meter)
    try:
        workload.warm_up(ops)
    except Exception:  # noqa: BLE001 - the timed rounds classify the failure
        traceback.print_exc(file=sys.stderr)

    plain = [[] for _ in ops]
    windows = [[] for _ in ops]
    traced = [[] for _ in ops]
    summary = spans.Summary({})
    kept_tracer = None
    start = time.perf_counter()
    rounds, longest = 0, 0.0
    # Start a round only when it can end within the measuring time.
    while rounds < MIN_ROUNDS or time.perf_counter() - start + longest <= seconds:
        begin = time.perf_counter()
        if trace and rounds % 2 == 1:
            with spans.Tracer() as tracer:
                results = [_execute(op, tracer) for op in ops]
            summary.merge(tracer.summary())
            kept_tracer = kept_tracer or tracer
            for runs, result in zip(traced, results):
                runs.append(result)
        else:
            with meter:
                for runs, probed, op in zip(plain, windows, ops):
                    first = len(meter.samples)
                    runs.append(_execute(op, meter=meter))
                    probed.append((first, len(meter.samples)))
        longest = max(longest, time.perf_counter() - begin)
        rounds += 1

    attempted = sum(len(runs) for runs in plain + traced)
    failed = 0
    # Each execution is taken to the reference speed by the probes made
    # during it; an operation's time is the median over its executions.
    ref_s = [_median([s * meter.scale(*w) for (_, s), w in zip(runs, probed)])
             for runs, probed in zip(plain, windows)]
    setup_ref_s = [s * meter.scale(first, last) for s, first, last in setup_samples]
    report.append(f"# {'operation':<34} {'status':<9} {'iters':>6} {'ref_s':>9} {'best_s':>9}  reason")
    for op, runs, truns, op_ref_s in zip(ops, plain, traced, ref_s):
        first = runs[0][0]
        everything = [o for o, _ in runs + truns]
        failed += sum(1 for o in everything if o.breach)
        failed += sum(1 for o in everything if o.fingerprint() != first.fingerprint())
        report.append(f"  {op.label:<34} {first.status:<9} {first.iterations:>6} "
                      f"{op_ref_s:>9.4f} {min(s for _, s in runs):>9.4f}  {first.reason}")
        if any(o.fingerprint() != first.fingerprint() for o in everything):
            report.append(f"  ! {op.label}: outcome differs between repeats")
    correct = failed == 0

    e2e = _end_to_end(ops, plain, ref_s, setup_ref_s)
    rates = _family_rates(ops, plain, ref_s)
    statuses = [runs[0][0].status for runs in plain]
    n_solved = statuses.count("solved")
    report.append(f"# end-to-end over {len(plain[0])} untraced round(s) "
                  f"of {len(ops)} operation(s), {len(setup_samples)} set-up pass(es); "
                  f"{len(meter.samples)} probes, median {1e3 * statistics.median(meter.samples):.4f} ms, "
                  f"reference {1e3 * speed.REFERENCE_PROBE_S:g} ms")
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(setup_samples)} passes, per instance"),
        ("htvi_iters_per_s", rates["htvi"][0], "1/s", f"over {rates['htvi'][1]:.2f} s"),
        ("baseline_iters_per_s", rates["baseline"][0], "1/s", f"over {rates['baseline'][1]:.2f} s"),
        ("time_to_target_s", e2e["time_to_target_s"], "s", f"median over {n_solved} solved"),
        ("solved_frac", e2e["solved_frac"], "frac", f"{n_solved}/{len(ops)}"),
        ("fail_frac", 1.0 - e2e["ok_frac"], "frac", f"{statuses.count('failed')}/{len(ops)}"),
        ("order_check_s", _median([t for op, t in zip(ops, ref_s) if op.family == "order-check"]),
         "s", "median per invocation"),
        ("us_per_iter", e2e["us_per_iter"], "us", "geometric mean over operations"),
        ("ok_frac", e2e["ok_frac"], "frac", "1 - fail_frac"),
    ]
    for metric, value, unit, note in rows:
        report.append(f"  {metric:<22} {_fmt(value):>12} {unit:<5} {note}")

    summaries = []
    if trace:
        metrics, setup_summary = _traced_metrics(workload, budget, plain, traced, summary,
                                                 kept_tracer, report)
        summaries = [summary, setup_summary]
        OUT.mkdir(parents=True, exist_ok=True)
        kept_tracer.write(OUT / f"spans-{name}-seed{seed}.npz")
        values = {k: (metrics[k], unit) for k, unit in PER_LAYER.items()}
    else:
        values = {k: (e2e[k], unit) for k, unit in END_TO_END.items()}
    return RunResult(correct, attempted, failed, values, report, summaries)


def _traced_metrics(workload, budget, plain, traced, summary, tracer, report):
    with spans.Tracer() as setup_tracer:
        workload.setup(budget)
    setup_summary = setup_tracer.summary()
    iterations = sum(o.iterations for runs in traced for o, _ in runs)
    n_ops = sum(len(runs) for runs in traced)
    untraced_s = sum(_median([s for _, s in runs]) for runs in plain)
    traced_s = sum(_median([s for _, s in runs]) for runs in traced)
    metrics = _per_layer(summary, setup_summary, iterations, n_ops, traced_s / untraced_s - 1.0)
    absent = tracer.absent | setup_tracer.absent
    report.append(f"# per-layer over {len(traced[0])} traced round(s): {iterations} iterations, "
                  f"traced wall {summary.wall_s:.3f} s, absent hooks: {', '.join(sorted(absent)) or 'none'}")
    for layer in spans.LAYERS:
        report.append(f"  {layer:<11} self {summary.layer_self_s(layer):9.4f} s  "
                      f"share {metrics[layer + '.share']:.4f}")
    report.append(f"# {'span':<36} {'calls':>9} {'self_s':>9} {'self_us/call':>13}")
    hooked = dict.fromkeys([h[0] for h in spans.HOOKS] + [h[0] for h in spans.PROBLEM_HOOKS])
    for name in hooked:
        if name in absent:
            report.append(f"  {name:<36} {'absent':>9}")
            continue
        s = summary.get(name) if summary.get(name).calls else setup_summary.get(name)
        per_call = 1e6 * s.self_s / s.calls if s.calls else 0.0
        report.append(f"  {name:<36} {s.calls:>9} {s.self_s:>9.4f} {per_call:>13.3f}")
    report.append(f"# {'per-layer metric':<46} {'value':>12}")
    for name, unit in PER_LAYER.items():
        report.append(f"  {name:<46} {_fmt(metrics[name]):>12} {unit}")
    return metrics, setup_summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "bregopt" / "__init__.py").is_file():
        print(f"error: bregopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.NAMES):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    results = {}
    for name in names:
        for trace in traces:
            result = run_workload(name, args.seed, args.seconds, trace)
            print("\n".join(result.report), flush=True)
            results[(name, trace)] = result
    if len(results) == 1:
        print(next(iter(results.values())).json_line())
        return 0
    combined = RunResult(
        correct=all(r.correct for r in results.values()),
        attempted=sum(r.attempted for r in results.values()),
        failed=sum(r.failed for r in results.values()),
        metrics={f"{name}/{metric}": value for (name, _), r in results.items()
                 for metric, value in r.metrics.items()},
    )
    print(combined.json_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
