"""Seed sweep of every method on the three default problems.

Runs the five methods on ``rayleigh``, ``brockett`` and ``procrustes`` at
their CLI defaults for seeds 0-9, from the CLI's seeded initial point, with
a 12000-iteration budget and the target used by the benchmark: oracle gap
at most 1e-6, or Riemannian gradient norm at most 1e-6 on a problem without
an oracle.  It prints one row per problem and method with the outcome of
each seed -- ``S<k>`` reached the target at iteration ``k``, ``U<k>`` used
up the budget, ``F<k>`` failed at step ``k`` -- followed by the text of
every failure, a count of the failures and of those classified
unreachable, the worst constraint violation of any iterate of any run, and
a ``trace digest`` line: a sha256 over every run's exact
``fs``/``grad_norms``/``constraint_violations``/``newton_iters`` bits and
failure text, in sweep order.  Equal digest lines from two versions of the
package show that every trajectory of the sweep is bit-identical.  Not
collected by pytest; run it as

    PYTHONPATH=src python tests/seed_sweep.py
"""

import hashlib
import os

# one BLAS thread, as the test suite and the benchmark run, whatever the
# environment asks: the digest depends on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

from bregopt.cli import build_problem, build_run_config
from bregopt.optimizers import METHODS, run

from digests import update_digest

PROBLEMS = ("rayleigh", "brockett", "procrustes")
SEEDS = range(10)
BUDGET = 12000
TARGET = 1e-6


def outcome(name, method, seed, digest):
    """``(status, k, failure text, worst violation)`` of one run, whose
    trace and failure text are fed to ``digest``."""
    problem = build_problem({"name": name, "seed": seed})
    initial = problem.manifold.random_point(np.random.default_rng(seed))
    block = {"method": method, "max_iters": BUDGET}
    has_oracle = problem.oracle_value is not None
    block["stop_f_tol" if has_oracle else "stop_grad_tol"] = TARGET
    trace = run(build_run_config(block), problem, initial)
    update_digest(digest, trace)
    digest.update(f"|{trace.failure_reason}\n".encode())
    violation = max(trace.constraint_violations, default=0.0)
    if trace.failed:
        # the step that failed follows the last recorded iterate
        return "F", len(trace), trace.failure_reason, violation
    k, grad_norm, gap = trace.ks[-1], trace.grad_norms[-1], trace.errors_vs_oracle[-1]
    reached = gap <= TARGET if has_oracle else grad_norm <= TARGET
    return ("S" if reached else "U"), k, "", violation


def main():
    failures = []
    worst = 0.0
    digest = hashlib.sha256()
    print(f"{'problem':<11} {'method':<14} " + " ".join(f"{s:>6}" for s in SEEDS))
    for name in PROBLEMS:
        for method in METHODS:
            cells = []
            for seed in SEEDS:
                status, k, text, violation = outcome(name, method, seed, digest)
                worst = max(worst, violation)
                cells.append(f"{status}{k:>5}")
                if text:
                    failures.append(f"{name}#{seed}/{method} k={k}: {text}")
            print(f"{name:<11} {method:<14} " + " ".join(cells), flush=True)
    print("failures:" if failures else "failures: none")
    for line in failures:
        print(" ", line)
    unreachable = sum("unreachable" in line for line in failures)
    print(f"failures: {len(failures)}, unreachable: {unreachable}")
    print(f"worst constraint violation: {worst:.3e}")
    print(f"trace digest: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
