"""The paper's claims for the HTVI integrators at the defaults the CLI ships.

Each default problem is built by ``cli.build_problem`` at seed 0 and run
from the CLI's seeded start point with the CLI's method defaults and a
20000-iteration budget, to the seed sweep's target: oracle gap at most 1e-6,
or Riemannian gradient norm at most 1e-6 on ``procrustes``, which has no
oracle.  Every run must reach the target without failing, every iterate must
lie within 1e-9 of the manifold, and the adaptive integrator must get there
in fewer iterations than the direct one.

Past the target, an untamed run (both stop tolerances 1e-300, so it uses
its whole budget: a gap tolerance below the oracle's float spacing does not
stop a run) must stay converged.  On the default ``procrustes``: no
failure, every iterate within 1e-9 of the manifold, the last f within 1e-9
of the best, the last gradient norm at most 1e-9, and no exact Riccati step
(``np.linalg.eig``) in any multiplier solve.  On the default ``rayleigh``
and ``brockett``: no failure, every iterate within 1e-9 of the manifold, the
last f within 1e-8 of the best, and no exact Riccati step.
"""

import numpy as np
import pytest

from bregopt.cli import DEFAULT_DIMS, build_problem, build_run_config
from bregopt.optimizers import run

BUDGET = 20000
TARGET = 1e-6


def iterations_to_target(name, method):
    problem = build_problem({"name": name, "seed": 0})
    initial = problem.manifold.random_point(np.random.default_rng(0))
    block = {"method": method, "max_iters": BUDGET}
    block["stop_f_tol" if problem.oracle_value is not None else "stop_grad_tol"] = TARGET
    trace = run(build_run_config(block), problem, initial)
    assert not trace.failed, f"{name}/{method}: {trace.failure_reason}"
    assert max(trace.constraint_violations) <= 1e-9, f"{name}/{method}"
    last_gap, last_grad = trace.errors_vs_oracle[-1], trace.grad_norms[-1]
    assert (last_gap <= TARGET if last_gap is not None else last_grad <= TARGET), \
        f"{name}/{method} used up the budget"
    return trace.ks[-1]


@pytest.mark.parametrize("name", sorted(DEFAULT_DIMS))
def test_adaptive_beats_direct_on_the_manifold(name):
    direct = iterations_to_target(name, "htvi_direct")
    adaptive = iterations_to_target(name, "htvi_adaptive")
    assert adaptive < direct


def untamed_run(name, method, monkeypatch):
    """The untamed run of a default problem at seed 0 from the CLI's start,
    checked to have used its whole budget without failing, every iterate
    within 1e-9 of the manifold and no exact Riccati step."""
    eig_calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        eig_calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    problem = build_problem({"name": name, "seed": 0})
    initial = problem.manifold.random_point(np.random.default_rng(0))
    config = build_run_config({"method": method, "max_iters": BUDGET,
                               "stop_f_tol": 1e-300, "stop_grad_tol": 1e-300})
    trace = run(config, problem, initial)
    assert not trace.failed, trace.failure_reason
    assert trace.ks[-1] == BUDGET
    assert max(trace.constraint_violations) <= 1e-9
    assert not eig_calls
    return trace


@pytest.mark.parametrize("method", ["htvi_direct", "htvi_adaptive"])
def test_untamed_procrustes_stays_converged(method, monkeypatch):
    trace = untamed_run("procrustes", method, monkeypatch)
    assert trace.fs[-1] - min(trace.fs) <= 1e-9
    assert trace.grad_norms[-1] <= 1e-9


@pytest.mark.parametrize("method", ["htvi_direct", "htvi_adaptive"])
@pytest.mark.parametrize("name", ["rayleigh", "brockett"])
def test_untamed_runs_with_an_oracle_stay_converged(name, method, monkeypatch):
    # f reaches its oracle to rounding well inside the budget; the runs go on
    trace = untamed_run(name, method, monkeypatch)
    assert trace.fs[-1] - min(trace.fs) <= 1e-8
    assert trace.iterations_to_gap(1e-12) < BUDGET
