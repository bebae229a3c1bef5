"""Acceptance criteria, one test per criterion.

Each test exercises its criterion at the stated tolerance and prints a
single PASS/FAIL line; run with ``pytest tests/test_acceptance.py -s`` to
see the summary lines.
"""

import math
import time

import numpy as np
import pytest

from bregopt import dynamics
from bregopt.bregman import BregmanParams, ExtendedState, hamiltonian_adaptive, \
    hamiltonian_direct, hamiltonian_partials
from bregopt.cli import PENDULUM_GRAVITY, _order_check_system, \
    spherical_pendulum_lagrangian
from bregopt.manifolds import Sphere
from bregopt.optimizers import RunConfig, htvi_step, run
from bregopt.problems import make_instance, rayleigh, symmetric_from_spectrum


def report(index, name, ok):
    print(f"ACCEPTANCE {index} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {index} ({name}) failed"


def untamed_run_config(method, params, max_iters):
    """A run that neither gradient- nor gap-stops before the budget."""
    return RunConfig(method=method, params=params, max_iters=max_iters,
                     stop_f_tol=1e-300, stop_grad_tol=1e-300)


def test_acceptance_1_constraint_preservation():
    start = time.time()
    params = BregmanParams(p=6.0, h=1e-3)
    problems = [
        make_instance("rayleigh", (10,), seed=7),
        make_instance("brockett", (20, 5), seed=5),
    ]
    worst = 0.0
    for problem in problems:
        initial = problem.manifold.random_point(np.random.default_rng(2))
        for method in ("htvi_direct", "htvi_adaptive"):
            trace = run(untamed_run_config(method, params, 1000), problem, initial)
            assert not trace.failed, trace.failure_reason
            assert len(trace) == 1001
            worst = max(worst, max(trace.constraint_violations))
    elapsed = time.time() - start
    report(1, "constraint preservation", worst <= 1e-9 and elapsed < 30.0)


def test_acceptance_2_order_of_accuracy():
    start = time.time()
    h_list = [1e-1, 5e-2, 2.5e-2, 1.25e-2]

    step, initial = _order_check_system("quadratic")
    quadratic = dynamics.order_check(step, initial, h_list, 1.0)

    step, initial = _order_check_system("spherical_pendulum")
    pendulum = dynamics.order_check(step, initial, h_list, 1.0)

    elapsed = time.time() - start
    ok = (0.85 <= quadratic.rate <= 1.15) and (1.8 <= pendulum.rate <= 2.2)
    print(f"  rates: quadratic {quadratic.rate:.3f}, pendulum {pendulum.rate:.3f}")
    report(2, "order of accuracy", ok and elapsed < 60.0)


def test_acceptance_3_oracle_agreement():
    start = time.time()

    rayleigh_prob = make_instance("rayleigh", (10,), seed=7)
    cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.1),
                    max_iters=20000, stop_f_tol=1e-8)
    gap_rayleigh = run(cfg, rayleigh_prob).fs[-1] - rayleigh_prob.oracle_value

    brockett_prob = make_instance("brockett", (6, 2), seed=11)
    cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.05),
                    max_iters=20000, stop_f_tol=1e-8)
    gap_brockett = run(cfg, brockett_prob).fs[-1] - brockett_prob.oracle_value

    # balanced case: the initial point must share the orthogonal component
    # of the SVD solution, since retractions cannot switch components
    procrustes_prob = make_instance("procrustes", (3, 3, 5), seed=4)
    initial = procrustes_prob.manifold.random_point(np.random.default_rng(0))
    cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.02),
                    max_iters=30000, stop_f_tol=1e-8)
    gap_procrustes = (run(cfg, procrustes_prob, initial).fs[-1]
                      - procrustes_prob.oracle_value)

    # the unbalanced case has no global oracle: require a monotone descent
    # trend and feasibility only
    unbalanced = make_instance("procrustes", (4, 2, 6), seed=9)
    cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.01),
                    max_iters=2000, stop_grad_tol=1e-10)
    trace = run(cfg, unbalanced)
    monotone = np.all(np.diff(trace.fs) <= 1e-12)
    feasible = max(trace.constraint_violations) <= 1e-9

    elapsed = time.time() - start
    print(f"  gaps: rayleigh {gap_rayleigh:.2e}, brockett {gap_brockett:.2e}, "
          f"procrustes {gap_procrustes:.2e}; unbalanced monotone={monotone}")
    ok = (abs(gap_rayleigh) <= 1e-6 and abs(gap_brockett) <= 1e-6
          and abs(gap_procrustes) <= 1e-6 and monotone and feasible)
    report(3, "oracle agreement", ok and elapsed < 120.0)


def test_acceptance_4_adaptive_outperforms_direct():
    start = time.time()
    problem = make_instance("rayleigh", (10,), seed=7)
    initial = problem.manifold.random_point(np.random.default_rng(2))
    params = BregmanParams(p=6.0, h=1e-3)  # benchmark defaults from the CLI
    gap_tol = 1e-5
    iterations = {}
    for method in ("htvi_direct", "htvi_adaptive"):
        trace = run(untamed_run_config(method, params, 30000), problem, initial)
        assert not trace.failed, trace.failure_reason
        iterations[method] = trace.iterations_to_gap(gap_tol)
    elapsed = time.time() - start
    print(f"  iterations to gap {gap_tol:g}: direct {iterations['htvi_direct']}, "
          f"adaptive {iterations['htvi_adaptive']}")
    ok = (iterations["htvi_adaptive"] is not None
          and iterations["htvi_direct"] is not None
          and iterations["htvi_adaptive"] < iterations["htvi_direct"])
    report(4, "adaptive outperforms direct", ok and elapsed < 120.0)


def test_acceptance_5_long_time_energy_behavior():
    start = time.time()
    sphere = Sphere(3)
    lagrangian = spherical_pendulum_lagrangian()
    h = 1e-2
    steps = 100000
    q = np.array([0.6, 0.0, 0.8])
    p = np.array([0.0, 1.2, 0.0])

    def energy(q, p):
        return 0.5 * float(p @ p) + PENDULUM_GRAVITY * q[2]

    e0 = energy(q, p)
    energies = np.empty(steps)
    lam = None
    for i in range(steps):
        result = dynamics.constrained_lagrangian_map(
            lagrangian, sphere, q, p, h, lam0=lam
        )
        q = result.q_next
        p = dynamics.project_momentum(sphere, q, result.p_next)
        lam = result.lam
        energies[i] = energy(q, p)
    elapsed = time.time() - start

    decile = steps // 10
    first, last = energies[:decile], energies[-decile:]
    band_low, band_high = first.min(), first.max()
    bounded = np.max(np.abs(energies - e0)) <= 50.0 * h * h * (1.0 + abs(e0))
    no_drift = band_low <= last.mean() <= band_high
    print(f"  energy band [{band_low:.6f}, {band_high:.6f}], "
          f"last-decile mean {last.mean():.6f}, max |dE| {np.max(np.abs(energies - e0)):.2e}")
    report(5, "bounded energy, no secular drift",
           bounded and no_drift and elapsed < 60.0)


def test_acceptance_6_reduction_identities():
    rng = np.random.default_rng(6)
    sphere = Sphere(5)
    value_ok = True
    step_ok = True
    for _ in range(100):
        # ranges kept inside the regime where one step of the map is
        # well-posed (the drift must be able to reach the sphere)
        p = float(rng.uniform(1.5, 3.5))
        params = BregmanParams(
            p=p, p_ring=p, c_const=float(rng.uniform(0.5, 1.0)),
            lambda_conv=float(rng.uniform(1.0, 1.3)),
            h=float(rng.uniform(1e-3, 2e-2)),
        )
        q = sphere.random_point(rng)
        state = ExtendedState(
            q=q, q_t=float(rng.uniform(0.9, 1.4)), r=0.3 * rng.standard_normal(5),
            r_t=float(rng.standard_normal()), lam=np.zeros(1),
        )
        f_val = float(rng.standard_normal())
        grad = 0.3 * rng.standard_normal(5)

        direct_h = hamiltonian_direct(params, state, f_val)
        adaptive_h = hamiltonian_adaptive(params, state, f_val)
        value_ok &= abs(adaptive_h - direct_h) <= 1e-12 * max(1.0, abs(direct_h))

        pd = hamiltonian_partials(params, state, f_val, grad, adaptive=False)
        pa = hamiltonian_partials(params, state, f_val, grad, adaptive=True)
        for lhs, rhs in ((pa.d_q, pd.d_q), (pa.d_r, pd.d_r)):
            value_ok &= np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        value_ok &= abs(pa.d_qt - pd.d_qt) <= 1e-12 * max(1.0, abs(pd.d_qt))
        value_ok &= abs(pa.d_rt - pd.d_rt) <= 1e-12

        out_d, _ = htvi_step("direct", params, sphere, state, grad, f_val)
        out_a, _ = htvi_step("adaptive", params, sphere, state, grad, f_val)
        step_ok &= np.allclose(out_a.q, out_d.q, rtol=1e-12, atol=1e-12)
        step_ok &= np.allclose(out_a.r, out_d.r, rtol=1e-12, atol=1e-12)
        step_ok &= abs(out_a.q_t - out_d.q_t) <= 1e-12 * out_d.q_t
        step_ok &= abs(out_a.r_t - out_d.r_t) <= 1e-12 * max(1.0, abs(out_d.r_t))
        step_ok &= np.allclose(out_a.lam, out_d.lam, rtol=1e-12, atol=1e-12)

    # finite-difference agreement of all partials for both variants
    fd_ok = True
    for _ in range(20):
        p = float(rng.uniform(1.5, 4.0))
        params = BregmanParams(p=p, p_ring=float(rng.uniform(1.0, 2.0 * p)),
                               h=float(rng.uniform(1e-3, 5e-2)))
        n = 4
        quad = rng.standard_normal((n, n))
        quad = quad + quad.T
        state = ExtendedState(
            q=rng.standard_normal(n), q_t=float(rng.uniform(0.7, 2.0)),
            r=rng.standard_normal(n), r_t=float(rng.standard_normal()),
            lam=np.zeros(0),
        )
        f_val = float(state.q @ (quad @ state.q))
        grad = 2.0 * quad @ state.q
        for adaptive, hamiltonian in ((False, hamiltonian_direct),
                                      (True, hamiltonian_adaptive)):
            exact = hamiltonian_partials(params, state, f_val, grad, adaptive)

            def value(q, q_t, r, r_t):
                st = ExtendedState(q=q, q_t=q_t, r=r, r_t=r_t, lam=state.lam)
                return hamiltonian(params, st, float(q @ (quad @ q)))

            eps = 1e-4
            for i in range(n):
                delta = np.zeros(n)
                delta[i] = eps
                fd_q = (value(state.q + delta, state.q_t, state.r, state.r_t)
                        - value(state.q - delta, state.q_t, state.r, state.r_t)) / (2 * eps)
                fd_ok &= abs(exact.d_q[i] - fd_q) <= 1e-6 * (1.0 + abs(fd_q))
                fd_r = (value(state.q, state.q_t, state.r + delta, state.r_t)
                        - value(state.q, state.q_t, state.r - delta, state.r_t)) / (2 * eps)
                fd_ok &= abs(exact.d_r[i] - fd_r) <= 1e-6 * (1.0 + abs(fd_r))
            fd_qt = (value(state.q, state.q_t + eps, state.r, state.r_t)
                     - value(state.q, state.q_t - eps, state.r, state.r_t)) / (2 * eps)
            fd_ok &= abs(exact.d_qt - fd_qt) <= 1e-6 * (1.0 + abs(fd_qt))
            fd_rt = (value(state.q, state.q_t, state.r, state.r_t + eps)
                     - value(state.q, state.q_t, state.r, state.r_t - eps)) / (2 * eps)
            fd_ok &= abs(exact.d_rt - fd_rt) <= 1e-6 * (1.0 + abs(fd_rt))

    report(6, "reduction identities and exact partials",
           value_ok and step_ok and fd_ok)


def test_acceptance_7_divergence_remedy():
    start = time.time()
    rng = np.random.default_rng(21)
    # spectrum chosen so the capped run sits inside the stability envelope
    # h^2 * cap * (2 lambda_max) < 4 while the uncapped coefficient outgrows it
    matrix = symmetric_from_spectrum(rng, np.linspace(0.2, 2.0, 10))
    problem = rayleigh(matrix)
    initial = problem.manifold.random_point(np.random.default_rng(1))

    outcomes = {}
    for cap in (math.inf, 1e6):
        params = BregmanParams(p=6.0, h=1e-3, coeff_cap=cap)
        trace = run(untamed_run_config("el_v1", params, 100000), problem, initial)
        fs = np.array(trace.fs)
        outcomes[cap] = {
            "non_finite": trace.failed or not np.all(np.isfinite(fs)),
            "rose_after_best": bool(fs[-1] > fs.min() + 1e-8),
            "final_gap": fs[-1] - problem.oracle_value,
        }
    elapsed = time.time() - start

    uncapped = outcomes[math.inf]
    capped = outcomes[1e6]
    diverged = uncapped["non_finite"] or uncapped["rose_after_best"]
    converged = (not capped["non_finite"]) and abs(capped["final_gap"]) <= 1e-4
    print(f"  uncapped: final gap {uncapped['final_gap']:.2e} "
          f"(rose={uncapped['rose_after_best']}, nonfinite={uncapped['non_finite']}); "
          f"capped: final gap {capped['final_gap']:.2e}")
    report(7, "coefficient cap stabilizes the EL method",
           diverged and converged and elapsed < 120.0)
