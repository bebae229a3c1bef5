"""Tests of the HTVI / Euler-Lagrange / gradient-descent iteration engines."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from bregopt.bregman import BregmanParams, ExtendedState
from bregopt.cli import DEFAULT_DIMS, build_problem, build_run_config
from bregopt.dynamics import DEFAULT_NEWTON, NewtonConfig, newton_solve
from bregopt.errors import FeasibilityError, NewtonError
from bregopt.manifolds import Sphere, Stiefel
from bregopt.optimizers import METHODS, RunConfig, el_step, htvi_step, rgd_step, run
from bregopt.problems import make_instance, rayleigh

from reference_geometry import Unconstrained, constraint_jacobian


def bisection_roots(fun, center, width=50.0, tol=1e-14):
    """All roots of a scalar quadratic-like function near zero, by expanding
    brackets from the vertex and bisecting; independent of the solver under
    test."""
    vertex = center
    roots = []
    for lo, hi in ((vertex - width, vertex), (vertex, vertex + width)):
        if fun(lo) * fun(hi) > 0:
            continue
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if fun(a) * fun(mid) <= 0:
                b = mid
            else:
                a = mid
            if b - a < tol:
                break
        roots.append(0.5 * (a + b))
    return roots


def dense_multiplier(manifold, drift, q, coeff, lam0, newton):
    """Multiplier solve through the dense constraint Jacobian: Newton on
    ``C(drift - coeff J(q)^T lam) = 0`` with the Jacobian
    ``-J(y) coeff J(q)^T`` (reference for ``solve_multiplier``)."""
    jac_t = constraint_jacobian(manifold, q).T
    shift = coeff * jac_t

    def residual(lam):
        return manifold.constraint(drift - shift @ lam)

    def jacobian(lam):
        return -constraint_jacobian(manifold, drift - shift @ lam) @ shift

    result = newton_solve(residual, jacobian, lam0, newton)
    return result.x, jac_t @ result.x, result.iterations


def closed_form_sphere_multiplier(w, v):
    """Smallest-magnitude root of ``|w - v lam|^2 = 1`` by the quadratic
    formula (reference for ``Sphere.solve_multiplier``)."""
    a = float(v @ v)
    b = -2.0 * float(w @ v)
    c = float(w @ w) - 1.0
    tiny = 1e-300
    if a < tiny:
        if abs(b) < tiny:
            if abs(c) < 1e-12:
                return 0.0
            raise NewtonError("sphere multiplier equation is degenerate")
        return -c / b
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NewtonError(
            f"sphere constraint unreachable along the multiplier direction "
            f"(discriminant {disc:.3e})"
        )
    sq = np.sqrt(disc)
    big = (-b - sq) / (2.0 * a) if b >= 0.0 else (-b + sq) / (2.0 * a)
    if big == 0.0:
        return 0.0
    small = c / (a * big)
    return small if abs(small) <= abs(big) else big


class DenseStiefel(Stiefel):
    """Stiefel manifold whose multiplier solve uses the dense reference."""

    def solve_multiplier(self, drift, q, coeff, lam0, newton):
        return dense_multiplier(self, drift, q, coeff, lam0, newton)


class CountsConstraint:
    """Mixin that counts calls of ``constraint``."""

    constraint_calls = 0

    def constraint(self, q):
        self.constraint_calls += 1
        return super().constraint(q)


class CountingSphere(CountsConstraint, Sphere):
    pass


class CountingStiefel(CountsConstraint, Stiefel):
    pass


def trace_digest(trace):
    """Digest of the exact bits of a trace's ``fs``, ``grad_norms``,
    ``constraint_violations`` and ``newton_iters``."""
    digest = hashlib.sha256()
    for column in (trace.fs, trace.grad_norms, trace.constraint_violations):
        digest.update(" ".join(float(v).hex() for v in column).encode())
        digest.update(b"|")
    digest.update(" ".join(str(n) for n in trace.newton_iters).encode())
    return digest.hexdigest()[:16]


class TestSolveMultiplier:
    @pytest.mark.parametrize("n,m", [(6, 2), (7, 1), (5, 5), (20, 5)])
    def test_stiefel_matches_dense_newton(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(n * 10 + m)
        for coeff, warm in ((0.05, False), (0.05, True), (0.2, False)):
            q = st.random_point(rng)
            base = 0.5 * rng.standard_normal(n * m)
            lam0 = 0.1 * rng.standard_normal(st.constraint_dim) if warm \
                else np.zeros(st.constraint_dim)
            drift = q + coeff * base
            lam, normal, iters = st.solve_multiplier(drift, q, coeff, lam0, DEFAULT_NEWTON)
            ref_lam, ref_normal, ref_iters = dense_multiplier(
                st, drift, q, coeff, lam0, DEFAULT_NEWTON)
            assert iters == ref_iters >= 1
            np.testing.assert_allclose(lam, ref_lam, rtol=0, atol=1e-12)
            np.testing.assert_allclose(normal, ref_normal, rtol=0, atol=1e-12)
            assert st.constraint_violation(q + coeff * (base - normal)) <= DEFAULT_NEWTON.tol

    def test_stiefel_failure_is_newton_error(self):
        # a drift far from any point the normals can reach exhausts the budget
        st = Stiefel(6, 2)
        q = st.random_point(np.random.default_rng(1))
        newton = NewtonConfig(max_iter=5)
        with pytest.raises(NewtonError, match="Newton did not converge in 5 iterations"):
            st.solve_multiplier(q + 50.0, q, 1e-3, np.zeros(3), newton)

    def test_sphere_bit_equal_to_closed_form(self):
        sphere = Sphere(5)
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = sphere.random_point(rng)
            coeff = float(rng.uniform(1e-4, 0.5))
            drift = q + coeff * rng.standard_normal(5)
            lam, normal, iters = sphere.solve_multiplier(
                drift, q, coeff, np.zeros(1), DEFAULT_NEWTON)
            jac_t = constraint_jacobian(sphere, q).T
            ref = np.array([closed_form_sphere_multiplier(drift, coeff * jac_t[:, 0])])
            np.testing.assert_array_equal(lam, ref)
            np.testing.assert_array_equal(normal, jac_t @ ref)
            assert iters == 0

    def test_sphere_degenerate_cases(self):
        sphere = Sphere(3)
        q = np.array([1.0, 0.0, 0.0])
        # no step at all: a feasible drift needs no multiplier ...
        lam, normal, _ = sphere.solve_multiplier(q, q, 0.0, np.zeros(1), DEFAULT_NEWTON)
        np.testing.assert_array_equal(lam, [closed_form_sphere_multiplier(q, 0.0 * q)])
        np.testing.assert_array_equal(lam, [0.0])
        np.testing.assert_array_equal(normal, np.zeros(3))
        # ... and an infeasible one cannot be corrected
        drift = np.array([2.0, 0.0, 0.0])
        for solve in (lambda: sphere.solve_multiplier(drift, q, 0.0, np.zeros(1), DEFAULT_NEWTON),
                      lambda: closed_form_sphere_multiplier(drift, 0.0 * q)):
            with pytest.raises(NewtonError, match="degenerate"):
                solve()

    def test_sphere_negative_discriminant(self):
        # the normal direction at q misses the sphere from this drift
        sphere = Sphere(3)
        q = np.array([1.0, 0.0, 0.0])
        drift = np.array([0.0, 2.0, 0.0])
        with pytest.raises(NewtonError) as ours:
            sphere.solve_multiplier(drift, q, 0.1, np.zeros(1), DEFAULT_NEWTON)
        with pytest.raises(NewtonError) as ref:
            closed_form_sphere_multiplier(drift, 0.1 * 2.0 * q)
        assert "discriminant" in str(ours.value)
        assert str(ours.value) == str(ref.value)

    @pytest.mark.parametrize("method", ["htvi_direct", "htvi_adaptive"])
    @pytest.mark.parametrize("name", ["brockett", "procrustes"])
    def test_htvi_trajectories_match_dense_reference(self, method, name):
        # default instances and CLI defaults, 1000 steps from the CLI's start
        problem = build_problem({"name": name, "seed": 0})
        n, m = problem.manifold.n, problem.manifold.m
        dense = dataclasses.replace(problem, manifold=DenseStiefel(n, m))
        config = build_run_config({"method": method, "max_iters": 1000})
        trace = run(config, problem)
        reference = run(config, dense)
        assert not trace.failed and not reference.failed
        assert len(trace) == len(reference) == 1001
        assert trace.newton_iters == reference.newton_iters
        np.testing.assert_allclose(trace.fs, reference.fs, rtol=0, atol=1e-10)


class TestHtviStep:
    def test_ambient_direct_substitution(self):
        # with no objective and no constraint the momentum is untouched and
        # the position drifts by the kinetic coefficient
        params = BregmanParams(p=2.0, lambda_conv=1.0, h=0.1, coeff_cap=math.inf)
        manifold = Unconstrained(3)
        q = np.array([1.0, 2.0, 3.0])
        r = np.array([0.5, -0.5, 0.25])
        state = ExtendedState(q=q, q_t=1.0, r=r, r_t=0.25, lam=np.zeros(0))
        out, iters = htvi_step("direct", params, manifold, state, np.zeros(3), 0.0)
        assert iters == 0
        np.testing.assert_array_equal(out.r, r)
        assert out.q_t == pytest.approx(1.1)
        np.testing.assert_allclose(out.q, q + 2.0 * 0.1 * r)
        # r_t update: r_t + h * p(p+1)/2 * s^-(p+2) * r.r  at s = 1
        assert out.r_t == pytest.approx(0.25 + 0.1 * 3.0 * float(r @ r))

    def test_adaptive_reduces_to_direct(self):
        rng = np.random.default_rng(0)
        sphere = Sphere(4)
        for _ in range(25):
            p = float(rng.uniform(1.5, 4.0))
            params = BregmanParams(
                p=p, p_ring=p, c_const=float(rng.uniform(0.5, 2.0)),
                h=float(rng.uniform(1e-3, 5e-2)),
            )
            q = sphere.random_point(rng)
            state = ExtendedState(
                q=q, q_t=float(rng.uniform(0.7, 2.0)),
                r=rng.standard_normal(4), r_t=float(rng.standard_normal()),
                lam=np.zeros(1),
            )
            grad = rng.standard_normal(4)
            f_val = float(rng.standard_normal())
            direct, _ = htvi_step("direct", params, sphere, state, grad, f_val)
            adaptive, _ = htvi_step("adaptive", params, sphere, state, grad, f_val)
            np.testing.assert_allclose(adaptive.q, direct.q, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(adaptive.r, direct.r, rtol=1e-12, atol=1e-12)
            assert adaptive.q_t == pytest.approx(direct.q_t, rel=1e-12)
            assert adaptive.r_t == pytest.approx(direct.r_t, rel=1e-12, abs=1e-12)

    def test_sphere_multiplier_matches_bisection(self):
        from bregopt.bregman import step_coefficients

        params = BregmanParams(p=2.0, h=0.05, coeff_cap=math.inf)
        sphere = Sphere(3)
        q = np.array([1.0, 0.0, 0.0])
        r = np.array([0.0, 0.7, -0.3])
        state = ExtendedState(q=q, q_t=1.0, r=r, r_t=0.0, lam=np.zeros(1))
        out, _ = htvi_step("direct", params, sphere, state, np.zeros(3), 0.0)
        assert abs(np.linalg.norm(out.q) - 1.0) <= 1e-12

        coeffs = step_coefficients(params, 1.0, adaptive=False)
        drift = q + coeffs.position * r
        shift = coeffs.position * 2.0 * q

        def constraint_of_lam(lam):
            y = drift - shift * lam
            return float(y @ y) - 1.0

        vertex = float(drift @ shift) / float(shift @ shift)
        roots = bisection_roots(constraint_of_lam, vertex)
        assert roots
        best = min(roots, key=abs)
        assert abs(out.lam[0] - best) <= 1e-12

    def test_time_coordinate_strictly_increases(self):
        prob = make_instance("rayleigh", (6,), seed=1)
        for method in ("htvi_direct", "htvi_adaptive"):
            cfg = RunConfig(
                method=method, params=BregmanParams(p=4.0, h=1e-2), max_iters=100,
                stop_f_tol=1e-300, stop_grad_tol=1e-300,
            )
            trace = run(cfg, prob)
            assert np.all(np.diff(trace.ts) > 0.0)

    def test_momentum_constant_without_objective(self):
        params = BregmanParams(p=3.0, h=0.05, coeff_cap=math.inf)
        manifold = Unconstrained(2)
        state = ExtendedState(q=np.zeros(2), q_t=1.0, r=np.array([0.4, -0.1]),
                              r_t=0.0, lam=np.zeros(0))
        for _ in range(20):
            state, _ = htvi_step("direct", params, manifold, state, np.zeros(2), 0.0)
        np.testing.assert_array_equal(state.r, [0.4, -0.1])

    def test_stiefel_multiplier_newton_path(self):
        params = BregmanParams(p=4.0, h=1e-2)
        st = Stiefel(5, 2)
        rng = np.random.default_rng(2)
        q = st.random_point(rng)
        state = ExtendedState(q=q, q_t=1.0, r=rng.standard_normal(10) * 0.3,
                              r_t=0.0, lam=np.zeros(3))
        out, iters = htvi_step("direct", params, st, state, rng.standard_normal(10), 0.5)
        assert st.constraint_violation(out.q) <= 1e-10
        assert iters >= 1

    def test_invalid_direction(self):
        params = BregmanParams(p=2.0)
        state = ExtendedState(q=np.zeros(2), q_t=1.0, r=np.zeros(2), r_t=0.0,
                              lam=np.zeros(0))
        with pytest.raises(ValueError):
            htvi_step("sideways", params, Unconstrained(2), state, np.zeros(2), 0.0)


class TestElStep:
    def test_fixed_point_without_gradient(self):
        params = BregmanParams(p=4.0, h=1e-2)
        sphere = Sphere(3)
        x = sphere.random_point(np.random.default_rng(3))
        v = np.zeros(3)
        x1, v1 = el_step(1, params, sphere, x, v, k=5,
                         riemannian_grad=lambda point: np.zeros(3))
        np.testing.assert_array_equal(x1, x)
        np.testing.assert_array_equal(v1, np.zeros(3))

    def test_zero_damping_index_gives_pure_gradient_step(self):
        # at k = lambda p + 1 the velocity coefficient vanishes
        params = BregmanParams(p=4.0, lambda_conv=1.0, h=1e-2)
        sphere = Sphere(3)
        rng = np.random.default_rng(4)
        x = sphere.random_point(rng)
        v = sphere.random_tangent(x, rng)
        grad = sphere.random_tangent(x, rng)
        k = int(params.lambda_conv * params.p + 1.0)
        c_k = min(params.coeff_cap,
                  params.c_const * params.p ** 2 * (k * params.h) ** (params.p - 2.0))
        x1, v1 = el_step(1, params, sphere, x, v, k,
                         riemannian_grad=lambda point: grad)
        expected = sphere.retract(x, params.h * (-params.h * c_k) * grad)
        np.testing.assert_allclose(x1, expected, atol=1e-14)

    def test_versions_differ_at_second_order(self):
        # the corrected gradient changes the update by O(h^2): halving h
        # shrinks the difference about fourfold
        sphere = Sphere(4)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        prob = rayleigh(a)
        x = sphere.random_point(rng)
        v = sphere.random_tangent(x, rng)

        def rgrad(point):
            return sphere.riemannian_gradient(point, prob.ambient_grad(point))

        def difference(h):
            # p = 2 keeps the gradient coefficient independent of h, so the
            # version gap is governed by the corrected evaluation point alone
            params = BregmanParams(p=2.0, h=h, coeff_cap=math.inf)
            _, v1 = el_step(1, params, sphere, x, v, k=10, riemannian_grad=rgrad)
            _, v2 = el_step(2, params, sphere, x, v, k=10, riemannian_grad=rgrad)
            return np.linalg.norm(v1 - v2)

        ratio = difference(0.02) / difference(0.01)
        assert 3.0 <= ratio <= 5.5

    def test_capped_update_norm_bound(self):
        sphere = Sphere(4)
        rng = np.random.default_rng(6)
        params = BregmanParams(p=6.0, h=1e-2, coeff_cap=5.0)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        prob = rayleigh(a)

        def rgrad(point):
            return sphere.riemannian_gradient(point, prob.ambient_grad(point))

        for k in range(8, 40):
            x = sphere.random_point(rng)
            v = sphere.random_tangent(x, rng)
            b_k = 1.0 - (params.lambda_conv * params.p + 1.0) / k
            assert b_k >= 0.0
            _, v1 = el_step(1, params, sphere, x, v, k, riemannian_grad=rgrad)
            bound = (b_k * np.linalg.norm(v)
                     + params.h * params.coeff_cap * np.linalg.norm(rgrad(x)))
            # projection-based transport never increases the norm
            assert np.linalg.norm(v1) <= bound + 1e-12

    def test_index_validation(self):
        params = BregmanParams(p=2.0)
        sphere = Sphere(3)
        x = sphere.random_point(np.random.default_rng(7))
        with pytest.raises(ValueError):
            el_step(1, params, sphere, x, np.zeros(3), 0, lambda point: np.zeros(3))
        with pytest.raises(ValueError):
            el_step(3, params, sphere, x, np.zeros(3), 1, lambda point: np.zeros(3))

    @pytest.mark.parametrize("manifold", [Sphere(3), Stiefel(4, 2)])
    def test_transport_checks_the_start_point(self, manifold):
        # the gradient is taken elsewhere (version 2) and the retraction
        # lands on the manifold, so only the transport sees an off-manifold x
        params = BregmanParams(p=2.0, h=0.1)
        rng = np.random.default_rng(8)
        x = manifold.random_point(rng)
        v = manifold.random_tangent(x, rng)
        rgrad = lambda point: np.zeros_like(point)
        with pytest.raises(FeasibilityError):
            el_step(2, params, manifold, 1.1 * x, v, 5, rgrad)
        checked = el_step(2, params, manifold, x, v, 5, rgrad)
        unchecked = el_step(2, params, manifold, x, v, 5, rgrad, check_points=False)
        for a, b in zip(checked, unchecked):
            np.testing.assert_array_equal(a, b)


class TestRgdStep:
    def test_critical_point_fixed(self):
        prob = rayleigh(np.diag([2.0, 1.0]))
        e1 = np.array([1.0, 0.0])
        out = rgd_step(prob.manifold, e1, 0.1,
                       prob.manifold.riemannian_gradient(e1, prob.ambient_grad(e1)))
        np.testing.assert_array_equal(out, e1)

    def test_converges_to_dominant_eigenvector(self):
        prob = rayleigh(np.diag([2.0, 1.0]))
        x = prob.manifold.random_point(np.random.default_rng(8))
        for _ in range(500):
            x = rgd_step(prob.manifold, x, 0.1,
                         prob.manifold.riemannian_gradient(x, prob.ambient_grad(x)))
        assert abs(prob.f(x) - prob.oracle_value) <= 1e-6
        assert abs(abs(x[0]) - 1.0) <= 1e-3

    def test_stiefel_feasibility_each_step(self):
        prob = make_instance("brockett", (6, 2), seed=9)
        x = prob.manifold.random_point(np.random.default_rng(9))
        for _ in range(50):
            x = rgd_step(prob.manifold, x, 0.05,
                         prob.manifold.riemannian_gradient(x, prob.ambient_grad(x)))
            assert prob.manifold.constraint_violation(x) <= 1e-12


class TestRunDriver:
    def test_zero_iterations_single_row(self):
        prob = make_instance("rayleigh", (5,), seed=10)
        cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.1), max_iters=0)
        trace = run(cfg, prob)
        assert len(trace) == 1
        assert trace.ks == [0]
        assert trace.newton_iters == [None]

    def test_trace_columns_aligned_and_monotone(self):
        prob = make_instance("rayleigh", (5,), seed=10)
        cfg = RunConfig(
            method="htvi_direct", params=BregmanParams(p=4.0, h=1e-2), max_iters=20,
            stop_f_tol=1e-300, stop_grad_tol=1e-300,
        )
        trace = run(cfg, prob)
        assert trace.ks == list(range(21))
        for column in (trace.ts, trace.fs, trace.grad_norms,
                       trace.constraint_violations, trace.errors_vs_oracle,
                       trace.newton_iters):
            assert len(column) == len(trace.ks)
        assert all(v <= 1e-9 for v in trace.constraint_violations)

    def test_seeded_runs_identical(self):
        prob = make_instance("rayleigh", (6,), seed=11)
        cfg = RunConfig(method="el_v2", params=BregmanParams(p=4.0, h=1e-2),
                        max_iters=50, seed=5)
        first, second = run(cfg, prob), run(cfg, prob)
        assert first.fs == second.fs
        assert first.ts == second.ts

    def test_oracle_gap_stop(self):
        prob = make_instance("rayleigh", (6,), seed=12)
        cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.1),
                        max_iters=10000, stop_f_tol=1e-6)
        trace = run(cfg, prob)
        assert trace.errors_vs_oracle[-1] <= 1e-6
        assert trace.errors_vs_oracle[-2] > 1e-6  # the first iterate within the gap
        assert len(trace) < 10000

    def test_gradient_norm_stop(self):
        # without an oracle only the gradient norm can end the run: f may
        # round below an exact optimum, so no positive stop_f_tol is inert
        prob = dataclasses.replace(make_instance("rayleigh", (6,), seed=13), oracle_value=None)
        cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.1),
                        max_iters=10000, stop_grad_tol=1e-8, stop_f_tol=1e-300)
        trace = run(cfg, prob)
        assert trace.grad_norms[-1] <= 1e-8

    def test_failure_is_graceful(self):
        # an over-aggressive target exponent destabilizes the adaptive
        # integrator until the multiplier equation loses its real root; the
        # run must end with a marked trace instead of an exception
        prob = make_instance("rayleigh", (10,), seed=7)
        cfg = RunConfig(
            method="htvi_adaptive",
            params=BregmanParams(p=6.0, p_ring=2.0, h=1e-3),
            max_iters=100000, stop_f_tol=1e-300, stop_grad_tol=1e-300,
        )
        trace = run(cfg, prob)
        assert trace.failed
        assert trace.failure_reason
        assert len(trace) < 100000

    def test_infeasible_iterate_marks_trace_failed(self):
        # a loose multiplier tolerance leaves the first Stiefel iterate off
        # the manifold; evaluating its gradient must end the run gracefully
        prob = make_instance("brockett", (6, 2), seed=0)
        cfg = RunConfig(method="htvi_direct", params=BregmanParams(p=6.0), max_iters=100,
                        newton=NewtonConfig(tol=1e-6))
        trace = run(cfg, prob)
        assert trace.failed
        assert "violates constraint" in trace.failure_reason
        assert trace.ks == [0]

    @pytest.mark.parametrize("method", ["htvi_direct", "htvi_adaptive", "el_v1", "el_v2", "rgd"])
    @pytest.mark.parametrize("name,dims", [("rayleigh", (6,)), ("brockett", (6, 2))])
    def test_run_matches_hand_loop_of_public_steps(self, method, name, dims):
        iters = 30
        prob = make_instance(name, dims, seed=16)
        params = BregmanParams(p=4.0, h=1e-2)
        manifold = prob.manifold
        q0 = manifold.random_point(np.random.default_rng(17))

        x = q0.copy()
        ts, newton = [0.0], [None]
        if method.startswith("htvi"):
            direction = method.split("_")[1]
            state = ExtendedState.initial(q0, manifold.constraint_dim)
            ts = [state.q_t]
        elif method.startswith("el"):
            v = np.zeros_like(q0)

            def rgrad(point):
                return manifold.riemannian_gradient(point, prob.ambient_grad(point))
        fs = [prob.f(x)]
        for k in range(1, iters + 1):
            if method.startswith("htvi"):
                state, it = htvi_step(direction, params, manifold, state,
                                      prob.ambient_grad(state.q), prob.f(state.q))
                x = state.q
                ts.append(state.q_t)
                newton.append(it)
            else:
                if method == "rgd":
                    x = rgd_step(manifold, x, params.h,
                                 manifold.riemannian_gradient(x, prob.ambient_grad(x)))
                else:
                    x, v = el_step(int(method[-1]), params, manifold, x, v, k, rgrad)
                ts.append(k * params.h)
                newton.append(None)
            fs.append(prob.f(x))

        calls = []

        def counted(fun):
            def wrapper(point):
                calls.append(1)
                return fun(point)
            return wrapper

        counted_prob = dataclasses.replace(prob, f=counted(prob.f),
                                           ambient_grad=counted(prob.ambient_grad))
        cfg = RunConfig(method=method, params=params, max_iters=iters,
                        stop_f_tol=1e-300, stop_grad_tol=1e-300)
        trace = run(cfg, counted_prob, q0)
        assert not trace.failed
        assert trace.fs == fs
        assert trace.ts == ts
        assert trace.newton_iters == newton
        # one objective and one gradient evaluation per recorded iterate;
        # el_v2 adds the gradient at its look-ahead point in every step
        steps = len(trace) - 1
        assert len(calls) == 2 * len(trace) + (steps if method == "el_v2" else 0)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name,dims", [("rayleigh", (6,)), ("brockett", (6, 2))])
    def test_constraint_evaluations_per_iterate(self, method, name, dims):
        prob = make_instance(name, dims, seed=16)
        manifold = CountingSphere(*dims) if name == "rayleigh" else CountingStiefel(*dims)
        cfg = RunConfig(method=method, params=BregmanParams(p=4.0, h=1e-2), max_iters=30,
                        stop_f_tol=1e-300, stop_grad_tol=1e-300)
        trace = run(cfg, dataclasses.replace(prob, manifold=manifold),
                    manifold.random_point(np.random.default_rng(17)))
        assert not trace.failed
        assert len(trace) == 31
        # one evaluation per recorded iterate both gates its gradient and is
        # recorded; the EL transport relies on those, and el_v2 also checks
        # its look-ahead point
        per_step = 1 if method == "el_v2" else 0
        assert manifold.constraint_calls == len(trace) + per_step * (len(trace) - 1)

    @pytest.mark.parametrize("method", ["rgd", "el_v2"])
    def test_large_stiefel_never_builds_multiplier_basis(self, method):
        # the multiplier basis holds m^3 (m + 1) / 2 floats, about 400 MB
        # here; only HTVI's multiplier solve needs it
        prob = make_instance("brockett", (200, 100), seed=18)
        cfg = RunConfig(method=method, params=BregmanParams(p=2.0, h=1e-3), max_iters=3)
        trace = run(cfg, prob)
        assert not trace.failed
        assert len(trace) == 4
        assert "_basis" not in vars(prob.manifold)

    def test_htvi_builds_multiplier_basis_on_first_use(self):
        prob = make_instance("brockett", (6, 2), seed=18)
        assert "_basis" not in vars(prob.manifold)
        run(RunConfig(method="htvi_direct", params=BregmanParams(p=4.0), max_iters=2), prob)
        assert vars(prob.manifold)["_basis"].shape == (3, 2, 2)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(method="sgd", params=BregmanParams(p=2.0))

    @pytest.mark.parametrize("stop_f_tol", [0.0, -1e-6])
    def test_non_positive_stop_f_tol_rejected(self, stop_f_tol):
        with pytest.raises(ValueError):
            RunConfig(method="rgd", params=BregmanParams(p=2.0), stop_f_tol=stop_f_tol)


# Digests of the first 500 iterations at the CLI defaults, seed 0 (numpy 2.4
# with OpenBLAS on x86-64); a change that alters any rounding on the way
# changes them.
GOLDEN_DIGESTS = {
    "rayleigh": {
        "htvi_direct": "0aaf6389aa54b992",
        "htvi_adaptive": "f79adb21ef368b3a",
        "el_v1": "6f8c10ac35c78eda",
        "el_v2": "8b1d3ed7de7c888f",
        "rgd": "898196cfd39d65f5",
    },
    "brockett": {
        "htvi_direct": "5186d29b065d5c9f",
        "htvi_adaptive": "a67393418f983d99",
        "el_v1": "6b0550a3db366d79",
        "el_v2": "f2b4e8958b624887",
        "rgd": "fe2cfb467e93c8f9",
    },
    "procrustes": {
        "htvi_direct": "18b43fa1f2369fea",
        "htvi_adaptive": "a264c52d37d5aabb",
        "el_v1": "8748c606de70c5eb",
        "el_v2": "fd02b1a153bc9134",
        "rgd": "a3359a577e6855b6",
    },
}


class TestGoldenTrajectories:
    @pytest.mark.parametrize("name", sorted(DEFAULT_DIMS))
    def test_default_problem_traces_are_bit_identical(self, name):
        problem = build_problem({"name": name})
        initial = problem.manifold.random_point(np.random.default_rng(0))
        digests = {}
        for method in METHODS:
            trace = run(build_run_config({"method": method, "max_iters": 500}),
                        problem, initial)
            assert not trace.failed
            assert len(trace) == 501
            digests[method] = trace_digest(trace)
        assert digests == GOLDEN_DIGESTS[name]
