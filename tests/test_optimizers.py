"""Tests of the HTVI / Euler-Lagrange / gradient-descent iteration engines."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from bregopt.bregman import BregmanParams, ExtendedState
from bregopt.cli import DEFAULT_DIMS, build_problem, build_run_config
from bregopt.errors import DimensionError, FeasibilityError, NewtonError
from bregopt import manifolds, optimizers
from bregopt.manifolds import NEWTON_MAX_ITER, NEWTON_TOL, Sphere, Stiefel
from bregopt.optimizers import METHODS, RunConfig, el_step, htvi_step, rgd_step, run
from bregopt.problems import make_instance, rayleigh

from digests import trace_digest
from reference_geometry import (
    Unconstrained,
    constraint_jacobian,
    newton_solve,
    random_tangent,
)


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


def dense_multiplier(manifold, drift, q, coeff, lam0):
    """Multiplier solve through the dense constraint Jacobian: Newton on
    ``C(drift - coeff J(q)^T lam) = 0`` with the Jacobian
    ``-J(y) coeff J(q)^T``, to the package's solve tolerance and budget
    (reference for ``solve_multiplier``)."""
    jac_t = constraint_jacobian(manifold, q).T
    shift = coeff * jac_t

    def residual(lam):
        return manifold.constraint(drift - shift @ lam)

    def jacobian(lam):
        return -constraint_jacobian(manifold, drift - shift @ lam) @ shift

    result = newton_solve(residual, jacobian, lam0, manifolds.NEWTON_TOL,
                          manifolds.NEWTON_MAX_ITER)
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

    def solve_multiplier(self, drift, q, coeff, lam0):
        return dense_multiplier(self, drift, q, coeff, lam0)


class CountsConstraint:
    """Mixin that counts constraint evaluations: calls of ``constraint`` and
    of ``constraint_violation``, which evaluates the constraint itself."""

    constraint_calls = 0

    def constraint(self, q):
        self.constraint_calls += 1
        return super().constraint(q)

    def constraint_violation(self, q):
        self.constraint_calls += 1
        return super().constraint_violation(q)


class DriftingSphere(Sphere):
    """Sphere whose retraction lands 10% off the sphere and reports it."""

    def retract(self, q, v):
        point = 1.1 * super().retract(q, v)[0]
        return point, self.constraint_violation(point)


class CountingSphere(CountsConstraint, Sphere):
    pass


class CountingStiefel(CountsConstraint, Stiefel):
    pass


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
            lam, normal, iters = st.solve_multiplier(drift, q, coeff, lam0)
            ref_lam, ref_normal, _ = dense_multiplier(st, drift, q, coeff, lam0)
            assert 1 <= iters <= NEWTON_MAX_ITER
            assert st.constraint_violation(q + coeff * (base - normal)) <= NEWTON_TOL
            # both solves stop with max |F| <= tol and T = coeff S moves F
            # about twice as fast, so the multipliers agree to tol / coeff
            # (measured: at most 0.35 of it)
            atol = NEWTON_TOL / coeff
            np.testing.assert_allclose(lam, ref_lam, rtol=0, atol=atol)
            np.testing.assert_allclose(normal, ref_normal, rtol=0, atol=atol)

    def test_stiefel_failure_is_newton_error(self, monkeypatch):
        # a drift far from any point the normals can reach: the exact step
        # finds no real multiplier, and the solve stops there
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 5)
        st = Stiefel(6, 2)
        q = st.random_point(np.random.default_rng(1))
        with pytest.raises(NewtonError, match="Newton did not converge") as info:
            st.solve_multiplier(q + 50.0, q, 1e-3, np.zeros(3))
        assert "unreachable" in str(info.value)
        assert info.value.iterations < 5

    @pytest.mark.parametrize("shift", [1e200, math.inf, math.nan])
    def test_stiefel_non_finite_residual_is_newton_error(self, shift):
        # a residual that overflows or is NaN ends the solve without a warning
        st = Stiefel(6, 2)
        q = st.random_point(np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonError, match="Newton did not converge in 0 iterations"):
                st.solve_multiplier(q + shift, q, 1e-3, np.zeros(3))

    def test_stiefel_budget_exhaustion(self, monkeypatch):
        # with no fixed-point budget left, a reachable drift is solved by the
        # exact invariant-subspace step alone
        st = Stiefel(6, 2)
        rng = np.random.default_rng(2)
        q = st.random_point(rng)
        base = rng.standard_normal(12)
        coeff = 0.2
        drift = q + coeff * base
        ref_lam, ref_normal, _ = dense_multiplier(st, drift, q, coeff, np.zeros(3))
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 0)
        lam, normal, iters = st.solve_multiplier(drift, q, coeff, np.zeros(3))
        assert iters == 1
        assert st.constraint_violation(q + coeff * (base - normal)) <= NEWTON_TOL
        atol = NEWTON_TOL / coeff
        np.testing.assert_allclose(lam, ref_lam, rtol=0, atol=atol)
        np.testing.assert_allclose(normal, ref_normal, rtol=0, atol=atol)

    def test_sphere_bit_equal_to_closed_form(self):
        sphere = Sphere(5)
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = sphere.random_point(rng)
            coeff = float(rng.uniform(1e-4, 0.5))
            drift = q + coeff * rng.standard_normal(5)
            lam, normal, iters = sphere.solve_multiplier(drift, q, coeff, np.zeros(1))
            jac_t = constraint_jacobian(sphere, q).T
            ref = np.array([closed_form_sphere_multiplier(drift, coeff * jac_t[:, 0])])
            np.testing.assert_array_equal(lam, ref)
            np.testing.assert_array_equal(normal, jac_t @ ref)
            assert iters == 0

    def test_sphere_degenerate_cases(self):
        sphere = Sphere(3)
        q = np.array([1.0, 0.0, 0.0])
        # no step at all: a feasible drift needs no multiplier ...
        lam, normal, _ = sphere.solve_multiplier(q, q, 0.0, np.zeros(1))
        np.testing.assert_array_equal(lam, [closed_form_sphere_multiplier(q, 0.0 * q)])
        np.testing.assert_array_equal(lam, [0.0])
        np.testing.assert_array_equal(normal, np.zeros(3))
        # ... and an infeasible one cannot be corrected
        drift = np.array([2.0, 0.0, 0.0])
        for solve in (lambda: sphere.solve_multiplier(drift, q, 0.0, np.zeros(1)),
                      lambda: closed_form_sphere_multiplier(drift, 0.0 * q)):
            with pytest.raises(NewtonError, match="degenerate"):
                solve()

    def test_sphere_negative_discriminant(self):
        # the normal direction at q misses the sphere from this drift
        sphere = Sphere(3)
        q = np.array([1.0, 0.0, 0.0])
        drift = np.array([0.0, 2.0, 0.0])
        with pytest.raises(NewtonError) as ours:
            sphere.solve_multiplier(drift, q, 0.1, np.zeros(1))
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
        assert max(trace.newton_iters[1:]) <= NEWTON_MAX_ITER
        assert max(trace.constraint_violations) <= 1e-9
        # the two solves stop at different points within NEWTON_TOL; the
        # largest gap measured over the four runs is 1.1e-8
        np.testing.assert_allclose(trace.fs, reference.fs, rtol=0, atol=3e-8)


    @pytest.mark.parametrize("name,method,seed,rows", [
        ("brockett", "htvi_adaptive", 0, 1487),
        ("procrustes", "htvi_direct", 0, 4019),
        ("procrustes", "htvi_adaptive", 0, 1249),
        ("procrustes", "htvi_direct", 9, 4043),
        ("procrustes", "htvi_direct", 5, 4100),
    ])
    def test_default_failures_are_classified_unreachable(self, name, method, seed, rows):
        # at these steps the multiplier equation loses its real solutions;
        # the solve stops there, before its iterates overflow
        problem = build_problem({"name": name, "seed": seed})
        initial = problem.manifold.random_point(np.random.default_rng(seed))
        config = build_run_config({"method": method, "max_iters": 12000})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(config, problem, initial)
        assert trace.failed
        assert len(trace) == rows
        assert "Newton did not converge" in trace.failure_reason
        assert "unreachable" in trace.failure_reason
        assert max(trace.constraint_violations) <= 1e-9


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

    def test_wrong_length_multiplier_is_not_replaced(self):
        # state.lam warm starts the solve as it is: the multiplier of a step
        # lands the same step again at once, and one of the wrong length is
        # an error, not a silent cold start
        params = BregmanParams(p=4.0, h=1e-2)
        st = Stiefel(5, 2)
        rng = np.random.default_rng(2)
        state = ExtendedState(q=st.random_point(rng), q_t=1.0,
                              r=rng.standard_normal(10) * 0.3, r_t=0.0, lam=np.zeros(3))
        grad = rng.standard_normal(10)
        cold, iters = htvi_step("direct", params, st, state, grad, 0.5)
        assert iters >= 1
        warm, iters = htvi_step("direct", params, st, dataclasses.replace(state, lam=cold.lam),
                                grad, 0.5)
        assert iters == 0
        np.testing.assert_array_equal(warm.q, cold.q)
        with pytest.raises(ValueError):
            htvi_step("direct", params, st, dataclasses.replace(state, lam=np.zeros(2)),
                      grad, 0.5)

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
        x1, v1, violation = el_step(1, params, sphere, x, v, k=5,
                                    riemannian_grad=lambda point: np.zeros(3))
        np.testing.assert_array_equal(x1, x)
        np.testing.assert_array_equal(v1, np.zeros(3))
        assert violation == sphere.constraint_violation(x1)

    def test_zero_damping_index_gives_pure_gradient_step(self):
        # at k = lambda p + 1 the velocity coefficient vanishes
        params = BregmanParams(p=4.0, lambda_conv=1.0, h=1e-2)
        sphere = Sphere(3)
        rng = np.random.default_rng(4)
        x = sphere.random_point(rng)
        v = random_tangent(sphere, x, rng)
        grad = random_tangent(sphere, x, rng)
        k = int(params.lambda_conv * params.p + 1.0)
        c_k = min(params.coeff_cap,
                  params.c_const * params.p ** 2 * (k * params.h) ** (params.p - 2.0))
        x1, v1, _ = el_step(1, params, sphere, x, v, k,
                            riemannian_grad=lambda point: grad)
        expected, _ = sphere.retract(x, params.h * (-params.h * c_k) * grad)
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
        v = random_tangent(sphere, x, rng)

        def rgrad(point):
            return sphere.tangent_project(point, prob.ambient_grad(point))

        def difference(h):
            # p = 2 keeps the gradient coefficient independent of h, so the
            # version gap is governed by the corrected evaluation point alone
            params = BregmanParams(p=2.0, h=h, coeff_cap=math.inf)
            _, v1, _ = el_step(1, params, sphere, x, v, k=10, riemannian_grad=rgrad)
            _, v2, _ = el_step(2, params, sphere, x, v, k=10, riemannian_grad=rgrad)
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
            return sphere.tangent_project(point, prob.ambient_grad(point))

        for k in range(8, 40):
            x = sphere.random_point(rng)
            v = random_tangent(sphere, x, rng)
            b_k = 1.0 - (params.lambda_conv * params.p + 1.0) / k
            assert b_k >= 0.0
            _, v1, _ = el_step(1, params, sphere, x, v, k, riemannian_grad=rgrad)
            bound = (b_k * np.linalg.norm(v)
                     + params.h * params.coeff_cap * np.linalg.norm(rgrad(x)))
            # projection-based transport never increases the norm
            assert np.linalg.norm(v1) <= bound + 1e-12

    def test_infeasible_look_ahead_raises(self):
        # version 2 gates its look-ahead point on the violation its
        # retraction reports; version 1 hands the new point's violation back
        params = BregmanParams(p=4.0, h=1e-2)
        sphere = DriftingSphere(3)
        rng = np.random.default_rng(8)
        x = Sphere(3).random_point(rng)
        v = random_tangent(sphere, x, rng)
        *_, violation = el_step(1, params, sphere, x, v, 10, lambda point: np.zeros(3))
        assert violation == pytest.approx(0.21)
        with pytest.raises(FeasibilityError, match="violates constraint by 2.100e-01"):
            el_step(2, params, sphere, x, v, 10, lambda point: np.zeros(3))

    def test_index_validation(self):
        params = BregmanParams(p=2.0)
        sphere = Sphere(3)
        x = sphere.random_point(np.random.default_rng(7))
        with pytest.raises(ValueError):
            el_step(1, params, sphere, x, np.zeros(3), 0, lambda point: np.zeros(3))
        with pytest.raises(ValueError):
            el_step(3, params, sphere, x, np.zeros(3), 1, lambda point: np.zeros(3))


class TestRgdStep:
    def test_critical_point_fixed(self):
        prob = rayleigh(np.diag([2.0, 1.0]))
        e1 = np.array([1.0, 0.0])
        out, violation = rgd_step(prob.manifold, e1, 0.1,
                                  prob.manifold.tangent_project(e1, prob.ambient_grad(e1)))
        np.testing.assert_array_equal(out, e1)
        assert violation == 0.0

    def test_converges_to_dominant_eigenvector(self):
        prob = rayleigh(np.diag([2.0, 1.0]))
        x = prob.manifold.random_point(np.random.default_rng(8))
        for _ in range(500):
            x, _ = rgd_step(prob.manifold, x, 0.1,
                            prob.manifold.tangent_project(x, prob.ambient_grad(x)))
        assert abs(prob.value_and_grad(x)[0] - prob.oracle_value) <= 1e-6
        assert abs(abs(x[0]) - 1.0) <= 1e-3

    def test_stiefel_feasibility_each_step(self):
        prob = make_instance("brockett", (6, 2), seed=9)
        x = prob.manifold.random_point(np.random.default_rng(9))
        for _ in range(50):
            x, violation = rgd_step(prob.manifold, x, 0.05,
                                    prob.manifold.tangent_project(x, prob.ambient_grad(x)))
            assert violation == prob.manifold.constraint_violation(x) <= 1e-12


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
                        max_iters=50)
        initial = prob.manifold.random_point(np.random.default_rng(5))
        first, second = run(cfg, prob, initial), run(cfg, prob, initial)
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

    def test_infeasible_iterate_marks_trace_failed(self, monkeypatch):
        # a loose multiplier tolerance leaves the first Stiefel iterate off
        # the manifold; evaluating its gradient must end the run gracefully
        monkeypatch.setattr(manifolds, "NEWTON_TOL", 1e-6)
        prob = make_instance("brockett", (6, 2), seed=0)
        cfg = RunConfig(method="htvi_direct", params=BregmanParams(p=6.0), max_iters=100)
        trace = run(cfg, prob)
        assert trace.failed
        assert "violates constraint" in trace.failure_reason
        assert trace.ks == [0]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name,dims", [("rayleigh", (6,)), ("brockett", (6, 2))])
    @pytest.mark.parametrize("start,violation", [("nan", "nan"), ("scaled", "2.100e-01")])
    def test_infeasible_initial_point_fails_at_the_gate(self, method, name, dims, start,
                                                        violation):
        # the feasibility gate, not a later finiteness check, stops the run
        # before any row is recorded
        prob = make_instance(name, dims, seed=0)
        initial = prob.manifold.random_point(np.random.default_rng(1))
        if start == "nan":
            initial[0] = np.nan
        else:
            initial *= 1.1  # |X^T X - I| = 1.1^2 - 1
        trace = run(RunConfig(method=method, params=BregmanParams(p=4.0)), prob, initial)
        assert trace.failed
        assert trace.failure_reason == (f"{prob.manifold.name}: point violates constraint "
                                        f"by {violation} (tolerance 1.0e-08)")
        assert len(trace) == 0

    @pytest.mark.parametrize("method", ["el_v1", "el_v2", "rgd"])
    def test_infeasible_retraction_fails_at_the_gate(self, method):
        # the gate reads the violation the step's retraction reports
        prob = make_instance("rayleigh", (6,), seed=0)
        trace = run(RunConfig(method=method, params=BregmanParams(p=4.0), max_iters=5),
                    dataclasses.replace(prob, manifold=DriftingSphere(6)))
        assert trace.failed
        assert "sphere:6: point violates constraint by 2.100e-01" in trace.failure_reason
        assert len(trace) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("method,part", [
        ("htvi_direct", "r"), ("htvi_adaptive", "r_t"), ("el_v1", "v"), ("el_v2", "x"),
        ("rgd", "x"),
    ])
    def test_non_finite_step_marks_trace_failed(self, method, part, bad, monkeypatch):
        # one bad entry in one part of the new state ends the run
        def corrupt(array):
            array = array.copy()
            array[0] = bad
            return array

        if method.startswith("htvi"):
            step = optimizers.htvi_step

            def bad_step(*args):
                state, iters = step(*args)
                value = corrupt(state.r) if part == "r" else bad
                return dataclasses.replace(state, **{part: value}), iters
            monkeypatch.setattr(optimizers, "htvi_step", bad_step)
        elif method.startswith("el"):
            step = optimizers.el_step

            def bad_step(*args):
                x, v, violation = step(*args)
                return ((corrupt(x), v, violation) if part == "x"
                        else (x, corrupt(v), violation))
            monkeypatch.setattr(optimizers, "el_step", bad_step)
        else:
            step = optimizers.rgd_step

            def bad_step(*args):
                x, violation = step(*args)
                return corrupt(x), violation
            monkeypatch.setattr(optimizers, "rgd_step", bad_step)
        prob = make_instance("rayleigh", (6,), seed=0)
        trace = run(RunConfig(method=method, params=BregmanParams(p=4.0), max_iters=5), prob)
        assert trace.failed
        assert trace.failure_reason == "non-finite state"
        assert len(trace) == 1

    @pytest.mark.parametrize("name,dims", [("rayleigh", (6,)), ("brockett", (6, 2))])
    def test_wrong_length_initial_point_raises(self, name, dims):
        prob = make_instance(name, dims, seed=0)
        initial = prob.manifold.random_point(np.random.default_rng(1))
        for bad in (initial[:-1], np.append(initial, 0.0), initial.reshape(1, -1)):
            with pytest.raises(DimensionError):
                run(RunConfig(method="rgd", params=BregmanParams(p=4.0)), prob, bad)

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
                return manifold.tangent_project(point, prob.ambient_grad(point))
        fs = [prob.value_and_grad(x)[0]]
        for k in range(1, iters + 1):
            if method.startswith("htvi"):
                f_val, grad = prob.value_and_grad(state.q)
                state, it = htvi_step(direction, params, manifold, state, grad, f_val)
                x = state.q
                ts.append(state.q_t)
                newton.append(it)
            else:
                if method == "rgd":
                    x, _ = rgd_step(manifold, x, params.h,
                                    manifold.tangent_project(x, prob.ambient_grad(x)))
                else:
                    x, v, _ = el_step(int(method[-1]), params, manifold, x, v, k, rgrad)
                ts.append(k * params.h)
                newton.append(None)
            fs.append(prob.value_and_grad(x)[0])

        calls = []

        def counted(field):
            fun = getattr(prob, field)

            def wrapper(point):
                calls.append(field)
                return fun(point)
            return wrapper

        fields = ("ambient_grad", "value_and_grad")
        counted_prob = dataclasses.replace(prob, **{field: counted(field) for field in fields})
        cfg = RunConfig(method=method, params=params, max_iters=iters,
                        stop_f_tol=1e-300, stop_grad_tol=1e-300)
        trace = run(cfg, counted_prob, q0)
        assert not trace.failed
        assert trace.fs == fs
        assert trace.ts == ts
        assert trace.newton_iters == newton
        # one objective evaluation (value and gradient together) per
        # recorded iterate; el_v2 adds the gradient at its look-ahead point
        # in every step
        steps = len(trace) - 1
        assert calls.count("value_and_grad") == len(trace)
        assert calls.count("ambient_grad") == (steps if method == "el_v2" else 0)

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
        # the initial point is evaluated once; a retraction reports the
        # violation of every point it builds, the look-ahead of el_v2
        # included, so only an HTVI step evaluates the constraint again
        per_step = 1 if method.startswith("htvi") else 0
        assert manifold.constraint_calls == 1 + per_step * (len(trace) - 1)

    @pytest.mark.parametrize("method", METHODS)
    def test_large_stiefel_stays_on_the_manifold(self, method):
        # m = 40: the HTVI multiplier solve works on m x m matrices
        prob = make_instance("brockett", (200, 40), seed=18)
        cfg = RunConfig(method=method, params=BregmanParams(p=6.0, h=1e-3), max_iters=3)
        trace = run(cfg, prob)
        assert not trace.failed
        assert len(trace) == 4
        assert max(trace.constraint_violations) <= 1e-9

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(method="sgd", params=BregmanParams(p=2.0))

    @pytest.mark.parametrize("stop_f_tol", [0.0, -1e-6])
    def test_non_positive_stop_f_tol_rejected(self, stop_f_tol):
        with pytest.raises(ValueError):
            RunConfig(method="rgd", params=BregmanParams(p=2.0), stop_f_tol=stop_f_tol)

    @pytest.mark.parametrize("field", ["stop_grad_tol", "stop_f_tol"])
    def test_nan_stop_tolerance_rejected(self, field):
        # a NaN tolerance would never stop a run
        with pytest.raises(ValueError):
            RunConfig(method="rgd", params=BregmanParams(p=2.0), **{field: math.nan})


# Digests of the first 500 iterations at the CLI defaults, seed 0 (numpy 2.4
# with single-threaded OpenBLAS on x86-64, as tests/conftest.py pins it); a
# change that alters any rounding on the way changes them.
GOLDEN_DIGESTS = {
    "rayleigh": {
        "htvi_direct": "1507e2a2900c157e",
        "htvi_adaptive": "2f7347a94f5075d1",
        "el_v1": "9c8fe0f20ab20c21",
        "el_v2": "26e6d21085c59b50",
        "rgd": "aa31c9c98489d11e",
    },
    "brockett": {
        "htvi_direct": "d8d87a5fc29cc8c5",
        "htvi_adaptive": "c5e398093730fcb7",
        "el_v1": "d63fb73299d909ac",
        "el_v2": "fdaa6886c4e0cff2",
        "rgd": "8c3e622b22c03f4f",
    },
    "procrustes": {
        "htvi_direct": "06ab4a9fa2057c94",
        "htvi_adaptive": "e7d022d9eccbc364",
        "el_v1": "87b9f32e5d270855",
        "el_v2": "3b4d72f4c388ff5c",
        "rgd": "b26c47afba8aa9f6",
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
