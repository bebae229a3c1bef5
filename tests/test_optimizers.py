"""Tests of the HTVI / Euler-Lagrange / gradient-descent iteration engines."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from bregopt.bregman import BregmanParams, ExtendedState
from bregopt.cli import DEFAULT_DIMS, build_problem, build_run_config
from bregopt.errors import DimensionError, FeasibilityError, NewtonError
from bregopt import bregman, manifolds, optimizers
from bregopt.manifolds import NEWTON_MAX_ITER, NEWTON_TOL, Sphere, Stiefel
from bregopt.optimizers import METHODS, RunConfig, el_step, htvi_step, rgd_step, run
from bregopt.problems import make_instance, rayleigh

from digests import trace_digest
from reference_geometry import (
    Unconstrained,
    constraint,
    constraint_count,
    constraint_jacobian,
    manifold_id,
    newton_solve,
    packed,
    random_tangent,
    unpacked,
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
    (reference for ``solve_multiplier``).  ``lam0`` and the ``lam`` returned
    are the ``d`` components of the multiplier along the Jacobian's rows
    (:func:`packed`)."""
    jac_t = constraint_jacobian(manifold, q).T
    shift = coeff * jac_t

    def residual(lam):
        return constraint(manifold, drift - shift @ lam)

    def jacobian(lam):
        return -constraint_jacobian(manifold, drift - shift @ lam) @ shift

    result = newton_solve(residual, jacobian, lam0, manifolds.NEWTON_TOL,
                          manifolds.NEWTON_MAX_ITER)
    point = drift - shift @ result.x
    return (result.x, jac_t @ result.x, point, manifold.constraint_violation(point),
            result.iterations)


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
    """Stiefel manifold whose multiplier solve uses the dense reference, so
    its multiplier is the ``d`` components of the dense solve."""

    def solve_multiplier(self, drift, q, coeff, lam0):
        if lam0 is None:
            lam0 = np.zeros(constraint_count(self))
        return dense_multiplier(self, drift, q, coeff, lam0)


class CountsConstraint:
    """Mixin that counts constraint evaluations, the calls of
    ``constraint_violation``."""

    constraint_calls = 0

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
            lam0 = 0.1 * rng.standard_normal(constraint_count(st)) if warm \
                else np.zeros(constraint_count(st))
            drift = q + coeff * base
            lam, normal, _, _, iters = st.solve_multiplier(drift, q, coeff, unpacked(st, lam0))
            ref_lam, ref_normal, *_ = dense_multiplier(st, drift, q, coeff, lam0)
            assert 1 <= iters <= NEWTON_MAX_ITER
            assert st.constraint_violation(q + coeff * (base - normal)) <= NEWTON_TOL
            # both solves stop with max |F| <= tol and T = coeff S moves F
            # about twice as fast, so the multipliers agree to tol / coeff
            # (measured: at most 0.35 of it)
            atol = NEWTON_TOL / coeff
            np.testing.assert_allclose(packed(st, lam), ref_lam, rtol=0, atol=atol)
            np.testing.assert_allclose(normal, ref_normal, rtol=0, atol=atol)

    def test_stiefel_failure_is_newton_error(self, monkeypatch):
        # a drift far from any point the normals can reach: the exact step
        # finds no real multiplier, and the solve stops there
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 5)
        st = Stiefel(6, 2)
        q = st.random_point(np.random.default_rng(1))
        with pytest.raises(NewtonError, match="Newton did not converge") as info:
            st.solve_multiplier(q + 50.0, q, 1e-3, None)
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
                st.solve_multiplier(q + shift, q, 1e-3, None)

    def test_stiefel_budget_exhaustion(self, monkeypatch):
        # with no fixed-point budget left, a reachable drift is solved by the
        # exact invariant-subspace step alone
        st = Stiefel(6, 2)
        rng = np.random.default_rng(2)
        q = st.random_point(rng)
        base = rng.standard_normal(12)
        coeff = 0.2
        drift = q + coeff * base
        ref_lam, ref_normal, *_ = dense_multiplier(st, drift, q, coeff, np.zeros(3))
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 0)
        lam, normal, _, _, iters = st.solve_multiplier(drift, q, coeff, None)
        assert iters == 1
        assert st.constraint_violation(q + coeff * (base - normal)) <= NEWTON_TOL
        atol = NEWTON_TOL / coeff
        np.testing.assert_allclose(packed(st, lam), ref_lam, rtol=0, atol=atol)
        np.testing.assert_allclose(normal, ref_normal, rtol=0, atol=atol)

    def test_sphere_bit_equal_to_closed_form(self):
        sphere = Sphere(5)
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = sphere.random_point(rng)
            coeff = float(rng.uniform(1e-4, 0.5))
            drift = q + coeff * rng.standard_normal(5)
            lam, normal, _, _, iters = sphere.solve_multiplier(drift, q, coeff, np.zeros(1))
            jac_t = constraint_jacobian(sphere, q).T
            ref = np.array([closed_form_sphere_multiplier(drift, coeff * jac_t[:, 0])])
            np.testing.assert_array_equal(lam, ref)
            np.testing.assert_array_equal(normal, jac_t @ ref)
            assert iters == 0

    def test_sphere_bit_equal_to_the_doubled_gradient_form(self):
        # the solve scales q by 2 coeff and 2 lam; doubling is exact, so
        # lam and the normal keep the bits of the form that builds 2 q
        def doubled_gradient_form(drift, q, coeff):
            grad = 2.0 * q
            lam = manifolds._sphere_multiplier(drift, coeff * grad)
            return np.array([lam]), grad * lam

        def outcome(solve):
            try:
                lam, normal = solve()[:2]
            except NewtonError as exc:
                return "raised", str(exc)
            return lam.tobytes(), normal.tobytes()

        sphere = Sphere(6)
        rng = np.random.default_rng(31)
        # the last point has entries of 1e-10, whose products with 2e-300
        # are subnormal
        points = [sphere.random_point(rng) for _ in range(40)]
        points.append(np.array([1e-10, -1e-10, 1.0, 0.0, -0.0, 1e-10]))
        raised = 0
        for q in points:
            for coeff in (0.0, 1e-300, float(rng.uniform(1e-4, 0.5)), 3.0):
                for drift in (q, q + coeff * rng.standard_normal(6),
                              q + rng.standard_normal(6), 3.0 * rng.standard_normal(6)):
                    ours = outcome(lambda: sphere.solve_multiplier(drift, q, coeff,
                                                                   np.zeros(1)))
                    assert ours == outcome(lambda: doubled_gradient_form(drift, q, coeff))
                    raised += ours[0] == "raised"
        # the unreachable case raises the same text
        q, drift = np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
        ours = outcome(lambda: Sphere(3).solve_multiplier(drift, q, 0.1, np.zeros(1)))
        assert ours == outcome(lambda: doubled_gradient_form(drift, q, 0.1))
        assert "unreachable" in ours[1]
        assert raised

    def test_sphere_degenerate_cases(self):
        sphere = Sphere(3)
        q = np.array([1.0, 0.0, 0.0])
        # no step at all: a feasible drift needs no multiplier ...
        lam, normal, *_ = sphere.solve_multiplier(q, q, 0.0, np.zeros(1))
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


    @pytest.mark.parametrize("name,method,seed", [
        ("brockett", "htvi_adaptive", 0),
        ("procrustes", "htvi_direct", 0),
        ("procrustes", "htvi_adaptive", 0),
        ("procrustes", "htvi_direct", 9),
        ("procrustes", "htvi_direct", 5),
    ])
    def test_default_configs_reach_the_target_on_the_manifold(self, name, method, seed):
        # with no momentum restart these runs leave the explicit step's
        # stability envelope and lose the multiplier root, at k = 1487, 4019,
        # 1249, 4043 and 4100
        problem = build_problem({"name": name, "seed": seed})
        initial = problem.manifold.random_point(np.random.default_rng(seed))
        block = {"method": method, "max_iters": 12000}
        block["stop_f_tol" if problem.oracle_value is not None else "stop_grad_tol"] = 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(build_run_config(block), problem, initial)
        assert not trace.failed, trace.failure_reason
        assert len(trace) < 12001
        assert max(trace.constraint_violations) <= 1e-9

    def test_unreachable_failure_is_classified(self):
        # at ten times the default step the second step's multiplier
        # equation has no real solution, restart or not; the solve stops
        # there, before its iterates overflow
        problem = build_problem({"name": "procrustes", "seed": 0})
        initial = problem.manifold.random_point(np.random.default_rng(0))
        config = build_run_config({"method": "htvi_adaptive", "h": 1e-2, "max_iters": 12000})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(config, problem, initial)
        assert trace.failed
        assert len(trace) == 2
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

    def test_time_coordinate_increases_except_at_restarts(self):
        # a restart sets q_t back to 1, so the step after it lands on the
        # first step's time coordinate
        prob = make_instance("rayleigh", (6,), seed=1)
        for method in ("htvi_direct", "htvi_adaptive"):
            cfg = RunConfig(
                method=method, params=BregmanParams(p=4.0, h=1e-2), max_iters=100,
                stop_f_tol=1e-300, stop_grad_tol=1e-300,
            )
            ts = run(cfg, prob).ts
            drops = [k for k in range(1, len(ts)) if not ts[k] > ts[k - 1]]
            assert drops
            assert all(ts[k] == ts[1] for k in drops)
            assert all(ts[k] > ts[k - 1] for k in range(1, len(ts)) if k not in drops)

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
                              r_t=0.0, lam=None)
        out, iters = htvi_step("direct", params, st, state, rng.standard_normal(10), 0.5)
        assert st.constraint_violation(out.q) <= 1e-10
        assert iters >= 1

    @pytest.mark.parametrize("manifold", [Sphere(6), Stiefel(5, 2)], ids=manifold_id)
    def test_state_holds_the_solve_landing(self, manifold, monkeypatch):
        # the new position is the point the multiplier solve lands on, and
        # the state keeps the violation the solve reported for it
        landings = []
        solve = manifold.solve_multiplier

        def recording_solve(*args):
            result = solve(*args)
            landings.append((result[2].copy(), result[3]))
            return result
        monkeypatch.setattr(manifold, "solve_multiplier", recording_solve)
        rng = np.random.default_rng(12)
        n = manifold.ambient_dim
        state = ExtendedState.initial(manifold.random_point(rng))
        assert math.isnan(state.violation)
        state = dataclasses.replace(state, r=0.3 * rng.standard_normal(n))
        for direction in ("direct", "adaptive", "direct"):
            state, _ = htvi_step(direction, BregmanParams(p=4.0, h=1e-2), manifold, state,
                                 rng.standard_normal(n), 0.5)
            point, violation = landings[-1]
            assert state.q.tobytes() == point.tobytes()
            assert type(state.violation) is float
            assert state.violation.hex() == violation.hex()
            assert state.violation <= NEWTON_TOL

    def test_wrong_length_multiplier_is_not_replaced(self):
        # state.lam warm starts the solve as it is: the multiplier of a step
        # lands the same step again at once, and one of the wrong length,
        # such as the 3 constraint components, is an error, not a silent
        # cold start
        params = BregmanParams(p=4.0, h=1e-2)
        st = Stiefel(5, 2)
        rng = np.random.default_rng(2)
        state = ExtendedState(q=st.random_point(rng), q_t=1.0,
                              r=rng.standard_normal(10) * 0.3, r_t=0.0, lam=None)
        grad = rng.standard_normal(10)
        cold, iters = htvi_step("direct", params, st, state, grad, 0.5)
        assert iters >= 1
        warm, iters = htvi_step("direct", params, st, dataclasses.replace(state, lam=cold.lam),
                                grad, 0.5)
        assert iters == 0
        np.testing.assert_array_equal(warm.q, cold.q)
        for wrong in (np.zeros(2), np.zeros(3)):
            with pytest.raises(ValueError):
                htvi_step("direct", params, st, dataclasses.replace(state, lam=wrong),
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
            return sphere.tangent_project(point, prob.value_and_grad(point)[1])

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
            return sphere.tangent_project(point, prob.value_and_grad(point)[1])

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

    @pytest.mark.parametrize("entries", [
        [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, math.nan, -0.0], [0.0, 1e-320, 0.0],
    ])
    def test_version_two_looks_ahead_exactly_when_v_any(self, entries):
        # the look-ahead is the first retraction; a NaN velocity takes it and
        # fails its feasibility gate
        events = []

        class RecordingSphere(Sphere):
            def retract(self, q, step):
                events.append("retract")
                return super().retract(q, step)

        def rgrad(point):
            events.append("grad")
            return np.zeros(3)

        v = np.array(entries)
        x = Sphere(3).random_point(np.random.default_rng(10))
        try:
            el_step(2, BregmanParams(p=4.0, h=1e-2), RecordingSphere(3), x, v, 10, rgrad)
        except FeasibilityError:
            assert math.isnan(entries[1])
        assert (events[0] == "retract") == bool(v.any())

    def test_overflowing_coefficient_saturates_at_the_cap(self):
        # (k h)^(p - 2) leaves the float range from k h ~ 36 on when p = 200
        params = BregmanParams(p=200.0, h=0.01)
        sphere = Sphere(3)
        rng = np.random.default_rng(9)
        x = sphere.random_point(rng)
        grad = random_tangent(sphere, x, rng)
        x1, _, _ = el_step(1, params, sphere, x, np.zeros(3), 4000,
                           riemannian_grad=lambda point: grad)
        expected, _ = sphere.retract(x, params.h * (-params.h * params.coeff_cap) * grad)
        np.testing.assert_allclose(x1, expected, atol=1e-14)

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
                                  prob.manifold.tangent_project(e1, prob.value_and_grad(e1)[1]))
        np.testing.assert_array_equal(out, e1)
        assert violation == 0.0

    def test_converges_to_dominant_eigenvector(self):
        prob = rayleigh(np.diag([2.0, 1.0]))
        x = prob.manifold.random_point(np.random.default_rng(8))
        for _ in range(500):
            x, _ = rgd_step(prob.manifold, x, 0.1,
                            prob.manifold.tangent_project(x, prob.value_and_grad(x)[1]))
        assert abs(prob.value_and_grad(x)[0] - prob.oracle_value) <= 1e-6
        assert abs(abs(x[0]) - 1.0) <= 1e-3

    def test_stiefel_feasibility_each_step(self):
        prob = make_instance("brockett", (6, 2), seed=9)
        x = prob.manifold.random_point(np.random.default_rng(9))
        for _ in range(50):
            x, violation = rgd_step(prob.manifold, x, 0.05,
                                    prob.manifold.tangent_project(x, prob.value_and_grad(x)[1]))
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
        # an over-aggressive target exponent at ten times the default step
        # destabilizes the adaptive integrator, restarts and all, until the
        # multiplier equation loses its real root; the run must end with a
        # marked trace instead of an exception
        prob = make_instance("rayleigh", (10,), seed=7)
        cfg = RunConfig(
            method="htvi_adaptive",
            params=BregmanParams(p=6.0, p_ring=1.0, h=1e-2),
            max_iters=100000, stop_f_tol=1e-300, stop_grad_tol=1e-300,
        )
        trace = run(cfg, prob)
        assert trace.failed
        assert trace.failure_reason
        assert len(trace) < 100000

    def test_zero_r_t_denominator_marks_trace_failed(self):
        # p_ring > p makes feedback_rt = h (p - p_ring) / p_ring s^(-p_ring / p)
        # negative, and here 1 + feedback_rt is exactly 0 at the first step
        params = BregmanParams(p=1.0, p_ring=2.0, h=2.0, c_const=1e-9)
        assert bregman.step_coefficients(params, 1.0, True).feedback_rt == -1.0
        cfg = RunConfig(method="htvi_adaptive", params=params, max_iters=3)
        trace = run(cfg, make_instance("rayleigh", (5,), seed=0))
        assert trace.failed
        assert trace.failure_reason == "r_t update divides by zero at time coordinate 1.0"
        assert len(trace) == 1

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
        ("htvi_direct", "r"), ("htvi_adaptive", "r_t"), ("htvi_direct", "q"),
        ("el_v1", "v"), ("el_v2", "x"), ("rgd", "x"),
    ])
    def test_non_finite_step_marks_trace_failed(self, method, part, bad, monkeypatch):
        # one bad entry in one part of the new state ends the run; each part
        # is corrupted where the step forms it, so the steppers' finiteness
        # tests see it through the values the step reports
        def corrupt(array):
            array = array.copy()
            array[0] = bad
            return array

        prob = make_instance("rayleigh", (6,), seed=0)
        manifold = prob.manifold
        if method.startswith("htvi") and part in ("q", "r"):
            # the HTVI position is the multiplier solve's landing, which
            # comes with its own violation; the momentum is the step's base
            # less the solve's normal, and r_t is formed from it
            solve = manifold.solve_multiplier

            def bad_solve(*args):
                lam, normal, point, violation, iters = solve(*args)
                if part == "r":
                    return lam, corrupt(normal), point, violation, iters
                point = corrupt(point)
                return lam, normal, point, manifold.constraint_violation(point), iters
            monkeypatch.setattr(manifold, "solve_multiplier", bad_solve)
        elif method.startswith("htvi"):
            step = optimizers.htvi_step

            def bad_step(*args):
                state, iters = step(*args)
                return dataclasses.replace(state, **{part: bad}), iters
            monkeypatch.setattr(optimizers, "htvi_step", bad_step)
        elif method.startswith("el"):
            # a retracted point comes with its own violation
            step = optimizers.el_step

            def bad_step(*args):
                x, v, violation = step(*args)
                if part == "x":
                    x = corrupt(x)
                    return x, v, manifold.constraint_violation(x)
                return x, corrupt(v), violation
            monkeypatch.setattr(optimizers, "el_step", bad_step)
        else:
            step = optimizers.rgd_step

            def bad_step(*args):
                x = corrupt(step(*args)[0])
                return x, manifold.constraint_violation(x)
            monkeypatch.setattr(optimizers, "rgd_step", bad_step)
        trace = run(RunConfig(method=method, params=BregmanParams(p=4.0), max_iters=5), prob)
        assert trace.failed
        assert trace.failure_reason == "non-finite state"
        assert len(trace) == 1

    def test_stiefel_point_with_overflowing_norm_fails_the_gate(self, monkeypatch):
        # X^T X = diag(1.44e308, 1.44e308) is finite but q.q overflows: the
        # HTVI finiteness test reads the solve's violation of its landing,
        # and the gate rejects it
        huge = np.zeros(6)
        huge[0] = huge[4] = 1.2e154
        prob = make_instance("brockett", (3, 2), seed=0)
        manifold = prob.manifold
        solve = manifold.solve_multiplier

        def bad_solve(*args):
            lam, normal, _, _, iters = solve(*args)
            return lam, normal, huge, manifold.constraint_violation(huge), iters
        monkeypatch.setattr(manifold, "solve_multiplier", bad_solve)
        with np.errstate(over="ignore"):
            assert not math.isfinite(float(huge.dot(huge)))
        trace = run(RunConfig(method="htvi_direct", params=BregmanParams(p=4.0),
                              max_iters=5), prob)
        assert trace.failed
        assert trace.failure_reason == ("stiefel:3,2: point violates constraint by "
                                        "1.440e+308 (tolerance 1.0e-08)")
        assert len(trace) == 1

    def test_stiefel_landing_with_overflowing_gram_is_non_finite(self, monkeypatch):
        # X^T X overflows: the solve forms it under its own errstate and
        # reports an infinite violation, which ends the run as a non-finite
        # state without a RuntimeWarning (the suite turns warnings into
        # errors)
        huge = np.full(6, 1e200)
        prob = make_instance("brockett", (3, 2), seed=0)
        manifold = prob.manifold
        solve = manifold.solve_multiplier

        def bad_solve(*args):
            lam, normal, _, _, iters = solve(*args)
            with np.errstate(all="ignore"):
                violation = manifold.constraint_violation(huge)
            assert violation == math.inf
            return lam, normal, huge, violation, iters
        monkeypatch.setattr(manifold, "solve_multiplier", bad_solve)
        trace = run(RunConfig(method="htvi_direct", params=BregmanParams(p=4.0),
                              max_iters=5), prob)
        assert trace.failed
        assert trace.failure_reason == "non-finite state"
        assert len(trace) == 1

    def test_el_velocity_whose_square_overflows_fails_without_warning(self, monkeypatch):
        # v.v overflows: the run's errstate keeps numpy's warning in (the
        # suite turns warnings into errors), and the EL finiteness test ends
        # the run as a non-finite state
        prob = make_instance("rayleigh", (4,), seed=0)
        step = optimizers.el_step

        def fast_step(*args):
            x, v, violation = step(*args)
            return x, np.full_like(v, 1e200), violation
        monkeypatch.setattr(optimizers, "el_step", fast_step)
        trace = run(RunConfig(method="el_v1", params=BregmanParams(p=4.0), max_iters=5), prob)
        assert trace.failure_reason == "non-finite state"
        assert len(trace) == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_gradient_norm_fails_before_its_row(self, method):
        # the Riemannian gradient's square overflows at the start point;
        # without the test the row held grad_norm = inf and the run failed a
        # step later, as an infeasible point or a non-finite state
        prob = make_instance("rayleigh", (5,), seed=0, conditioning=8e307)
        trace = run(RunConfig(method=method, params=BregmanParams(p=6.0)), prob)
        assert trace.failure_reason == "non-finite objective or gradient norm at k=0"
        assert trace.rows == []

    @pytest.mark.parametrize("bad", ["f", "grad"])
    def test_non_finite_objective_or_gradient_fails_before_its_row(self, bad):
        # the fourth evaluation, at k = 3, returns a NaN objective or gradient
        prob = make_instance("rayleigh", (5,), seed=0)
        value_and_grad, calls = prob.value_and_grad, []

        def evaluate(q):
            f, grad = value_and_grad(q)
            calls.append(q)
            if len(calls) == 4:
                return (math.nan, grad) if bad == "f" else (f, grad * math.nan)
            return f, grad
        cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.1), max_iters=10)
        trace = run(cfg, dataclasses.replace(prob, value_and_grad=evaluate))
        assert trace.failure_reason == "non-finite objective or gradient norm at k=3"
        assert trace.ks == [0, 1, 2]

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
            state = ExtendedState.initial(q0)
            ts = [state.q_t]
        elif method.startswith("el"):
            v = np.zeros_like(q0)

            def rgrad(point):
                return manifold.tangent_project(point, prob.value_and_grad(point)[1])
        fs = [prob.value_and_grad(x)[0]]
        restarts = 0
        for k in range(1, iters + 1):
            if method.startswith("htvi"):
                f_val, grad = prob.value_and_grad(state.q)
                # the gradient restart: the standard state at this point,
                # multiplier included, so the next solve starts cold
                if state.r.dot(manifold.tangent_project(state.q, grad)) > 0:
                    state = ExtendedState.initial(state.q)
                    restarts += 1
                state, it = htvi_step(direction, params, manifold, state, grad, f_val)
                x = state.q
                ts.append(state.q_t)
                newton.append(it)
            else:
                if method == "rgd":
                    x, _ = rgd_step(manifold, x, params.h,
                                    manifold.tangent_project(x, prob.value_and_grad(x)[1]))
                else:
                    x, v, _ = el_step(int(method[-1]), params, manifold, x, v, k, rgrad)
                ts.append(k * params.h)
                newton.append(None)
            fs.append(prob.value_and_grad(x)[0])

        calls = []

        def counted(point):
            calls.append(point)
            return prob.value_and_grad(point)

        counted_prob = dataclasses.replace(prob, value_and_grad=counted)
        cfg = RunConfig(method=method, params=params, max_iters=iters,
                        stop_f_tol=1e-300, stop_grad_tol=1e-300)
        trace = run(cfg, counted_prob, q0)
        assert not trace.failed
        assert trace.fs == fs
        assert trace.ts == ts
        assert trace.newton_iters == newton
        assert (restarts > 0) == method.startswith("htvi")
        # one objective evaluation (value and gradient together) per
        # recorded iterate; el_v2 adds one at its look-ahead point in every
        # step
        steps = len(trace) - 1
        assert len(calls) == len(trace) + (steps if method == "el_v2" else 0)

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
        # included, and the HTVI multiplier solve that of its landing
        assert manifold.constraint_calls == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_large_stiefel_stays_on_the_manifold(self, method):
        # m = 40: the HTVI multiplier solve works on m x m matrices
        prob = make_instance("brockett", (200, 40), seed=18)
        cfg = RunConfig(method=method, params=BregmanParams(p=6.0, h=1e-3), max_iters=3)
        trace = run(cfg, prob)
        assert not trace.failed
        assert len(trace) == 4
        assert max(trace.constraint_violations) <= 1e-9

    @pytest.mark.parametrize("method", ["el_v1", "el_v2"])
    def test_el_runs_past_the_coefficient_overflow(self, method):
        # the gradient coefficient's power overflows from step 3600 on and
        # the coefficient stays at the cap
        prob = make_instance("rayleigh", (6,), seed=0)
        cfg = RunConfig(method=method, params=BregmanParams(p=200.0, h=0.01), max_iters=3700)
        trace = run(cfg, prob)
        assert not trace.failed, trace.failure_reason
        assert len(trace) == 3701

    @pytest.mark.parametrize("method", ["htvi_direct", "htvi_adaptive"])
    def test_htvi_coefficient_overflow_fails_the_trace(self, method):
        # s^e_p leaves the float range near s = 5.9 when p = 200; the tiny
        # c_const keeps the gradient coefficient below its cap until then
        prob = make_instance("rayleigh", (6,), seed=0)
        cfg = RunConfig(method=method, params=BregmanParams(p=200.0, c_const=1e-300),
                        max_iters=6000)
        trace = run(cfg, prob)
        assert trace.failed
        assert trace.failure_reason.startswith("step coefficients overflow at time coordinate 5.9")
        assert len(trace) < 6001

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(method="sgd", params=BregmanParams(p=2.0))

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, np.float64(3.0), np.bool_(True)])
    def test_non_integer_max_iters_rejected(self, max_iters):
        # the run stops when the step count equals max_iters, which a
        # fractional budget never does
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            RunConfig(method="rgd", params=BregmanParams(p=2.0), max_iters=max_iters)

    def test_numpy_integer_max_iters_is_the_budget(self):
        prob = make_instance("procrustes", (4, 2, 6), seed=9)  # no oracle, no gap stop
        cfg = RunConfig(method="rgd", params=BregmanParams(p=2.0, h=0.01),
                        max_iters=np.int64(3), stop_grad_tol=1e-300)
        assert len(run(cfg, prob)) == 4

    @pytest.mark.parametrize("stop_f_tol", [0.0, -1e-6])
    def test_non_positive_stop_f_tol_rejected(self, stop_f_tol):
        with pytest.raises(ValueError):
            RunConfig(method="rgd", params=BregmanParams(p=2.0), stop_f_tol=stop_f_tol)

    @pytest.mark.parametrize("field", ["stop_grad_tol", "stop_f_tol"])
    def test_nan_stop_tolerance_rejected(self, field):
        # a NaN tolerance would never stop a run
        with pytest.raises(ValueError):
            RunConfig(method="rgd", params=BregmanParams(p=2.0), **{field: math.nan})



class TestTraceRows:
    """A trace row is a tuple of Python numbers, whatever numeric types the
    parameters were given in."""

    @pytest.mark.parametrize("params", [
        BregmanParams(p=6.0),
        BregmanParams(p=6, c_const=1, lambda_conv=1, coeff_cap=10**6),
        BregmanParams(p=6, h=1),
    ], ids=["floats", "int_constants", "int_step"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name,dims", [("rayleigh", (5,)), ("procrustes", (5, 2, 6))])
    def test_rows_hold_exact_types(self, name, dims, method, params):
        prob = make_instance(name, dims, seed=0)
        cfg = RunConfig(method=method, params=params, max_iters=3,
                        stop_f_tol=1e-300, stop_grad_tol=1e-300)
        trace = run(cfg, prob)
        # HTVI finds no multiplier for a step of length 1 and fails at once
        assert len(trace.rows) == (1 if params.h == 1 and method.startswith("htvi") else 4)
        gap = type(None) if prob.oracle_value is None else float
        for row in trace.rows:
            assert type(row) is tuple
            iters = int if method.startswith("htvi") and row[0] > 0 else type(None)
            assert ([type(value) for value in row]
                    == [int, float, float, float, float, gap, iters])

    def test_columns_are_read_only_views_of_the_rows(self):
        prob = make_instance("brockett", (5, 2), seed=0)
        trace = run(RunConfig(method="htvi_direct", params=BregmanParams(p=6.0),
                              max_iters=4), prob)
        columns = (trace.ks, trace.ts, trace.fs, trace.grad_norms,
                   trace.constraint_violations, trace.errors_vs_oracle, trace.newton_iters)
        assert list(zip(*columns)) == trace.rows
        assert not trace.failed
        for name in ("ks", "fs", "newton_iters", "failed"):
            with pytest.raises(AttributeError):
                setattr(trace, name, [])


class TestRowMajorHotPath:
    @pytest.mark.parametrize("name", ["brockett", "procrustes"])
    def test_steps_never_convert_the_matrix_layout(self, name, monkeypatch):
        # every per-iteration Stiefel kernel reads the flat point as X^T in
        # place; the conversions are left to start points and oracles
        problem = build_problem({"name": name})
        initial = problem.manifold.random_point(np.random.default_rng(0))

        def refuse(self, array):
            raise AssertionError("the matrix layout was converted")

        monkeypatch.setattr(Stiefel, "from_matrix", refuse)
        for method in METHODS:
            trace = run(build_run_config({"method": method, "max_iters": 50}),
                        problem, initial)
            assert not trace.failed, trace.failure_reason
            assert len(trace) == 51


class TestPredictedMultiplier:
    """The Stiefel solve starts from the multiplier predicted from the last
    three, so over the first 1000 steps of the default Stiefel problems at
    seed 0 it takes at most 1.4 fixed-point iterations per step on average
    (2.0-2.5 when it started from the last multiplier), never falls back to
    the exact Riccati step, and every multiplier it returns is exactly
    symmetric."""

    @pytest.mark.parametrize("method", ["htvi_direct", "htvi_adaptive"])
    @pytest.mark.parametrize("name", ["brockett", "procrustes"])
    def test_default_window(self, name, method, monkeypatch):
        problem = build_problem({"name": name})
        st = problem.manifold
        initial = st.random_point(np.random.default_rng(0))
        eig_calls = []
        eig = manifolds.np.linalg.eig

        def counted_eig(a):
            eig_calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(manifolds.np.linalg, "eig", counted_eig)
        solve = st.solve_multiplier
        asymmetric = []

        def checked_solve(*args):
            result = solve(*args)
            s = result[0][: st.m * st.m].reshape(st.m, st.m)
            if s.tobytes() != s.T.tobytes():
                asymmetric.append(s)
            return result

        monkeypatch.setattr(st, "solve_multiplier", checked_solve)
        trace = run(build_run_config({"method": method, "max_iters": 1000}), problem, initial)
        assert not trace.failed, trace.failure_reason
        iterations = trace.newton_iters[1:]
        assert len(iterations) == 1000
        assert sum(iterations) / len(iterations) <= 1.4
        assert not eig_calls
        assert not asymmetric


def run_to_target(name, method, seed=0, **keys):
    """A default problem's run at ``seed`` from the CLI's seeded start point,
    with the method block's ``keys``, to the seed sweep's target: oracle gap
    at most 1e-6, or gradient norm at most 1e-6 without an oracle."""
    problem = build_problem({"name": name, "seed": seed})
    initial = problem.manifold.random_point(np.random.default_rng(seed))
    block = {"method": method, "max_iters": 12000, **keys}
    block["stop_f_tol" if problem.oracle_value is not None else "stop_grad_tol"] = 1e-6
    return run(build_run_config(block), problem, initial)


def count_exact_steps(monkeypatch):
    """The list that each ``np.linalg.eig`` call of the Stiefel solve's exact
    Riccati step appends to."""
    calls = []
    eig = manifolds.np.linalg.eig

    def counted_eig(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(manifolds.np.linalg, "eig", counted_eig)
    return calls


class TestHamiltonianAlone:
    """HTVI follows its Hamiltonian and the gradient restart alone.  A restart
    returns to the standard state, multiplier included, so the Stiefel solve
    after it starts cold and its prediction never spans a momentum reset; the
    predicted start there landed with a residual near 1, which the fixed
    point cannot halve, so those steps took the exact Riccati step.  The
    coefficient cap is the EL steps' alone."""

    def test_restart_starts_the_solve_cold(self, monkeypatch):
        solve = Stiefel.solve_multiplier
        cold = []

        def recording_solve(self, drift, q, coeff, lam0):
            cold.append(lam0 is None)
            return solve(self, drift, q, coeff, lam0)

        monkeypatch.setattr(Stiefel, "solve_multiplier", recording_solve)
        trace = run_to_target("brockett", "htvi_direct")
        assert not trace.failed, trace.failure_reason
        ts = trace.ts
        # a restart shows as a drop of t; the step that built row k is the
        # solve call k - 1
        drops = [k for k in range(2, len(ts)) if not ts[k] > ts[k - 1]]
        assert len(drops) == 6
        assert [k for k in range(1, len(ts)) if cold[k - 1]] == [1] + drops

    def test_larger_steps_need_no_exact_step(self, monkeypatch):
        # at five times the default step the solve lands by the fixed point
        # alone on every step (the multiplier kept across restarts took 1-6
        # exact steps per run here)
        eig_calls = count_exact_steps(monkeypatch)
        for method in ("htvi_direct", "htvi_adaptive"):
            for seed in range(3):
                trace = run_to_target("brockett", method, seed, h=5e-3)
                assert not trace.failed, trace.failure_reason
                assert trace.errors_vs_oracle[-1] <= 1e-6, f"{method}#{seed}"
                assert max(trace.constraint_violations) <= 1e-9
        assert not eig_calls

    def test_exact_step_rescues_a_large_step(self, monkeypatch):
        # at ten times the default step the third step's fixed point cannot
        # halve its residual (0.30 at the first landing); the exact step
        # lands it, and the run goes on to the target
        eig_calls = count_exact_steps(monkeypatch)
        trace = run_to_target("procrustes", "htvi_direct", 4, h=1e-2)
        assert not trace.failed, trace.failure_reason
        assert eig_calls
        assert trace.grad_norms[-1] <= 1e-6
        assert len(trace) <= 250
        assert max(trace.constraint_violations) <= 1e-9

    @pytest.mark.parametrize("method", ["htvi_direct", "htvi_adaptive"])
    def test_traces_ignore_the_cap(self, method):
        # a cap of 1 is below the gradient coefficient from the first step
        capped = run_to_target("rayleigh", method, coeff_cap=1.0)
        uncapped = run_to_target("rayleigh", method, coeff_cap=math.inf)
        assert not capped.failed and not uncapped.failed
        assert trace_digest(capped) == trace_digest(uncapped)


# Digests of the first 500 iterations at the CLI defaults, seed 0 (numpy 2.4
# with single-threaded OpenBLAS on x86-64, as tests/conftest.py pins it); a
# change that alters any rounding on the way changes them.  Every HTVI run
# restarts inside this window, first at k = 23-413.
GOLDEN_DIGESTS = {
    "rayleigh": {
        "htvi_direct": "4dcca4d415678e8f",
        "htvi_adaptive": "0b164f1d716209af",
        "el_v1": "9c8fe0f20ab20c21",
        "el_v2": "26e6d21085c59b50",
        "rgd": "aa31c9c98489d11e",
    },
    "brockett": {
        "htvi_direct": "a31fc7dde06d1031",
        "htvi_adaptive": "2521d4a8da9e8908",
        "el_v1": "30ddf008df6bb94c",
        "el_v2": "63d5da3bfe95f53f",
        "rgd": "4058442e471e8548",
    },
    "procrustes": {
        "htvi_direct": "467ade6e10e12743",
        "htvi_adaptive": "0168ef8b6c852724",
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
