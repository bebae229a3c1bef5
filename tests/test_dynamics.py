"""Tests of the discrete constrained mechanics and the Newton/order harnesses."""

import math
import types

import numpy as np
import pytest

import bregopt.dynamics
import bregopt.manifolds
from bregopt.bregman import BregmanParams, ExtendedState
from bregopt.dynamics import (
    HamiltonStepResult,
    MidpointLagrangian,
    NewtonConfig,
    constrained_lagrangian_map,
    newton_solve,
    order_check,
    project_momentum,
)
from bregopt.errors import NewtonError, SingularJacobianError
from bregopt.manifolds import Sphere, Stiefel
from bregopt.optimizers import htvi_step
from bregopt.problems import make_instance

from reference_geometry import Unconstrained, constraint_jacobian

GRAVITY = 9.81


def pendulum_lagrangian():
    return MidpointLagrangian(
        potential_grad=lambda q: np.array([0.0, 0.0, GRAVITY]),
        potential_hess=lambda q: np.zeros((3, 3)),
    )


def free_lagrangian(dim=3):
    return MidpointLagrangian(
        potential_grad=lambda q: np.zeros(dim),
        potential_hess=lambda q: np.zeros((dim, dim)),
    )


def pendulum_value(q0, q1, h):
    """The pendulum's midpoint discrete Lagrangian ``L_d(q0, q1; h)``."""
    diff = q1 - q0
    return float(diff @ diff) / (2.0 * h) - h * GRAVITY * (q0[2] + q1[2]) / 2.0


def scalar_derivative(x):
    """Jacobian of the elementwise ``x * x - c`` residuals."""
    return np.diag(2.0 * x)


class TestNewton:
    def test_linear_in_one_iteration(self):
        result = newton_solve(lambda x: x - 1.0, lambda x: np.eye(1), np.array([0.0]))
        np.testing.assert_allclose(result.x, [1.0])
        assert result.iterations == 1

    def test_square_root_of_two(self):
        config = NewtonConfig(tol=1e-13)
        result = newton_solve(lambda x: x * x - 2.0, scalar_derivative, np.array([1.0]),
                              config)
        assert abs(result.x[0] - np.sqrt(2.0)) <= 1e-12
        assert result.iterations <= 8

    def test_zero_derivative_raises(self):
        with pytest.raises(SingularJacobianError):
            newton_solve(lambda x: x * x - 2.0, scalar_derivative, np.array([0.0]))

    def test_singular_matrix_raises(self):
        def residual(x):
            return np.array([x[0] + x[1], x[0] + x[1] - 1.0])

        with pytest.raises(SingularJacobianError):
            newton_solve(residual, lambda x: np.ones((2, 2)), np.zeros(2))

    def test_budget_exhaustion_reports_residual(self):
        # the cube root makes Newton overshoot and diverge from any start
        config = NewtonConfig(tol=1e-10, max_iter=3)
        with pytest.raises(NewtonError) as info:
            newton_solve(np.cbrt, lambda x: np.diag(1.0 / (3.0 * np.cbrt(x) ** 2)),
                         np.array([1.0]), config)
        assert info.value.residual_norm is not None
        assert info.value.iterations == 3

    def test_immediate_return_at_solution(self):
        result = newton_solve(lambda x: x - 2.0, lambda x: np.eye(1), np.array([2.0]))
        assert result.iterations == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            newton_solve(lambda x: np.zeros(3), lambda x: np.eye(3), np.zeros(2))

    def test_analytic_jacobian_used(self):
        calls = []

        def jacobian(x):
            calls.append(1)
            return np.array([[2.0 * x[0]]])

        newton_solve(lambda x: x * x - 4.0, jacobian, np.array([1.0]))
        assert calls

    def test_two_unknowns_converge_quadratically(self):
        # the unit circle meets the diagonal at (1, 1) / sqrt(2)
        def residual(x):
            return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]])

        def jacobian(x):
            return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])

        norms = []
        for budget in range(1, 5):
            try:
                newton_solve(residual, jacobian, np.array([1.0, 0.2]),
                             NewtonConfig(tol=1e-14, max_iter=budget))
            except NewtonError as exc:
                norms.append(exc.residual_norm)
        result = newton_solve(residual, jacobian, np.array([1.0, 0.2]),
                              NewtonConfig(tol=1e-14))
        np.testing.assert_allclose(result.x, [np.sqrt(0.5)] * 2, atol=1e-14)
        assert len(norms) >= 3
        for before, after in zip(norms, norms[1:]):
            assert after <= 2.0 * before ** 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)

class TestGeneratingFunctions:
    def test_lagrangian_partials_match_finite_differences(self):
        lagrangian = pendulum_lagrangian()
        rng = np.random.default_rng(0)
        q0, q1 = rng.standard_normal(3), rng.standard_normal(3)
        h = 0.05
        for index, exact in ((0, lagrangian.d1(q0, q1, h)), (1, lagrangian.d2(q0, q1, h))):
            fd = np.empty(3)
            for j in range(3):
                delta = np.zeros(3)
                delta[j] = 1e-6
                args_plus = [q0 + delta, q1] if index == 0 else [q0, q1 + delta]
                args_minus = [q0 - delta, q1] if index == 0 else [q0, q1 - delta]
                fd[j] = (pendulum_value(*args_plus, h) - pendulum_value(*args_minus, h)) / 2e-6
            np.testing.assert_allclose(exact, fd, atol=1e-6)

    def test_mixed_second_partial(self):
        lagrangian = pendulum_lagrangian()
        q0, q1, h = np.zeros(3), np.ones(3), 0.1
        np.testing.assert_allclose(lagrangian.d12(q0, q1, h), -np.eye(3) / h)

    def test_mixed_second_partial_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        lagrangian = quadratic_lagrangian(rng.uniform(1.0, 30.0, 3),
                                          rng.standard_normal(3))
        q0, q1, h = rng.standard_normal(3), rng.standard_normal(3), 0.05
        fd = np.empty((3, 3))
        for j in range(3):
            delta = np.zeros(3)
            delta[j] = 1e-6
            fd[:, j] = (lagrangian.d1(q0, q1 + delta, h)
                        - lagrangian.d1(q0, q1 - delta, h)) / 2e-6
        np.testing.assert_allclose(lagrangian.d12(q0, q1, h), fd, atol=1e-6)


class TestLegendreTransforms:
    """The discrete Legendre transforms ``p0 = -D1 L_d(q0, q1)`` and
    ``p1 = D2 L_d(q0, q1)``, the momenta the map reads and returns."""

    def test_zero_velocity_gives_zero_momentum(self):
        free = free_lagrangian(2)
        q = np.array([0.2, -0.4])
        assert np.all(free.d2(q, q, 0.1) == 0.0)
        assert np.all(-free.d1(q, q, 0.1) == 0.0)

    def test_unit_velocity(self):
        free = free_lagrangian(2)
        h = 0.05
        q0, q1 = np.zeros(2), np.array([h, 0.0])
        np.testing.assert_allclose(free.d2(q0, q1, h), [1.0, 0.0])

    def test_translation_invariance_matches_endpoints(self):
        # L_d depending only on q1 - q0 gives equal boundary momenta
        free = free_lagrangian()
        rng = np.random.default_rng(1)
        q0, q1 = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(-free.d1(q0, q1, 0.1), free.d2(q0, q1, 0.1))


def dense_lagrangian_map(lagrangian, manifold, q, p, h, newton=NewtonConfig(), lam0=None):
    """The constrained Euler--Lagrange map as first written: a dense Newton
    solve of the (n + d) momentum and constraint equations (reference)."""
    n, d = manifold.ambient_dim, manifold.constraint_dim
    jac_c = constraint_jacobian(manifold, q)

    def residual(x):
        q_next, lam = x[:n], x[n:]
        res_mom = -lagrangian.d1(q, q_next, h) + jac_c.T @ lam - p
        return np.concatenate([res_mom, manifold.constraint(q_next)])

    def jacobian(x):
        q_next = x[:n]
        top = np.hstack([-lagrangian.d12(q, q_next, h), jac_c.T])
        bottom = np.hstack([constraint_jacobian(manifold, q_next), np.zeros((d, d))])
        return np.vstack([top, bottom])

    x0 = np.concatenate([q, np.zeros(d) if lam0 is None else lam0])
    result = newton_solve(residual, jacobian, x0, newton)
    q_next, lam = result.x[:n], result.x[n:]
    return HamiltonStepResult(q_next, lagrangian.d2(q, q_next, h), lam, result.iterations)


def quadratic_lagrangian(weights, tilt):
    """Midpoint Lagrangian of ``V(q) = q.(weights * q) / 2 + tilt.q``."""
    return MidpointLagrangian(
        potential_grad=lambda q: weights * q + tilt,
        potential_hess=lambda q: np.diag(weights),
    )


def map_trajectory(step_map, lagrangian, manifold, q, p, h, steps, newton=NewtonConfig()):
    """Positions and momenta of ``steps`` steps, warm started and with the
    momentum projected as in the pendulum's long runs; also the largest
    number of Newton iterations (passes) a step took."""
    lam, states, most = None, [], 0
    for _ in range(steps):
        result = step_map(lagrangian, manifold, q, p, h, newton, lam)
        q, lam = result.q_next, result.lam
        p = project_momentum(manifold, q, result.p_next)
        states.append(np.concatenate([q, p]))
        most = max(most, result.newton_iterations)
    return np.array(states), most


def map_case(name):
    """Lagrangian, manifold, initial state, step size and step count."""
    pendulum = (Sphere(3), np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.2, 0.0]))
    if name.startswith("pendulum"):
        h = 1e-2 if name == "pendulum-coarse" else 1.25e-4
        return (pendulum_lagrangian(), *pendulum, h, 2000)
    if name == "sphere-quadratic":
        tilted = quadratic_lagrangian(np.array([20.0, 5.0, 1.0]),
                                      np.array([0.0, 0.0, GRAVITY]))
        return (tilted, *pendulum, 1e-2, 1000)
    rng = np.random.default_rng(21)
    if name == "stiefel-quadratic":
        manifold = Stiefel(6, 2)
    else:
        manifold = Unconstrained(3)
    n = manifold.ambient_dim
    lagrangian = quadratic_lagrangian(rng.uniform(1.0, 30.0, n), rng.standard_normal(n))
    q = manifold.random_point(rng)
    return lagrangian, manifold, q, manifold.random_tangent(q, rng), 1e-2, 1000


class TestConstrainedLagrangianMap:
    @pytest.mark.parametrize("name", ["pendulum-coarse", "pendulum-fine"])
    def test_pendulum_trajectory_matches_dense_newton(self, name):
        lagrangian, manifold, q, p, h, steps = map_case(name)
        new, passes = map_trajectory(constrained_lagrangian_map, lagrangian, manifold,
                                     q, p, h, steps)
        old, _ = map_trajectory(dense_lagrangian_map, lagrangian, manifold, q, p, h, steps)
        assert np.abs(new - old).max() <= 1e-9
        # gravity is a constant force, so one pass is exact
        assert passes == 1

    @pytest.mark.parametrize("name", ["pendulum-coarse", "sphere-quadratic",
                                      "stiefel-quadratic", "euclidean-quadratic"])
    def test_each_step_matches_dense_newton(self, name):
        lagrangian, manifold, q, p, h, steps = map_case(name)
        newton = NewtonConfig()
        states, passes = map_trajectory(constrained_lagrangian_map, lagrangian, manifold,
                                        q, p, h, steps)
        assert (passes > 1) == (name != "pendulum-coarse")
        # both maps meet the same equations to newton.tol from the same state;
        # the momentum and the multiplier carry a factor 1 / h
        n, lam = manifold.ambient_dim, None
        for state in states:
            q, p = state[:n], state[n:]
            new = constrained_lagrangian_map(lagrangian, manifold, q, p, h, newton, lam)
            old = dense_lagrangian_map(lagrangian, manifold, q, p, h, newton, lam)
            assert np.abs(new.q_next - old.q_next).max() <= newton.tol
            assert np.abs(new.p_next - old.p_next).max() <= newton.tol / h
            if lam is not None and lam.size:
                assert np.abs(new.lam - old.lam).max() <= newton.tol / h
            assert manifold.constraint_violation(new.q_next) <= newton.tol
            lam = new.lam

    def test_refined_step_converges_to_reference(self):
        # halving h shrinks the terminal error by about four (second order)
        sphere = Sphere(3)
        lagrangian = pendulum_lagrangian()
        q0 = np.array([0.6, 0.0, 0.8])
        p0 = np.array([0.0, 1.2, 0.0])
        duration = 0.2

        def terminal(h):
            q, p = q0.copy(), p0.copy()
            for _ in range(round(duration / h)):
                step = constrained_lagrangian_map(lagrangian, sphere, q, p, h)
                q, p = step.q_next, step.p_next
            return q

        reference = terminal(duration / 2000)
        err_coarse = np.linalg.norm(terminal(0.02) - reference)
        err_fine = np.linalg.norm(terminal(0.01) - reference)
        assert err_fine <= err_coarse / 2.5

    def test_stated_equations_hold_after_step(self):
        lagrangian, manifold, q, p, h, _ = map_case("stiefel-quadratic")
        result = constrained_lagrangian_map(lagrangian, manifold, q, p, h)
        jac_c = constraint_jacobian(manifold, q)
        momentum = -lagrangian.d1(q, result.q_next, h) + jac_c.T @ result.lam
        np.testing.assert_allclose(momentum, p, atol=1e-10)
        assert manifold.constraint_violation(result.q_next) <= 1e-10
        np.testing.assert_array_equal(result.p_next,
                                      lagrangian.d2(q, result.q_next, h))

    def test_rest_point_is_stationary(self):
        sphere = Sphere(3)
        q = np.array([0.0, 0.6, 0.8])
        result = constrained_lagrangian_map(free_lagrangian(), sphere, q, np.zeros(3), 0.1)
        np.testing.assert_allclose(result.q_next, q, atol=1e-12)
        np.testing.assert_allclose(result.p_next, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(result.lam, [0.0], atol=1e-12)
        assert result.newton_iterations == 1

    def test_pendulum_stays_on_sphere(self):
        sphere = Sphere(3)
        lagrangian = pendulum_lagrangian()
        q, p = np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0])
        worst = 0.0
        for _ in range(200):
            result = constrained_lagrangian_map(lagrangian, sphere, q, p, 0.01)
            q, p = result.q_next, result.p_next
            worst = max(worst, sphere.constraint_violation(q))
        assert worst <= 1e-10

    def test_sphere_feasibility_long_run(self):
        # the free particle follows great circles; its raw momenta are fed
        # back without projection
        sphere = Sphere(3)
        free = free_lagrangian()
        q, p = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.9, -0.2])
        worst = 0.0
        for _ in range(1000):
            result = constrained_lagrangian_map(free, sphere, q, p, 0.02)
            q, p = result.q_next, result.p_next
            worst = max(worst, sphere.constraint_violation(q))
        assert worst <= 1e-10

    def test_unconstrained_limit_is_implicit_del(self):
        # with no constraint and no force, the position recursion of the
        # discrete Euler--Lagrange equations is q2 = 2 q1 - q0
        flat = Unconstrained(3)
        free = free_lagrangian()
        rng = np.random.default_rng(2)
        q0, p0 = rng.standard_normal(3), rng.standard_normal(3)
        first = constrained_lagrangian_map(free, flat, q0, p0, 0.1)
        second = constrained_lagrangian_map(free, flat, first.q_next, first.p_next, 0.1)
        np.testing.assert_allclose(second.q_next, 2 * first.q_next - q0, atol=1e-10)
        assert first.lam.size == 0

    def test_two_steps_solve_the_del_equations(self):
        # D1 L_d(q1, q2) + D2 L_d(q0, q1) = J_C(q1)^T lam: the position form
        # of the constrained discrete Euler--Lagrange equations
        sphere = Sphere(3)
        lagrangian = pendulum_lagrangian()
        h = 0.02
        q0, p0 = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.9, 0.0])
        first = constrained_lagrangian_map(lagrangian, sphere, q0, p0, h)
        q1 = first.q_next
        second = constrained_lagrangian_map(lagrangian, sphere, q1, first.p_next, h)
        residual = (lagrangian.d1(q1, second.q_next, h) + lagrangian.d2(q0, q1, h)
                    - constraint_jacobian(sphere, q1).T @ second.lam)
        assert np.max(np.abs(residual)) <= 1e-10
        assert sphere.constraint_violation(second.q_next) <= 1e-10

    def test_warm_start_reaches_the_same_step(self):
        lagrangian, manifold, q, p, h, _ = map_case("stiefel-quadratic")
        newton = NewtonConfig()
        cold = constrained_lagrangian_map(lagrangian, manifold, q, p, h, newton)
        warm = constrained_lagrangian_map(lagrangian, manifold, q, p, h, newton,
                                          lam0=cold.lam)
        assert np.abs(warm.q_next - cold.q_next).max() <= newton.tol
        assert np.abs(warm.p_next - cold.p_next).max() <= newton.tol / h
        assert np.abs(warm.lam - cold.lam).max() <= newton.tol / h

    @pytest.mark.parametrize("name", ["pendulum-coarse", "sphere-quadratic",
                                      "stiefel-quadratic"])
    def test_no_newton_on_the_sphere(self, name, monkeypatch):
        lagrangian, manifold, q, p, h, _ = map_case(name)
        calls = 0

        def counting_newton(*args, **kwargs):
            nonlocal calls
            calls += 1
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr(bregopt.manifolds, "newton_solve", counting_newton)
        monkeypatch.setattr(bregopt.dynamics, "newton_solve", counting_newton)
        map_trajectory(constrained_lagrangian_map, lagrangian, manifold, q, p, h, 50)
        if isinstance(manifold, Sphere):
            assert calls == 0
        else:
            # the Stiefel multiplier solve is its own matrix Newton
            assert calls >= 50

    @pytest.mark.parametrize("name", ["pendulum-coarse", "sphere-quadratic"])
    @pytest.mark.parametrize("h", [3e-7, 1e-7])
    def test_tiny_steps_stop_at_the_rounding_floor(self, name, h):
        # rounding keeps the momentum residual near ulp(q) / h, above
        # newton.tol at these steps; the map stops once a pass no longer
        # moves q_next, while the dense Newton fails from some states
        lagrangian, manifold = map_case(name)[:2]
        newton = NewtonConfig()
        rng = np.random.default_rng(5)
        failures = {constrained_lagrangian_map: 0, dense_lagrangian_map: 0}
        for _ in range(20):
            q = manifold.random_point(rng)
            p = 1.5 * manifold.random_tangent(q, rng)
            results = {}
            for step_map in failures:
                try:
                    results[step_map] = step_map(lagrangian, manifold, q, p, h, newton)
                except NewtonError:
                    failures[step_map] += 1
            new = results[constrained_lagrangian_map]
            momentum = (-lagrangian.d1(q, new.q_next, h)
                        + constraint_jacobian(manifold, q).T @ new.lam)
            assert np.abs(momentum - p).max() <= 4.0 * np.spacing(1.0) / h
            assert manifold.constraint_violation(new.q_next) <= newton.tol
            if dense_lagrangian_map in results:
                old = results[dense_lagrangian_map]
                assert np.abs(new.q_next - old.q_next).max() <= newton.tol
        assert failures[constrained_lagrangian_map] == 0
        assert failures[dense_lagrangian_map] > 0

    def test_needs_a_midpoint_lagrangian(self):
        lagrangian = pendulum_lagrangian()
        generic = types.SimpleNamespace(d1=lagrangian.d1, d2=lagrangian.d2,
                                        potential_grad=lagrangian.potential_grad)
        q, p = np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.2, 0.0])
        with pytest.raises(TypeError):
            constrained_lagrangian_map(generic, Sphere(3), q, p, 1e-2)

    @pytest.mark.parametrize("manifold", [Unconstrained(3), Sphere(3)])
    def test_stiff_potential_raises_newton_error(self, manifold):
        # (h^2 / 4) |Hess V| = 2 > 1: the passes move away from the solution
        # until the pass budget runs out or, on the sphere, the drift leaves
        # the reach of the multiplier
        h, stiffness = 0.1, 800.0
        lagrangian = quadratic_lagrangian(np.array([stiffness, 0.0, 0.0]), np.zeros(3))
        q = np.array([0.6, 0.0, 0.8])
        p = np.array([0.0, 1.2, 0.0])
        newton = NewtonConfig(max_iter=20)
        with pytest.raises(NewtonError) as info:
            constrained_lagrangian_map(lagrangian, manifold, q, p, h, newton)
        if isinstance(manifold, Unconstrained):
            assert info.value.iterations == newton.max_iter
            assert info.value.residual_norm > 1e6
        else:
            assert "unreachable" in str(info.value)


class TestProjectMomentum:
    def test_cotangent_momentum_unchanged(self):
        sphere = Sphere(3)
        q = np.array([0.0, 0.6, 0.8])
        p = sphere.tangent_project(q, np.array([1.0, -0.5, 2.0]))
        np.testing.assert_allclose(project_momentum(sphere, q, p), p, atol=1e-14)

    def test_sphere_removes_normal_component(self):
        sphere = Sphere(2)
        out = project_momentum(sphere, np.array([1.0, 0.0]), np.array([5.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_idempotent(self):
        sphere = Sphere(4)
        rng = np.random.default_rng(5)
        q = sphere.random_point(rng)
        for _ in range(5):
            p = rng.standard_normal(4)
            once = project_momentum(sphere, q, p)
            np.testing.assert_allclose(project_momentum(sphere, q, once), once,
                                       atol=1e-12)


class TestOrderCheck:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("direction", ["direct", "adaptive"])
    def test_htvi_is_first_order(self, direction, seed):
        # the zeroth-order Taylor, rectangle-quadrature construction of the
        # paper's integrator, as a map on the packed state (q, q_t, r, r_t)
        problem = make_instance("rayleigh", (5,), seed=seed)
        manifold, n = problem.manifold, problem.manifold.ambient_dim
        params = {}

        def step(state, h):
            if h not in params:
                params[h] = BregmanParams(p=2.0, h=h, coeff_cap=math.inf)
            q = state[:n]
            current = ExtendedState(q=q, q_t=state[n], r=state[n + 1:-1],
                                    r_t=state[-1], lam=np.zeros(1))
            nxt, _ = htvi_step(direction, params[h], manifold, current,
                               problem.ambient_grad(q), problem.f(q))
            return np.concatenate([nxt.q, [nxt.q_t], nxt.r, [nxt.r_t]])

        q0 = manifold.random_point(np.random.default_rng(0))
        initial = np.concatenate([q0, [1.0], np.zeros(n), [0.0]])
        result = order_check(step, initial, [0.02, 0.01, 0.005], 1.0,
                             reference_refinement=20)
        assert 0.85 <= result.rate <= 1.15

    def test_second_order_map_fits_rate_two(self):
        # Stormer--Verlet on a harmonic oscillator
        stiffness = np.array([1.0, 4.0])

        def verlet(state, h):
            q, p = state[:2], state[2:]
            p_half = p - 0.5 * h * stiffness * q
            q_next = q + h * p_half
            return np.concatenate([q_next, p_half - 0.5 * h * stiffness * q_next])

        result = order_check(verlet, np.array([1.0, -0.5, 0.0, 0.3]),
                             [1e-1, 5e-2, 2.5e-2], 1.0)
        assert 1.85 <= result.rate <= 2.15

    def test_step_sizes_snap_to_the_duration(self):
        def decay(state, h):
            return state * (1.0 - h)

        result = order_check(decay, np.array([1.0]), [0.3, 0.2, 0.15], 1.0)
        np.testing.assert_allclose(result.step_sizes, [1 / 3, 1 / 5, 1 / 7])
        assert 0.85 <= result.rate <= 1.15

    def test_exact_map_lands_at_noise_floor(self):
        # a map that is exact for its system leaves zero terminal error at
        # every step size, so all points are dropped and no rate is fitted
        def exact(state, h):
            return state.copy()

        with pytest.warns(UserWarning):
            result = order_check(exact, np.array([1.0, 0.3]),
                                 [1e-1, 5e-2, 2.5e-2], 1.0)
        assert result.at_noise_floor
        assert np.isnan(result.rate)
        assert len(result.dropped) == 3

    def test_input_validation(self):
        step = lambda state, h: state
        with pytest.raises(ValueError):
            order_check(step, np.zeros(2), [0.1, 0.05], 1.0)
        with pytest.raises(ValueError):
            order_check(step, np.zeros(2), [0.05, 0.1, 0.2], 1.0)
        with pytest.raises(ValueError):
            order_check(step, np.zeros(2), [0.1, 0.05, 0.025], -1.0)
        # non-positive or nan step sizes and an infinite or nan duration
        # would divide by zero or leave no step count
        for h_list in ([0.1, 0.05, 0.0], [0.1, 0.0, -0.1], [0.1, math.nan, 0.01]):
            with pytest.raises(ValueError, match="positive and strictly decreasing"):
                order_check(step, np.zeros(2), h_list, 1.0)
        for duration in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="duration"):
                order_check(step, np.zeros(2), [0.1, 0.05, 0.025], duration)
