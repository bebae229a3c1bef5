"""Tests of the discrete constrained mechanics and the Newton/order harnesses."""

import numpy as np
import pytest

import bregopt.dynamics
import bregopt.manifolds
from bregopt.dynamics import (
    HamiltonStepResult,
    NewtonConfig,
    constrained_del_step,
    constrained_lagrangian_map,
    constrained_right_hamilton_step,
    finite_difference_jacobian,
    legendre_minus,
    legendre_plus,
    midpoint_lagrangian,
    newton_solve,
    order_check,
    project_momentum,
    right_euler_hamiltonian,
)
from bregopt.dynamics import DiscreteHamiltonian, DiscreteLagrangian
from bregopt.errors import NewtonError, SingularJacobianError
from bregopt.manifolds import Euclidean, Sphere, Stiefel

GRAVITY = 9.81


def pendulum_lagrangian():
    return midpoint_lagrangian(
        potential=lambda q: GRAVITY * q[2],
        potential_grad=lambda q: np.array([0.0, 0.0, GRAVITY]),
        potential_hess=lambda q: np.zeros((3, 3)),
    )


def free_hamiltonian():
    h = lambda q, p: 0.5 * float(p @ p)
    dq = lambda q, p: np.zeros_like(q)
    dp = lambda q, p: p
    return right_euler_hamiltonian(h, dq, dp)


class TestNewton:
    def test_linear_in_one_iteration(self):
        result = newton_solve(lambda x: x - 1.0, np.array([0.0]))
        np.testing.assert_allclose(result.x, [1.0])
        assert result.iterations == 1

    def test_square_root_of_two(self):
        config = NewtonConfig(tol=1e-13)
        result = newton_solve(lambda x: x * x - 2.0, np.array([1.0]), config)
        assert abs(result.x[0] - np.sqrt(2.0)) <= 1e-12
        assert result.iterations <= 8

    def test_zero_derivative_raises(self):
        with pytest.raises(SingularJacobianError):
            newton_solve(lambda x: x * x - 2.0, np.array([0.0]))

    def test_singular_matrix_raises(self):
        def residual(x):
            return np.array([x[0] + x[1], x[0] + x[1] - 1.0])

        with pytest.raises(SingularJacobianError):
            newton_solve(residual, np.zeros(2))

    def test_budget_exhaustion_reports_residual(self):
        # the cube root makes Newton overshoot and diverge from any start
        config = NewtonConfig(tol=1e-10, max_iter=3)
        with pytest.raises(NewtonError) as info:
            newton_solve(np.cbrt, np.array([1.0]), config)
        assert info.value.residual_norm is not None
        assert info.value.iterations == 3

    def test_immediate_return_at_solution(self):
        result = newton_solve(lambda x: x - 2.0, np.array([2.0]))
        assert result.iterations == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            newton_solve(lambda x: np.zeros(3), np.zeros(2))

    def test_analytic_jacobian_used(self):
        calls = []

        def jacobian(x):
            calls.append(1)
            return np.array([[2.0 * x[0]]])

        newton_solve(lambda x: x * x - 4.0, np.array([1.0]), jacobian=jacobian)
        assert calls

    def test_finite_difference_jacobian_matches(self):
        def func(x):
            return np.array([x[0] ** 2 + x[1], np.sin(x[1])])

        x = np.array([0.7, -0.3])
        fd = finite_difference_jacobian(func, x, 1e-6)
        exact = np.array([[2 * 0.7, 1.0], [0.0, np.cos(-0.3)]])
        np.testing.assert_allclose(fd, exact, atol=1e-9)


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
                fd[j] = (lagrangian.value(*args_plus, h) - lagrangian.value(*args_minus, h)) / 2e-6
            np.testing.assert_allclose(exact, fd, atol=1e-6)

    def test_mixed_second_partial(self):
        lagrangian = pendulum_lagrangian()
        q0, q1, h = np.zeros(3), np.ones(3), 0.1
        np.testing.assert_allclose(lagrangian.d12(q0, q1, h), -np.eye(3) / h)


class TestLegendreTransforms:
    def test_zero_velocity_gives_zero_momentum(self):
        free = midpoint_lagrangian()
        q = np.array([0.2, -0.4])
        assert np.all(legendre_plus(free, q, q, 0.1) == 0.0)
        assert np.all(legendre_minus(free, q, q, 0.1) == 0.0)

    def test_unit_velocity(self):
        free = midpoint_lagrangian()
        h = 0.05
        q0, q1 = np.zeros(2), np.array([h, 0.0])
        np.testing.assert_allclose(legendre_plus(free, q0, q1, h), [1.0, 0.0])

    def test_translation_invariance_matches_endpoints(self):
        # L_d depending only on q1 - q0 gives equal boundary momenta
        free = midpoint_lagrangian()
        rng = np.random.default_rng(1)
        q0, q1 = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(
            legendre_minus(free, q0, q1, 0.1), legendre_plus(free, q0, q1, 0.1)
        )


class TestConstrainedDel:
    def test_rest_point_is_stationary(self):
        sphere = Sphere(3)
        free = midpoint_lagrangian()
        q = np.array([0.0, 0.6, 0.8])
        result = constrained_del_step(free, sphere, q, q, 0.1)
        np.testing.assert_allclose(result.q_next, q, atol=1e-12)
        np.testing.assert_allclose(result.lam, [0.0], atol=1e-12)
        assert result.newton_iterations == 0

    def test_pendulum_stays_on_sphere(self):
        sphere = Sphere(3)
        lagrangian = pendulum_lagrangian()
        h = 0.01
        q_prev = np.array([0.6, 0.0, 0.8])
        q_curr = sphere.retract(q_prev, h * np.array([0.0, 1.0, 0.0]))
        worst = 0.0
        for _ in range(200):
            result = constrained_del_step(lagrangian, sphere, q_prev, q_curr, h)
            q_prev, q_curr = q_curr, result.q_next
            worst = max(worst, sphere.constraint_violation(q_curr))
        assert worst <= 1e-10

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

    def test_unconstrained_limit_is_implicit_del(self):
        # with no constraint the step solves D1 L_d + inherited momentum = 0;
        # for the free particle that is the two-point linear recursion
        euclid = Euclidean(3)
        free = midpoint_lagrangian()
        rng = np.random.default_rng(2)
        q_prev, q_curr = rng.standard_normal(3), rng.standard_normal(3)
        result = constrained_del_step(free, euclid, q_prev, q_curr, 0.1)
        np.testing.assert_allclose(result.q_next, 2 * q_curr - q_prev, atol=1e-10)
        assert result.lam.size == 0

    def test_stated_equations_hold_after_step(self):
        # the multiplier formulation solves exactly the printed system; the
        # suppressed conjugate momentum of the multiplier changes nothing
        sphere = Sphere(3)
        lagrangian = pendulum_lagrangian()
        h = 0.02
        q_prev = np.array([0.6, 0.0, 0.8])
        q_curr = sphere.retract(q_prev, h * np.array([0.0, 0.9, 0.0]))
        result = constrained_del_step(lagrangian, sphere, q_prev, q_curr, h)
        residual = (
            lagrangian.d1(q_curr, result.q_next, h)
            + lagrangian.d2(q_prev, q_curr, h)
            - sphere.constraint_jacobian(q_curr).T @ result.lam
        )
        assert np.max(np.abs(residual)) <= 1e-10
        assert sphere.constraint_violation(result.q_next) <= 1e-10


def dense_lagrangian_map(lagrangian, manifold, q, p, h, newton=NewtonConfig(), lam0=None):
    """The constrained Euler--Lagrange map as first written: a dense Newton
    solve of the (n + d) momentum and constraint equations (reference)."""
    n, d = manifold.ambient_dim, manifold.constraint_dim
    jac_c = manifold.constraint_jacobian(q)

    def residual(x):
        q_next, lam = x[:n], x[n:]
        res_mom = -lagrangian.d1(q, q_next, h) + jac_c.T @ lam - p
        return np.concatenate([res_mom, manifold.constraint(q_next)])

    def jacobian(x):
        q_next = x[:n]
        top = np.hstack([-lagrangian.d12(q, q_next, h), jac_c.T])
        bottom = np.hstack([manifold.constraint_jacobian(q_next), np.zeros((d, d))])
        return np.vstack([top, bottom])

    x0 = np.concatenate([q, np.zeros(d) if lam0 is None else lam0])
    result = newton_solve(residual, x0, newton, jacobian)
    q_next, lam = result.x[:n], result.x[n:]
    return HamiltonStepResult(q_next, legendre_plus(lagrangian, q, q_next, h), lam,
                              result.iterations)


def quadratic_lagrangian(weights, tilt):
    """Midpoint Lagrangian of ``V(q) = q.(weights * q) / 2 + tilt.q``."""
    return midpoint_lagrangian(
        potential=lambda q: 0.5 * float(q @ (weights * q)) + float(tilt @ q),
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
        manifold = Euclidean(3)
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

    def test_stated_equations_hold_after_step(self):
        lagrangian, manifold, q, p, h, _ = map_case("stiefel-quadratic")
        result = constrained_lagrangian_map(lagrangian, manifold, q, p, h)
        jac_c = manifold.constraint_jacobian(q)
        momentum = -lagrangian.d1(q, result.q_next, h) + jac_c.T @ result.lam
        np.testing.assert_allclose(momentum, p, atol=1e-10)
        assert manifold.constraint_violation(result.q_next) <= 1e-10
        np.testing.assert_array_equal(result.p_next,
                                      lagrangian.d2(q, result.q_next, h))

    @pytest.mark.parametrize("name", ["pendulum-coarse", "sphere-quadratic",
                                      "stiefel-quadratic"])
    def test_no_constraint_jacobian_and_no_newton_on_the_sphere(self, name, monkeypatch):
        lagrangian, manifold, q, p, h, _ = map_case(name)
        calls = {"constraint_jacobian": 0, "newton_solve": 0}
        jacobian = type(manifold).constraint_jacobian

        def counting_jacobian(self, point):
            calls["constraint_jacobian"] += 1
            return jacobian(self, point)

        def counting_newton(*args, **kwargs):
            calls["newton_solve"] += 1
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr(type(manifold), "constraint_jacobian", counting_jacobian)
        monkeypatch.setattr(bregopt.manifolds, "newton_solve", counting_newton)
        monkeypatch.setattr(bregopt.dynamics, "newton_solve", counting_newton)
        map_trajectory(constrained_lagrangian_map, lagrangian, manifold, q, p, h, 50)
        manifold.constraint_jacobian(q)
        assert calls["constraint_jacobian"] == 1  # only the call above
        if isinstance(manifold, Sphere):
            assert calls["newton_solve"] == 0
        else:
            # the Stiefel multiplier solve is its own matrix Newton
            assert calls["newton_solve"] >= 50

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
                        + manifold.constraint_jacobian(q).T @ new.lam)
            assert np.abs(momentum - p).max() <= 4.0 * np.spacing(1.0) / h
            assert manifold.constraint_violation(new.q_next) <= newton.tol
            if dense_lagrangian_map in results:
                old = results[dense_lagrangian_map]
                assert np.abs(new.q_next - old.q_next).max() <= newton.tol
        assert failures[constrained_lagrangian_map] == 0
        assert failures[dense_lagrangian_map] > 0

    def test_needs_a_midpoint_lagrangian(self):
        lagrangian = pendulum_lagrangian()
        generic = DiscreteLagrangian(lagrangian.value, lagrangian.d1, lagrangian.d2)
        q, p = np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.2, 0.0])
        with pytest.raises(TypeError):
            constrained_lagrangian_map(generic, Sphere(3), q, p, 1e-2)

    @pytest.mark.parametrize("manifold", [Euclidean(3), Sphere(3)])
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
        if isinstance(manifold, Euclidean):
            assert info.value.iterations == newton.max_iter
            assert info.value.residual_norm > 1e6
        else:
            assert "unreachable" in str(info.value)


class TestRightHamiltonStep:
    def test_recovers_explicit_symplectic_euler(self):
        stiffness = np.array([1.0, 2.0, 3.0])
        hd = right_euler_hamiltonian(
            lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ (stiffness * q)),
            lambda q, p: stiffness * q,
            lambda q, p: p,
        )
        euclid = Euclidean(3)
        rng = np.random.default_rng(3)
        q, p = rng.standard_normal(3), rng.standard_normal(3)
        h = 0.05
        result = constrained_right_hamilton_step(hd, euclid, q, p, h)
        p_expected = p - h * stiffness * q
        np.testing.assert_allclose(result.p_next, p_expected, atol=1e-10)
        np.testing.assert_allclose(result.q_next, q + h * p_expected, atol=1e-10)

    def test_sphere_feasibility_long_run(self):
        right = free_hamiltonian()
        sphere = Sphere(3)
        q = np.array([1.0, 0.0, 0.0])
        p = np.array([0.0, 0.9, -0.2])
        worst = 0.0
        for _ in range(1000):
            result = constrained_right_hamilton_step(right, sphere, q, p, 0.02)
            q, p = result.q_next, result.p_next
            worst = max(worst, sphere.constraint_violation(q))
        assert worst <= 1e-10

    def test_zero_step_is_identity(self):
        right = free_hamiltonian()
        sphere = Sphere(3)
        q = np.array([0.0, 0.6, 0.8])
        p = np.array([0.1, 0.2, 0.3])
        result = constrained_right_hamilton_step(right, sphere, q, p, 0.0)
        np.testing.assert_array_equal(result.q_next, q)
        np.testing.assert_array_equal(result.p_next, p)
        np.testing.assert_array_equal(result.lam, [0.0])

    def test_rejects_left_kind(self):
        right = free_hamiltonian()
        left = DiscreteHamiltonian("left", right.value, right.d1, right.d2)
        with pytest.raises(ValueError):
            constrained_right_hamilton_step(left, Sphere(3), np.zeros(3), np.zeros(3), 0.1)


class TestLagrangianHamiltonianEquivalence:
    """The pendulum Lagrangian is hyperregular and quadratic, so its right
    generating function exists in closed form; both one-step maps must agree."""

    @staticmethod
    def dual_right_hamiltonian():
        g = GRAVITY

        def value(q0, p1, h):
            return (float(p1 @ q0) + h * (0.5 * float(p1 @ p1) + g * q0[2])
                    + 0.5 * h * h * g * p1[2] + h ** 3 * g * g / 8.0)

        def d1(q0, p1, h):
            return p1 + h * g * np.array([0.0, 0.0, 1.0])

        def d2(q0, p1, h):
            return q0 + h * p1 + 0.5 * h * h * g * np.array([0.0, 0.0, 1.0])

        return DiscreteHamiltonian("right", value, d1, d2)

    def test_one_step_maps_agree(self):
        sphere = Sphere(3)
        lagrangian = pendulum_lagrangian()
        dual = self.dual_right_hamiltonian()
        q = np.array([0.6, 0.0, 0.8])
        p = np.array([0.0, 1.1, 0.0])
        h = 0.02
        lag = constrained_lagrangian_map(lagrangian, sphere, q, p, h)
        ham = constrained_right_hamilton_step(dual, sphere, q, p, h)
        np.testing.assert_allclose(lag.q_next, ham.q_next, atol=1e-10)
        np.testing.assert_allclose(lag.p_next, ham.p_next, atol=1e-10)
        np.testing.assert_allclose(lag.lam, ham.lam, atol=1e-10)

    def test_two_step_position_chains_agree(self):
        sphere = Sphere(3)
        lagrangian = pendulum_lagrangian()
        dual = self.dual_right_hamiltonian()
        q0 = np.array([0.6, 0.0, 0.8])
        p0 = np.array([0.0, 1.1, 0.0])
        h = 0.02
        first = constrained_right_hamilton_step(dual, sphere, q0, p0, h)
        second = constrained_right_hamilton_step(
            dual, sphere, first.q_next, first.p_next, h
        )
        del_step = constrained_del_step(lagrangian, sphere, q0, first.q_next, h)
        np.testing.assert_allclose(del_step.q_next, second.q_next, atol=1e-10)


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
    def test_symplectic_euler_is_first_order(self):
        stiffness = np.array([1.0, 4.0])
        hd = right_euler_hamiltonian(
            lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ (stiffness * q)),
            lambda q, p: stiffness * q,
            lambda q, p: p,
        )
        euclid = Euclidean(2)

        def step(state, h):
            result = constrained_right_hamilton_step(hd, euclid, state[:2], state[2:], h)
            return np.concatenate([result.q_next, result.p_next])

        initial = np.array([1.0, -0.5, 0.0, 0.3])
        result = order_check(step, initial, [1e-1, 5e-2, 2.5e-2], 0.5)
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
