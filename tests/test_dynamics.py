"""Tests of the discrete constrained mechanics, the order harness and the
dense reference Newton solver."""

import math

import numpy as np
import pytest

from bregopt import dynamics, manifolds
from bregopt.bregman import BregmanParams, ExtendedState
from bregopt.dynamics import (
    HamiltonStepResult,
    MidpointLagrangian,
    constrained_lagrangian_map,
    order_check,
    project_momentum,
)
from bregopt.errors import BregoptError, NewtonError
from bregopt.manifolds import NEWTON_MAX_ITER, NEWTON_TOL, Sphere, Stiefel
from bregopt.optimizers import htvi_step
from bregopt.problems import make_instance

from reference_geometry import (
    DenseLagrangian,
    Unconstrained,
    constraint,
    constraint_count,
    constraint_jacobian,
    newton_solve,
    packed,
    random_tangent,
)

GRAVITY = 9.81


def pendulum_lagrangian():
    return DenseLagrangian(field=np.array([0.0, 0.0, GRAVITY]))


def free_lagrangian(dim=3):
    return DenseLagrangian(field=np.zeros(dim))


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
        result = newton_solve(lambda x: x * x - 2.0, scalar_derivative, np.array([1.0]),
                              tol=1e-13)
        assert abs(result.x[0] - np.sqrt(2.0)) <= 1e-12
        assert result.iterations <= 8

    def test_zero_derivative_raises(self):
        with pytest.raises(NewtonError, match="singular Jacobian"):
            newton_solve(lambda x: x * x - 2.0, scalar_derivative, np.array([0.0]))

    def test_singular_matrix_raises(self):
        def residual(x):
            return np.array([x[0] + x[1], x[0] + x[1] - 1.0])

        with pytest.raises(NewtonError, match="singular Jacobian"):
            newton_solve(residual, lambda x: np.ones((2, 2)), np.zeros(2))

    def test_budget_exhaustion_reports_residual(self):
        # the cube root makes Newton overshoot and diverge from any start
        with pytest.raises(NewtonError) as info:
            newton_solve(np.cbrt, lambda x: np.diag(1.0 / (3.0 * np.cbrt(x) ** 2)),
                         np.array([1.0]), tol=1e-10, max_iter=3)
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
                             tol=1e-14, max_iter=budget)
            except NewtonError as exc:
                norms.append(exc.residual_norm)
        result = newton_solve(residual, jacobian, np.array([1.0, 0.2]), tol=1e-14)
        np.testing.assert_allclose(result.x, [np.sqrt(0.5)] * 2, atol=1e-14)
        assert len(norms) >= 3
        for before, after in zip(norms, norms[1:]):
            assert after <= 2.0 * before ** 2

    def test_config_validation(self):
        # the solve's tolerance and budget are manifold constants: a
        # positive tolerance under the feasibility gate that every iterate of
        # the solve must then pass, and a positive integer budget
        assert 0.0 < manifolds.NEWTON_TOL < manifolds.FEAS_TOL
        budget = manifolds.NEWTON_MAX_ITER
        assert isinstance(budget, int) and budget >= 1

    def test_nan_tol_rejected(self, monkeypatch):
        # NaN fails every comparison, so a NaN tolerance accepts no residual,
        # not even an exact zero
        with pytest.raises(NewtonError):
            newton_solve(lambda x: x - 1.0, scalar_derivative, np.array([1.0]),
                         tol=math.nan)
        monkeypatch.setattr(manifolds, "NEWTON_TOL", math.nan)
        st = Stiefel(4, 2)
        q = st.random_point(np.random.default_rng(3))
        with pytest.raises(NewtonError, match="Newton did not converge"):
            st.solve_multiplier(q, q, 0.1, None)


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
        lagrangian = DenseLagrangian(field=rng.uniform(-10.0, 10.0, 3))
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


def dense_lagrangian_map(lagrangian, manifold, q, p, h, lam0=None):
    """The constrained Euler--Lagrange map as first written: a dense Newton
    solve of the (n + d) momentum and constraint equations, to the package's
    solve tolerance and budget (reference).  ``lam0`` and the ``lam``
    returned are the ``d`` components of the multiplier (:func:`packed`)."""
    n, d = manifold.ambient_dim, constraint_count(manifold)
    jac_c = constraint_jacobian(manifold, q)

    def residual(x):
        q_next, lam = x[:n], x[n:]
        res_mom = -lagrangian.d1(q, q_next, h) + jac_c.T @ lam - p
        return np.concatenate([res_mom, constraint(manifold, q_next)])

    def jacobian(x):
        q_next = x[:n]
        top = np.hstack([-lagrangian.d12(q, q_next, h), jac_c.T])
        bottom = np.hstack([constraint_jacobian(manifold, q_next), np.zeros((d, d))])
        return np.vstack([top, bottom])

    x0 = np.concatenate([q, np.zeros(d) if lam0 is None else lam0])
    result = newton_solve(residual, jacobian, x0, manifolds.NEWTON_TOL,
                          manifolds.NEWTON_MAX_ITER)
    q_next, lam = result.x[:n], result.x[n:]
    return HamiltonStepResult(q_next, lagrangian.d2(q, q_next, h), lam)


def map_trajectory(step_map, lagrangian, manifold, q, p, h, steps):
    """Positions and momenta of ``steps`` steps, warm started and with the
    momentum projected as in the pendulum's long runs."""
    lam, states = None, []
    for _ in range(steps):
        result = step_map(lagrangian, manifold, q, p, h, lam)
        q, lam = result.q_next, result.lam
        p = project_momentum(manifold, q, result.p_next)
        states.append(np.concatenate([q, p]))
    return np.array(states)


def map_case(name):
    """Lagrangian, manifold, initial state, step size and step count."""
    pendulum = (Sphere(3), np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.2, 0.0]))
    if name.startswith("pendulum"):
        h = 1e-2 if name == "pendulum-coarse" else 1.25e-4
        return (pendulum_lagrangian(), *pendulum, h, 2000)
    if name == "sphere-tilted":
        tilted = DenseLagrangian(field=np.array([4.0, -2.5, GRAVITY]))
        return (tilted, *pendulum, 1e-2, 1000)
    rng = np.random.default_rng(21)
    if name == "stiefel-field":
        manifold = Stiefel(6, 2)
    else:
        manifold = Unconstrained(3)
    n = manifold.ambient_dim
    lagrangian = DenseLagrangian(field=rng.uniform(-10.0, 10.0, n))
    q = manifold.random_point(rng)
    return lagrangian, manifold, q, random_tangent(manifold, q, rng), 1e-2, 1000


class TestConstrainedLagrangianMap:
    @pytest.mark.parametrize("name", ["pendulum-coarse", "pendulum-fine"])
    def test_pendulum_trajectory_matches_dense_newton(self, name):
        lagrangian, manifold, q, p, h, steps = map_case(name)
        new = map_trajectory(constrained_lagrangian_map, lagrangian, manifold,
                             q, p, h, steps)
        old = map_trajectory(dense_lagrangian_map, lagrangian, manifold, q, p, h, steps)
        assert np.abs(new - old).max() <= 1e-9

    @pytest.mark.parametrize("name", ["pendulum-coarse", "sphere-tilted",
                                      "stiefel-field", "euclidean-field"])
    def test_each_step_matches_dense_newton(self, name):
        lagrangian, manifold, q, p, h, steps = map_case(name)
        states = map_trajectory(constrained_lagrangian_map, lagrangian, manifold,
                                q, p, h, steps)
        # both maps meet the same equations to NEWTON_TOL from the same state;
        # the momentum and the multiplier carry a factor 1 / h
        n, lam = manifold.ambient_dim, None
        for state in states:
            q, p = state[:n], state[n:]
            new = constrained_lagrangian_map(lagrangian, manifold, q, p, h, lam)
            old = dense_lagrangian_map(lagrangian, manifold, q, p, h,
                                       None if lam is None else packed(manifold, lam))
            assert np.abs(new.q_next - old.q_next).max() <= NEWTON_TOL
            assert np.abs(new.p_next - old.p_next).max() <= NEWTON_TOL / h
            if lam is not None and lam.size:
                assert np.abs(packed(manifold, new.lam) - old.lam).max() <= NEWTON_TOL / h
            assert manifold.constraint_violation(new.q_next) <= NEWTON_TOL
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
        lagrangian, manifold, q, p, h, _ = map_case("stiefel-field")
        result = constrained_lagrangian_map(lagrangian, manifold, q, p, h)
        jac_c = constraint_jacobian(manifold, q)
        momentum = -lagrangian.d1(q, result.q_next, h) + jac_c.T @ packed(manifold, result.lam)
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
        lagrangian, manifold, q, p, h, _ = map_case("stiefel-field")
        cold = constrained_lagrangian_map(lagrangian, manifold, q, p, h)
        warm = constrained_lagrangian_map(lagrangian, manifold, q, p, h, lam0=cold.lam)
        assert np.abs(warm.q_next - cold.q_next).max() <= NEWTON_TOL
        assert np.abs(warm.p_next - cold.p_next).max() <= NEWTON_TOL / h
        assert np.abs(warm.lam - cold.lam).max() <= NEWTON_TOL / h

    @pytest.mark.parametrize("name", ["pendulum-coarse", "sphere-tilted",
                                      "stiefel-field"])
    def test_no_newton_on_the_sphere(self, name, monkeypatch):
        lagrangian, manifold, q, p, h, _ = map_case(name)
        counts = []
        solve = manifold.solve_multiplier

        def counting_solve(*args):
            result = solve(*args)
            counts.append(result[4])
            return result

        monkeypatch.setattr(manifold, "solve_multiplier", counting_solve)
        map_trajectory(constrained_lagrangian_map, lagrangian, manifold, q, p, h, 50)
        assert len(counts) >= 50
        if isinstance(manifold, Sphere):
            # a closed-form root
            assert set(counts) == {0}
        else:
            # the Stiefel multiplier solve iterates at least once per step
            assert sum(counts) >= 50
            assert max(counts) <= NEWTON_MAX_ITER

    @pytest.mark.parametrize("name", ["pendulum-coarse"])
    @pytest.mark.parametrize("h", [3e-7, 1e-7])
    def test_tiny_steps_stop_at_the_rounding_floor(self, name, h):
        # rounding keeps the momentum residual near ulp(q) / h, above
        # NEWTON_TOL at these steps; the one SHAKE step meets the equations
        # to that floor, while the dense Newton fails from some states
        lagrangian, manifold = map_case(name)[:2]
        rng = np.random.default_rng(5)
        failures = {constrained_lagrangian_map: 0, dense_lagrangian_map: 0}
        for _ in range(20):
            q = manifold.random_point(rng)
            p = 1.5 * random_tangent(manifold, q, rng)
            results = {}
            for step_map in failures:
                try:
                    results[step_map] = step_map(lagrangian, manifold, q, p, h)
                except NewtonError:
                    failures[step_map] += 1
            new = results[constrained_lagrangian_map]
            momentum = (-lagrangian.d1(q, new.q_next, h)
                        + constraint_jacobian(manifold, q).T @ new.lam)
            assert np.abs(momentum - p).max() <= 4.0 * np.spacing(1.0) / h
            assert manifold.constraint_violation(new.q_next) <= NEWTON_TOL
            if dense_lagrangian_map in results:
                old = results[dense_lagrangian_map]
                assert np.abs(new.q_next - old.q_next).max() <= NEWTON_TOL
        assert failures[constrained_lagrangian_map] == 0
        assert failures[dense_lagrangian_map] > 0

    def test_patched_tolerance_reaches_the_multiplier_solve(self, monkeypatch):
        # the Stiefel multiplier solve inside the map reads NEWTON_TOL at
        # call time, so a looser one ends it sooner
        lagrangian, manifold, q, p, h, _ = map_case("stiefel-field")
        solve = manifold.solve_multiplier
        steps = {}
        for tol in (NEWTON_TOL, 1e-6):
            monkeypatch.setattr(manifolds, "NEWTON_TOL", tol)
            counts = []

            def counting_solve(*args):
                result = solve(*args)
                counts.append(result[4])
                return result

            monkeypatch.setattr(manifold, "solve_multiplier", counting_solve)
            result = constrained_lagrangian_map(lagrangian, manifold, q, p, h)
            assert manifold.constraint_violation(result.q_next) <= tol
            steps[tol] = sum(counts)
        assert steps[1e-6] < steps[NEWTON_TOL]

    @pytest.mark.parametrize("name", ["pendulum-coarse", "stiefel-field"])
    def test_next_position_is_the_solve_landing(self, name, monkeypatch):
        # the map takes q_next from the multiplier solve, the one landing
        # formula, and builds p_next from it
        lagrangian, manifold, q, p, h, _ = map_case(name)
        solve = manifold.solve_multiplier
        landings = []

        def recording_solve(*args):
            result = solve(*args)
            landings.append(result[2].copy())
            return result

        monkeypatch.setattr(manifold, "solve_multiplier", recording_solve)
        for _ in range(20):
            result = constrained_lagrangian_map(lagrangian, manifold, q, p, h)
            assert result.q_next.tobytes() == landings[-1].tobytes()
            force = 0.5 * h * lagrangian.field
            assert result.p_next.tobytes() == ((result.q_next - q) / h - force).tobytes()
            q, p = result.q_next, result.p_next

    def test_needs_a_midpoint_lagrangian(self):
        # the map reads only the field, so a bare MidpointLagrangian takes
        # the same step as one with its partials
        for name in ("pendulum-coarse", "stiefel-field"):
            lagrangian, manifold, q, p, h, _ = map_case(name)
            bare = MidpointLagrangian(field=lagrangian.field)
            full = constrained_lagrangian_map(lagrangian, manifold, q, p, h)
            step = constrained_lagrangian_map(bare, manifold, q, p, h)
            for got, want in zip(step, full):
                np.testing.assert_array_equal(got, want)


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
    def test_htvi_is_first_order(self, direction, seed, monkeypatch):
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
            f_val, grad = problem.value_and_grad(q)
            nxt, _ = htvi_step(direction, params[h], manifold, current, grad, f_val)
            return np.concatenate([nxt.q, [nxt.q_t], nxt.r, [nxt.r_t]])

        q0 = manifold.random_point(np.random.default_rng(0))
        initial = np.concatenate([q0, [1.0], np.zeros(n), [0.0]])
        monkeypatch.setattr(dynamics, "REFERENCE_REFINEMENT", 20)
        result = order_check(step, initial, [0.02, 0.01, 0.005], 1.0)
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

    def test_exact_map_fits_no_rate_at_the_noise_floor(self):
        # a map that is exact for its system leaves zero terminal error at
        # every step size, so all points are dropped and no rate is fitted
        def exact(state, h):
            return state.copy()

        with pytest.warns(UserWarning, match="noise floor") as caught:
            result = order_check(exact, np.array([1.0, 0.3]),
                                 [1e-1, 5e-2, 2.5e-2], 1.0)
        assert np.isnan(result.rate)
        assert result.step_sizes == [] and result.errors == []
        assert len(caught) == 3

    def test_diverging_terminal_state_is_a_numerical_failure(self):
        # symplectic Euler on stiffness 9 is unstable for h > 2/3, so the
        # h = 4 trajectory overflows; the map's overflow and invalid-value
        # warnings are off (the suite turns warnings into errors) and the
        # failure names the step size before any error is formed
        stiffness = np.array([1.0, 4.0, 9.0])

        def euler(state, h):
            q, p = state[:3], state[3:]
            p_next = p - h * stiffness * q
            return np.concatenate([q + h * p_next, p_next])

        initial = np.array([1.0, -0.5, 0.25, 0.0, 0.3, -0.2])
        with pytest.raises(BregoptError,
                           match=r"^the trajectory at h=4\.0 is not finite at time 2000\.0$"):
            order_check(euler, initial, [4.0, 2.0, 1.0], 2000.0)

    def test_diverging_reference_is_a_numerical_failure(self):
        # every trajectory overflows; the reference, at 0.025 / 100 and run
        # first, is named
        def growth(state, h):
            return state * (1.0 + 1.0 / h)

        with pytest.raises(BregoptError, match=r"^the trajectory at h=0\.00025 is not finite"):
            order_check(growth, np.array([1.0, -1.0]), [0.1, 0.05, 0.025], 1.0)

    def test_failing_step_names_the_run(self):
        # a map that raises at its third step fails the reference run, at
        # 0.025 / 100 and run first; one that raises for h > 0.06 fails the
        # h = 0.1 run at its first step.  Each message names the step size
        # and the time the failing step starts from, and chains the original
        def third_step_fails(state, h):
            if state[0] >= 2.0:
                raise NewtonError("no multiplier")
            return state + 1.0

        def long_steps_fail(state, h):
            if h > 0.06:
                raise NewtonError("no multiplier")
            return state

        for step_map, message in (
            (third_step_fails, "the trajectory at h=0.00025 fails at time 0.0005: no multiplier"),
            (long_steps_fail, "the trajectory at h=0.1 fails at time 0.0: no multiplier"),
        ):
            with pytest.raises(BregoptError) as caught:
                order_check(step_map, np.zeros(2), [0.1, 0.05, 0.025], 1.0)
            assert str(caught.value) == message
            assert isinstance(caught.value.__cause__, NewtonError)

    def test_input_validation(self):
        step = lambda state, h: state
        with pytest.raises(ValueError):
            order_check(step, np.zeros(2), [0.1, 0.05], 1.0)
        with pytest.raises(ValueError):
            order_check(step, np.zeros(2), [0.05, 0.1, 0.2], 1.0)
        with pytest.raises(ValueError):
            order_check(step, np.zeros(2), [0.1, 0.05, 0.025], -1.0)
        # non-positive or nan step sizes and an infinite or nan duration
        # would divide by zero or leave no step count; an infinite step
        # would be snapped to one step of the duration
        for h_list in ([0.1, 0.05, 0.0], [0.1, 0.0, -0.1], [0.1, math.nan, 0.01],
                       [math.inf, 0.1, 0.05]):
            with pytest.raises(ValueError, match="positive, finite and strictly decreasing"):
                order_check(step, np.zeros(2), h_list, 1.0)
        for duration in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="duration"):
                order_check(step, np.zeros(2), [0.1, 0.05, 0.025], duration)
        # a reference run, at min(h_list) / REFERENCE_REFINEMENT, of more
        # steps than the budget, or of too many for duration / h to be finite
        longest = 0.01 / dynamics.REFERENCE_REFINEMENT * dynamics.REFERENCE_STEP_BUDGET
        for h_list, duration in (([0.1, 0.05, 5e-324], 1.0), ([0.1, 0.05, 1e-300], 1.0),
                                 ([0.1, 0.05, 0.01], 1.01 * longest)):
            with pytest.raises(ValueError, match="reference steps"):
                order_check(step, np.zeros(2), h_list, duration)
