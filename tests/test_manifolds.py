"""Geometry tests: constraints, projections, retractions, transports."""

import numpy as np
import pytest

from bregopt.errors import (
    DimensionError,
    FeasibilityError,
    RetractionError,
    TransportError,
)
from bregopt.manifolds import Euclidean, Sphere, Stiefel, manifold_from_name


def central_difference_jacobian(func, x, step=1e-5):
    f0 = np.asarray(func(x))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        delta = np.zeros_like(x)
        delta[j] = step
        jac[:, j] = (func(x + delta) - func(x - delta)) / (2.0 * step)
    return jac


def loop_stiefel_jacobian(st, q):
    """Row by row constraint Jacobian of a Stiefel point, written as a loop
    over the constraint components (reference for the vectorized one)."""
    x = st.as_matrix(q)
    jac = np.zeros((st.constraint_dim, st.ambient_dim))
    for row, (i, j) in enumerate(zip(*np.triu_indices(st.m))):
        grad = np.zeros((st.n, st.m))
        grad[:, i] += x[:, j]
        grad[:, j] += x[:, i]
        jac[row] = grad.reshape(-1, order="F")
    return jac


class TestConstraint:
    def test_sphere_feasible_point(self):
        s = Sphere(2)
        np.testing.assert_allclose(s.constraint(np.array([0.6, 0.8])), [0.0], atol=1e-15)

    def test_sphere_infeasible_point(self):
        s = Sphere(2)
        np.testing.assert_allclose(s.constraint(np.array([2.0, 0.0])), [3.0])

    def test_stiefel_identity_column(self):
        st = Stiefel(2, 1)
        np.testing.assert_allclose(st.constraint(np.array([1.0, 0.0])), [0.0], atol=1e-15)

    def test_stiefel_constraint_length(self):
        st = Stiefel(5, 3)
        q = st.random_point(np.random.default_rng(0))
        assert st.constraint(q).shape == (6,)
        assert st.constraint_violation(q) <= 1e-14

    def test_dimension_mismatch(self):
        s = Sphere(3)
        with pytest.raises(DimensionError):
            s.constraint(np.array([1.0, 0.0]))
        with pytest.raises(DimensionError):
            s.constraint_jacobian(np.zeros(5))


class TestConstraintJacobian:
    def test_sphere_row_is_2q(self):
        s = Sphere(2)
        np.testing.assert_allclose(
            s.constraint_jacobian(np.array([0.6, 0.8])), [[1.2, 1.6]]
        )

    def test_stiefel_single_column(self):
        st = Stiefel(2, 1)
        np.testing.assert_allclose(
            st.constraint_jacobian(np.array([1.0, 0.0])), [[2.0, 0.0]]
        )

    def test_stiefel_matches_finite_differences(self):
        st = Stiefel(3, 2)
        q = st.random_point(np.random.default_rng(3))
        fd = central_difference_jacobian(st.constraint, q, step=1e-5)
        np.testing.assert_allclose(st.constraint_jacobian(q), fd, atol=1e-6)

    @pytest.mark.parametrize("n,m", [(2, 1), (6, 2), (5, 5), (20, 5)])
    def test_stiefel_bit_equal_to_loop(self, n, m):
        # the multiplier solves also evaluate the Jacobian off the manifold
        st = Stiefel(n, m)
        rng = np.random.default_rng(n * 10 + m)
        for q in (st.random_point(rng), rng.standard_normal(n * m)):
            np.testing.assert_array_equal(st.constraint_jacobian(q),
                                          loop_stiefel_jacobian(st, q))

    def test_full_row_rank_at_feasible_points(self):
        # zero must be a regular value: J_C J_C^T nonsingular on the manifold
        rng = np.random.default_rng(11)
        for manifold in (Sphere(4), Stiefel(5, 2), Stiefel(4, 4)):
            for _ in range(5):
                q = manifold.random_point(rng)
                jac = manifold.constraint_jacobian(q)
                gram_eigs = np.linalg.eigvalsh(jac @ jac.T)
                assert gram_eigs.min() > 1e-8


class TestTangentProject:
    def test_stiefel_projects_base_to_zero(self):
        st = Stiefel(4, 2)
        x = st.random_point(np.random.default_rng(1))
        np.testing.assert_allclose(st.tangent_project(x, x), np.zeros(8), atol=1e-14)

    def test_fixes_tangent_vectors(self):
        rng = np.random.default_rng(2)
        for manifold in (Sphere(5), Stiefel(4, 2)):
            q = manifold.random_point(rng)
            v = manifold.random_tangent(q, rng)
            np.testing.assert_allclose(manifold.tangent_project(q, v), v, atol=1e-12)

    def test_sphere_removes_radial_part(self):
        s = Sphere(2)
        out = s.tangent_project(np.array([1.0, 0.0]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [0.0, 4.0], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for manifold in (Sphere(6), Stiefel(5, 3)):
            q = manifold.random_point(rng)
            for _ in range(5):
                z = rng.standard_normal(manifold.ambient_dim)
                once = manifold.tangent_project(q, z)
                twice = manifold.tangent_project(q, once)
                np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_output_in_constraint_kernel(self):
        rng = np.random.default_rng(5)
        for manifold in (Sphere(6), Stiefel(5, 3)):
            q = manifold.random_point(rng)
            jac = manifold.constraint_jacobian(q)
            for _ in range(20):
                z = rng.standard_normal(manifold.ambient_dim)
                proj = manifold.tangent_project(q, z)
                assert np.max(np.abs(jac @ proj)) <= 1e-10

    def test_infeasible_base_rejected(self):
        s = Sphere(3)
        with pytest.raises(FeasibilityError):
            s.tangent_project(np.array([2.0, 0.0, 0.0]), np.zeros(3))


class TestRetract:
    def test_zero_tangent_is_identity(self):
        rng = np.random.default_rng(6)
        for manifold in (Sphere(4), Stiefel(5, 2)):
            q = manifold.random_point(rng)
            np.testing.assert_array_equal(
                manifold.retract(q, np.zeros(manifold.ambient_dim)), q
            )

    def test_sphere_normalizes(self):
        s = Sphere(2)
        out = s.retract(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_first_order_agreement(self):
        # |R_q(t v) - (q + t v)| should shrink like t^2
        rng = np.random.default_rng(7)
        for manifold in (Sphere(4), Stiefel(5, 2)):
            q = manifold.random_point(rng)
            v = manifold.random_tangent(q, rng)
            errs = {}
            for t in (1e-2, 1e-3):
                errs[t] = np.linalg.norm(manifold.retract(q, t * v) - (q + t * v))
            ratio = errs[1e-2] / errs[1e-3]
            assert 50.0 < ratio < 200.0

    def test_feasibility_closure(self):
        rng = np.random.default_rng(8)
        for manifold in (Sphere(4), Stiefel(6, 3)):
            for _ in range(10):
                q = manifold.random_point(rng)
                v = manifold.random_tangent(q, rng)
                out = manifold.retract(q, v)
                assert manifold.constraint_violation(out) <= 1e-12

    def test_sphere_degenerate_input(self):
        s = Sphere(2)
        q = np.array([1.0, 0.0])
        with pytest.raises(RetractionError):
            s.retract(q, -q)

    def test_stiefel_rank_deficient_input(self):
        st = Stiefel(3, 2)
        x = st.random_point(np.random.default_rng(9))
        with pytest.raises(RetractionError):
            st.retract(x, -x)


class TestTransport:
    def test_identity_when_points_coincide(self):
        rng = np.random.default_rng(10)
        for manifold in (Sphere(4), Stiefel(5, 2)):
            q = manifold.random_point(rng)
            v = manifold.random_tangent(q, rng)
            np.testing.assert_allclose(manifold.transport(q, q, v), v, atol=1e-13)

    def test_sphere_vector_normal_to_great_circle_plane(self):
        s = Sphere(3)
        e1, e2, e3 = np.eye(3)
        np.testing.assert_allclose(s.transport(e1, e2, e3), e3, atol=1e-15)

    def test_sphere_isometry_and_tangency(self):
        s = Sphere(5)
        rng = np.random.default_rng(12)
        for _ in range(10):
            x, y = s.random_point(rng), s.random_point(rng)
            v = s.random_tangent(x, rng)
            out = s.transport(x, y, v)
            assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-12
            assert abs(out @ y) <= 1e-12

    def test_sphere_antipodal_rejected(self):
        s = Sphere(3)
        e1 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(TransportError):
            s.transport(e1, -e1, np.array([0.0, 1.0, 0.0]))

    def test_stiefel_transport_lands_in_target_tangent(self):
        st = Stiefel(5, 2)
        rng = np.random.default_rng(13)
        x, y = st.random_point(rng), st.random_point(rng)
        v = st.random_tangent(x, rng)
        out = st.transport(x, y, v)
        assert np.max(np.abs(st.constraint_jacobian(y) @ out)) <= 1e-10


class TestRiemannianGradient:
    def test_sphere_constant_objective(self):
        # f(v) = -v.v is constant on the sphere, so the gradient vanishes
        s = Sphere(3)
        q = s.random_point(np.random.default_rng(14))
        np.testing.assert_allclose(s.riemannian_gradient(q, -2.0 * q), np.zeros(3),
                                   atol=1e-14)

    def test_stiefel_constant_objective(self):
        # Brockett cost with A = I is trace(N) everywhere on the manifold
        st = Stiefel(4, 2)
        x = st.random_point(np.random.default_rng(15))
        n_diag = np.array([1.0, 2.0])
        ambient = st.from_matrix(2.0 * st.as_matrix(x) @ np.diag(n_diag))
        np.testing.assert_allclose(st.riemannian_gradient(x, ambient), np.zeros(8),
                                   atol=1e-13)

    def test_directional_derivative_through_retraction(self):
        rng = np.random.default_rng(16)
        st = Stiefel(4, 2)
        a = rng.standard_normal((4, 4))
        a = a + a.T

        def f(q):
            x = st.as_matrix(q)
            return float(np.trace(x.T @ a @ x @ np.diag([1.0, 2.0])))

        def ambient_grad(q):
            x = st.as_matrix(q)
            return st.from_matrix(2.0 * a @ x @ np.diag([1.0, 2.0]))

        x0 = st.random_point(rng)
        grad = st.riemannian_gradient(x0, ambient_grad(x0))
        for _ in range(5):
            xi = st.random_tangent(x0, rng)
            eps = 1e-6
            fd = (f(st.retract(x0, eps * xi)) - f(st.retract(x0, -eps * xi))) / (2 * eps)
            assert abs(fd - grad @ xi) <= 1e-5 * (1.0 + abs(fd))


class TestNamesAndStubs:
    def test_name_parser(self):
        assert isinstance(manifold_from_name("sphere:10"), Sphere)
        st = manifold_from_name("stiefel:20,5")
        assert isinstance(st, Stiefel) and st.ambient_dim == 100
        assert manifold_from_name("euclidean:4").constraint_dim == 0

    def test_name_parser_rejects_garbage(self):
        for bad in ("sphere", "sphere:x", "stiefel:5", "torus:3"):
            with pytest.raises(ValueError):
                manifold_from_name(bad)

    def test_euclidean_stub_is_unconstrained(self):
        e = Euclidean(3)
        q = np.array([1.0, 2.0, 3.0])
        assert e.constraint(q).size == 0
        assert e.constraint_jacobian(q).shape == (0, 3)
        assert e.constraint_violation(q) == 0.0
        v = np.array([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(e.retract(q, v), q + v)

    def test_stiefel_flattening_round_trip(self):
        st = Stiefel(4, 2)
        x = st.random_point(np.random.default_rng(17))
        np.testing.assert_array_equal(st.from_matrix(st.as_matrix(x)), x)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Stiefel(3, 4)
        with pytest.raises(ValueError):
            Stiefel(1, 1)
        with pytest.raises(ValueError):
            Sphere(1)
