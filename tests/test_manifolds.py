"""Geometry tests: constraints, projections, retractions, transports."""

import numpy as np
import pytest

from bregopt.bregman import BregmanParams
from bregopt.errors import DimensionError, RetractionError, TransportError
from bregopt.manifolds import RETRACT_ORTH_TOL, Sphere, Stiefel
from bregopt.optimizers import el_step

from reference_geometry import constraint_jacobian, random_tangent


def central_difference_jacobian(func, x, step=1e-5):
    f0 = np.asarray(func(x))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        delta = np.zeros_like(x)
        delta[j] = step
        jac[:, j] = (func(x + delta) - func(x - delta)) / (2.0 * step)
    return jac


def reference_stiefel_retract(st, q, v):
    """The Householder QR retraction as first written (reference for the
    CholeskyQR one)."""
    if not np.any(v):
        return q.copy()
    w = st.as_matrix(q) + st.as_matrix(v)
    qf, r = np.linalg.qr(w)
    diag = np.diag(r)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.any(np.abs(diag) < 1e-12 * scale):
        raise RetractionError("QR retraction undefined: X + V is rank deficient")
    qf = qf * np.where(diag < 0.0, -1.0, 1.0)
    return st.from_matrix(qf)


def reference_stiefel_violation(st, q):
    """The Stiefel constraint violation as first written."""
    gram = st.as_matrix(q).T @ st.as_matrix(q) - np.eye(st.m)
    return float(np.max(np.abs(gram[np.triu_indices(st.m)])))


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


class TestConstraintJacobian:
    """The test-local reference Jacobian that the dense references use."""

    def test_sphere_row_is_2q(self):
        s = Sphere(2)
        q = np.array([0.6, 0.8])
        np.testing.assert_allclose(constraint_jacobian(s, q), [[1.2, 1.6]])
        fd = central_difference_jacobian(s.constraint, q, step=1e-5)
        np.testing.assert_allclose(constraint_jacobian(s, q), fd, atol=1e-9)

    def test_stiefel_single_column(self):
        st = Stiefel(2, 1)
        np.testing.assert_allclose(
            constraint_jacobian(st, np.array([1.0, 0.0])), [[2.0, 0.0]]
        )

    def test_stiefel_matches_finite_differences(self):
        st = Stiefel(3, 2)
        rng = np.random.default_rng(3)
        # the dense multiplier reference also evaluates it off the manifold
        for q in (st.random_point(rng), rng.standard_normal(st.ambient_dim)):
            fd = central_difference_jacobian(st.constraint, q, step=1e-5)
            np.testing.assert_allclose(constraint_jacobian(st, q), fd, atol=1e-6)

    def test_full_row_rank_at_feasible_points(self):
        # zero must be a regular value: J_C J_C^T nonsingular on the manifold
        rng = np.random.default_rng(11)
        for manifold in (Sphere(4), Stiefel(5, 2), Stiefel(4, 4)):
            for _ in range(5):
                q = manifold.random_point(rng)
                jac = constraint_jacobian(manifold, q)
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
            v = random_tangent(manifold, q, rng)
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
            jac = constraint_jacobian(manifold, q)
            for _ in range(20):
                z = rng.standard_normal(manifold.ambient_dim)
                proj = manifold.tangent_project(q, z)
                assert np.max(np.abs(jac @ proj)) <= 1e-10


class TestRetract:
    def test_zero_tangent_is_identity(self):
        # a zero step arises only at the first look-ahead of el_step
        # version 2, from a run's zero velocity; it skips the retraction and
        # hands x itself to the gradient
        rng = np.random.default_rng(6)
        params = BregmanParams(p=4.0, h=1e-2)
        for manifold in (Sphere(4), Stiefel(5, 2)):
            x = manifold.random_point(rng)
            points = []

            def riemannian_grad(point):
                points.append(point)
                return np.zeros(manifold.ambient_dim)

            el_step(2, params, manifold, x, np.zeros(manifold.ambient_dim), 1,
                    riemannian_grad)
            assert points[0] is x

    def test_sphere_normalizes(self):
        s = Sphere(2)
        out, _ = s.retract(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_first_order_agreement(self):
        # |R_q(t v) - (q + t v)| should shrink like t^2
        rng = np.random.default_rng(7)
        for manifold in (Sphere(4), Stiefel(5, 2)):
            q = manifold.random_point(rng)
            v = random_tangent(manifold, q, rng)
            errs = {}
            for t in (1e-2, 1e-3):
                errs[t] = np.linalg.norm(manifold.retract(q, t * v)[0] - (q + t * v))
            ratio = errs[1e-2] / errs[1e-3]
            assert 50.0 < ratio < 200.0

    def test_feasibility_closure(self):
        rng = np.random.default_rng(8)
        for manifold in (Sphere(4), Stiefel(6, 3)):
            for _ in range(10):
                q = manifold.random_point(rng)
                v = random_tangent(manifold, q, rng)
                out, _ = manifold.retract(q, v)
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
        # X + V with two equal columns
        w = st.as_matrix(x).copy()
        w[:, 1] = w[:, 0]
        v = st.from_matrix(w) - x
        for retract in (st.retract, lambda q, v: reference_stiefel_retract(st, q, v)):
            with pytest.raises(RetractionError):
                retract(x, v)

        # columns 1e-14 apart: the Cholesky path falls back and the
        # Householder rank test raises
        w[:, 1] = w[:, 0] + 1e-14 * st.as_matrix(x)[:, 1]
        with pytest.raises(RetractionError):
            st.retract(x, st.from_matrix(w) - x)
        # orthogonal columns, one of norm 1e-13: CholeskyQR returns an
        # orthonormal Q, but the rank threshold still applies
        w = st.as_matrix(x) * np.array([1.0, 1e-13])
        with pytest.raises(RetractionError):
            st.retract(x, st.from_matrix(w) - x)

    @pytest.mark.parametrize("n,m", [(2, 1), (6, 2), (5, 5), (20, 5)])
    def test_stiefel_agrees_with_householder_qr(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(100 + n + m)
        signs = set()
        for scale in (1e-6, 1e-4, 1e-2, 0.3, 1.0):
            for _ in range(10):
                q = st.random_point(rng)
                v = scale * rng.standard_normal(st.ambient_dim)
                _, r = np.linalg.qr(st.as_matrix(q + v))
                signs.update(np.sign(np.diag(r)))
                out, _ = st.retract(q, v)
                assert np.abs(out - reference_stiefel_retract(st, q, v)).max() <= 1e-14
                assert st.constraint_violation(out) <= 1e-13
                assert st.constraint_violation(out) == reference_stiefel_violation(st, out)
                off = q + v  # off the manifold
                assert st.constraint_violation(off) == reference_stiefel_violation(st, off)
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("n,m", [(6, 2), (5, 5), (20, 5)])
    def test_stiefel_r_factor_is_upper_triangular_positive(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(200 + n + m)
        for scale in (1e-3, 0.3):
            q = st.random_point(rng)
            v = scale * rng.standard_normal(st.ambient_dim)
            r = st.as_matrix(st.retract(q, v)[0]).T @ st.as_matrix(q + v)
            assert np.abs(np.tril(r, -1)).max() <= 1e-13 * np.abs(r).max()
            assert (r.diagonal() > 0.0).all()

    def test_stiefel_ill_conditioned_falls_back_to_householder(self):
        # two columns at an angle of 1e-7: CholeskyQR loses orthogonality
        # as cond(W)^2 ~ 1e14, while the rank test still passes
        st = Stiefel(6, 2)
        x = st.random_point(np.random.default_rng(11))
        xm = st.as_matrix(x)
        w = np.column_stack([xm[:, 0], np.cos(1e-7) * xm[:, 0] + np.sin(1e-7) * xm[:, 1]])
        low = np.linalg.cholesky(w.T @ w)
        chol_q = np.linalg.solve(low, w.T).T
        assert np.abs(chol_q.T @ chol_q - np.eye(2)).max() > RETRACT_ORTH_TOL
        v = st.from_matrix(w) - x
        out, _ = st.retract(x, v)
        assert out.tobytes() == reference_stiefel_retract(st, x, v).tobytes()
        assert st.constraint_violation(out) <= 1e-13

    def test_stiefel_overflowing_gram_falls_back_to_householder(self):
        # W^T W would overflow, which warns (an error in this suite)
        st = Stiefel(6, 2)
        rng = np.random.default_rng(12)
        x = st.random_point(rng)
        v = 1e200 * rng.standard_normal(st.ambient_dim)
        out, _ = st.retract(x, v)
        assert out.tobytes() == reference_stiefel_retract(st, x, v).tobytes()


class TestTransport:
    def test_identity_when_points_coincide(self):
        rng = np.random.default_rng(10)
        for manifold in (Sphere(4), Stiefel(5, 2)):
            q = manifold.random_point(rng)
            v = random_tangent(manifold, q, rng)
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
            v = random_tangent(s, x, rng)
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
        v = random_tangent(st, x, rng)
        out = st.transport(x, y, v)
        assert np.max(np.abs(constraint_jacobian(st, y) @ out)) <= 1e-10


class TestRiemannianGradient:
    def test_sphere_constant_objective(self):
        # f(v) = -v.v is constant on the sphere, so the gradient vanishes
        s = Sphere(3)
        q = s.random_point(np.random.default_rng(14))
        np.testing.assert_allclose(s.tangent_project(q, -2.0 * q), np.zeros(3),
                                   atol=1e-14)

    def test_stiefel_constant_objective(self):
        # Brockett cost with A = I is trace(N) everywhere on the manifold
        st = Stiefel(4, 2)
        x = st.random_point(np.random.default_rng(15))
        n_diag = np.array([1.0, 2.0])
        ambient = st.from_matrix(2.0 * st.as_matrix(x) @ np.diag(n_diag))
        np.testing.assert_allclose(st.tangent_project(x, ambient), np.zeros(8),
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
        grad = st.tangent_project(x0, ambient_grad(x0))
        for _ in range(5):
            xi = random_tangent(st, x0, rng)
            eps = 1e-6
            fd = (f(st.retract(x0, eps * xi)[0]) - f(st.retract(x0, -eps * xi)[0])) / (2 * eps)
            assert abs(fd - grad @ xi) <= 1e-5 * (1.0 + abs(fd))


def bits(array):
    """The exact bits of a float array, so that -0.0 differs from 0.0."""
    return np.asarray(array, dtype=float).tobytes()


GRADIENT_MANIFOLDS = [Sphere(5), Stiefel(6, 1), Stiefel(4, 4), Stiefel(20, 5)]


class TestRetractedViolation:
    """The violation ``retract`` reports is the ``constraint_violation`` of
    the point it returns, bit for bit, which the run loop records instead of
    evaluating the constraint again."""

    @pytest.mark.parametrize("manifold", GRADIENT_MANIFOLDS, ids=repr)
    def test_bit_equal_to_constraint_violation(self, manifold):
        rng = np.random.default_rng(30)
        for scale in (1e-6, 1e-2, 0.3, 1.0):
            for _ in range(10):
                q = manifold.random_point(rng)
                v = scale * rng.standard_normal(manifold.ambient_dim)
                point, violation = manifold.retract(q, v)
                assert type(violation) is float
                assert bits(violation) == bits(manifold.constraint_violation(point))

    @pytest.mark.parametrize("manifold,case", [
        (manifold, case) for manifold in GRADIENT_MANIFOLDS if isinstance(manifold, Stiefel)
        # one column is never ill-conditioned
        for case in ("overflowing_gram",) + (("ill_conditioned",) if manifold.m > 1 else ())
    ], ids=str)
    def test_bit_equal_on_the_householder_path(self, manifold, case):
        rng = np.random.default_rng(33)
        x = manifold.random_point(rng)
        if case == "ill_conditioned":
            # the last column at an angle of 1e-7 to the first: CholeskyQR
            # loses orthogonality as cond(W)^2 ~ 1e14
            w = manifold.as_matrix(x).copy()
            w[:, -1] = np.cos(1e-7) * w[:, 0] + np.sin(1e-7) * w[:, -1]
            v = manifold.from_matrix(w) - x
            chol_q = np.linalg.solve(np.linalg.cholesky(w.T @ w), w.T).T
            assert np.abs(chol_q.T @ chol_q - np.eye(manifold.m)).max() > RETRACT_ORTH_TOL
        else:
            v = 1e200 * rng.standard_normal(manifold.ambient_dim)
        point, violation = manifold.retract(x, v)
        assert point.tobytes() == reference_stiefel_retract(manifold, x, v).tobytes()
        assert type(violation) is float
        assert bits(violation) == bits(manifold.constraint_violation(point))
        assert violation <= 1e-13

    @pytest.mark.parametrize("manifold", GRADIENT_MANIFOLDS, ids=repr)
    def test_constraint_violation_is_the_residual_norm(self, manifold):
        # on and off the manifold, and NaN for a NaN point
        rng = np.random.default_rng(31)
        q = manifold.random_point(rng)
        for point in (q, 1.1 * q, np.where(np.arange(q.size) == 0, np.nan, q)):
            expected = float(np.abs(manifold.constraint(point)).max())
            assert bits(manifold.constraint_violation(point)) == bits(expected)


class TestNamesAndStubs:
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
