"""Geometry tests: constraints, projections, retractions, transports."""

import math
import warnings

import numpy as np
import pytest

from bregopt.bregman import BregmanParams
from bregopt import manifolds
from bregopt.errors import NewtonError, RetractionError, TransportError
from bregopt.manifolds import RETRACT_ORTH_TOL, Sphere, Stiefel
from bregopt.optimizers import el_step

from reference_geometry import (
    column_major_retract,
    column_major_solve_multiplier,
    column_major_tangent_project,
    column_major_violation,
    constraint,
    constraint_count,
    constraint_jacobian,
    manifold_id,
    matrix,
    random_history,
    random_tangent,
    unpacked,
)


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
    w = matrix(st, q) + matrix(st, v)
    qf, r = np.linalg.qr(w)
    diag = np.diag(r)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.any(np.abs(diag) < 1e-12 * scale):
        raise RetractionError("QR retraction undefined: X + V is rank deficient")
    qf = qf * np.where(diag < 0.0, -1.0, 1.0)
    return st.from_matrix(qf)


def reference_stiefel_violation(st, q):
    """The Stiefel constraint violation as first written."""
    gram = matrix(st, q).T @ matrix(st, q) - np.eye(st.m)
    return float(np.max(np.abs(gram[np.triu_indices(st.m)])))


class TestConstraint:
    def test_sphere_feasible_point(self):
        s = Sphere(2)
        assert s.constraint_violation(np.array([0.6, 0.8])) <= 1e-15

    def test_sphere_infeasible_point(self):
        s = Sphere(2)
        assert s.constraint_violation(np.array([2.0, 0.0])) == 3.0

    def test_stiefel_identity_column(self):
        st = Stiefel(2, 1)
        assert st.constraint_violation(np.array([1.0, 0.0])) == 0.0

    def test_stiefel_constraint_length(self):
        st = Stiefel(5, 3)
        q = st.random_point(np.random.default_rng(0))
        assert constraint_count(st) == constraint(st, q).size == 6
        assert st.constraint_violation(q) <= 1e-14


class TestConstraintJacobian:
    """The test-local reference Jacobian that the dense references use."""

    def test_sphere_row_is_2q(self):
        s = Sphere(2)
        q = np.array([0.6, 0.8])
        np.testing.assert_allclose(constraint_jacobian(s, q), [[1.2, 1.6]])
        fd = central_difference_jacobian(lambda q: constraint(s, q), q, step=1e-5)
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
            fd = central_difference_jacobian(lambda q: constraint(st, q), q, step=1e-5)
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
        w = matrix(st, x).copy()
        w[:, 1] = w[:, 0]
        v = st.from_matrix(w) - x
        for retract in (st.retract, lambda q, v: reference_stiefel_retract(st, q, v)):
            with pytest.raises(RetractionError):
                retract(x, v)

        # columns 1e-14 apart: the Cholesky path falls back and the
        # Householder rank test raises
        w[:, 1] = w[:, 0] + 1e-14 * matrix(st, x)[:, 1]
        with pytest.raises(RetractionError):
            st.retract(x, st.from_matrix(w) - x)
        # orthogonal columns, one of norm 1e-13: CholeskyQR returns an
        # orthonormal Q, but the rank threshold still applies
        w = matrix(st, x) * np.array([1.0, 1e-13])
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
                _, r = np.linalg.qr(matrix(st, q + v))
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
            r = matrix(st, st.retract(q, v)[0]).T @ matrix(st, q + v)
            assert np.abs(np.tril(r, -1)).max() <= 1e-13 * np.abs(r).max()
            assert (r.diagonal() > 0.0).all()

    def test_stiefel_ill_conditioned_falls_back_to_householder(self):
        # two columns at an angle of 1e-7: CholeskyQR loses orthogonality
        # as cond(W)^2 ~ 1e14, while the rank test still passes
        st = Stiefel(6, 2)
        x = st.random_point(np.random.default_rng(11))
        xm = matrix(st, x)
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
        ambient = st.from_matrix(2.0 * matrix(st, x) @ np.diag(n_diag))
        np.testing.assert_allclose(st.tangent_project(x, ambient), np.zeros(8),
                                   atol=1e-13)

    def test_directional_derivative_through_retraction(self):
        rng = np.random.default_rng(16)
        st = Stiefel(4, 2)
        a = rng.standard_normal((4, 4))
        a = a + a.T

        def f(q):
            x = matrix(st, q)
            return float(np.trace(x.T @ a @ x @ np.diag([1.0, 2.0])))

        def ambient_grad(q):
            x = matrix(st, q)
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

    @pytest.mark.parametrize("manifold", GRADIENT_MANIFOLDS, ids=manifold_id)
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
    ], ids=manifold_id)
    def test_bit_equal_on_the_householder_path(self, manifold, case):
        rng = np.random.default_rng(33)
        x = manifold.random_point(rng)
        if case == "ill_conditioned":
            # the last column at an angle of 1e-7 to the first: CholeskyQR
            # loses orthogonality as cond(W)^2 ~ 1e14
            w = matrix(manifold, x).copy()
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

    @pytest.mark.parametrize("manifold", GRADIENT_MANIFOLDS, ids=manifold_id)
    def test_constraint_violation_is_the_residual_norm(self, manifold):
        # on and off the manifold, and NaN for a NaN point
        rng = np.random.default_rng(31)
        q = manifold.random_point(rng)
        for point in (q, 1.1 * q, np.where(np.arange(q.size) == 0, np.nan, q)):
            expected = float(np.abs(constraint(manifold, point)).max())
            assert bits(manifold.constraint_violation(point)) == bits(expected)


# The shape of ``test_large_stiefel_stays_on_the_manifold``, where BLAS
# splits the products into blocks.
BLOCKED_SHAPE = (200, 40)
LAYOUT_SHAPES = [(2, 1), (6, 2), (7, 3), (5, 5), (20, 5), BLOCKED_SHAPE]


class TestColumnMajorReference:
    """The kernels read a flat point row-major, as ``X^T``; each gives the
    bits of its column-major formula on ``X`` (``reference_geometry``)."""

    @staticmethod
    def points(st, rng):
        """Points on the manifold and drifted off it, as the steps pass them."""
        for scale in (0.0, 1e-6, 1e-2, 0.3):
            for _ in range(5):
                yield st.random_point(rng) + scale * rng.standard_normal(st.ambient_dim)

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_tangent_project_and_transport(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(40)
        for q in self.points(st, rng):
            z = rng.standard_normal(st.ambient_dim)
            expected = column_major_tangent_project(st, q, z)
            assert np.array_equal(st.tangent_project(q, z), expected)
            assert np.array_equal(st.transport(q, q, z), expected)

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_constraint_violation(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(41)
        for q in self.points(st, rng):
            assert bits(st.constraint_violation(q)) == bits(column_major_violation(st, q))

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_retract_on_the_cholesky_path(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(42)
        for q in self.points(st, rng):
            for scale in (1e-6, 1e-2, 0.3, 1.0):
                v = scale * rng.standard_normal(st.ambient_dim)
                point, violation = st.retract(q, v)
                ref_point, ref_violation = column_major_retract(st, q, v)
                assert np.array_equal(point, ref_point)
                assert bits(violation) == bits(ref_violation)

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_retract_on_the_householder_path(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(43)
        x = st.random_point(rng)
        steps = [1e200 * rng.standard_normal(st.ambient_dim)]  # W^T W overflows
        if m > 1:
            # the last column at an angle of 1e-7 to the first fails the
            # CholeskyQR orthogonality test
            w = matrix(st, x).copy()
            w[:, -1] = np.cos(1e-7) * w[:, 0] + np.sin(1e-7) * w[:, -1]
            steps.append(st.from_matrix(w) - x)
        for v in steps:
            point, violation = st.retract(x, v)
            ref_point, ref_violation = column_major_retract(st, x, v)
            assert np.array_equal(point, ref_point)
            assert bits(violation) == bits(ref_violation)
        # a rank-deficient W raises on both
        for retract in (st.retract, lambda q, v: column_major_retract(st, q, v)):
            with pytest.raises(RetractionError, match="rank deficient"):
                retract(x, -x)

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_solve_multiplier(self, n, m, monkeypatch):
        st = Stiefel(n, m)
        rng = np.random.default_rng(44)
        # a drift of the small shapes' spread is out of reach at the
        # blocked shape, where the Gram matrix sums 200 squares
        spread = 0.5 / np.sqrt(m) if (n, m) == BLOCKED_SHAPE else 0.5
        cases = []
        for coeff in (0.05, 0.2):
            for warm in (False, True):
                q = st.random_point(rng)
                drift = q + coeff * spread * rng.standard_normal(st.ambient_dim)
                lam0 = random_history(st, rng) if warm else None
                cases.append((drift, q, coeff, lam0))

        def assert_same(drift, q, coeff, lam0):
            lam, normal, point, violation, iters = st.solve_multiplier(drift, q, coeff, lam0)
            ref_lam, ref_normal, ref_point, ref_violation, ref_iters = \
                column_major_solve_multiplier(st, drift, q, coeff, lam0)
            assert lam.tobytes() == ref_lam.tobytes()
            assert normal.tobytes() == ref_normal.tobytes()
            assert point.tobytes() == ref_point.tobytes()
            assert bits(violation) == bits(ref_violation)
            assert iters == ref_iters
            return iters

        assert all(1 <= assert_same(*case) <= manifolds.NEWTON_MAX_ITER for case in cases)
        # the exact Riccati step alone
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 0)
        assert all(assert_same(*case) == 1 for case in cases)

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_solve_multiplier_error_on_an_unreachable_drift(self, n, m, monkeypatch):
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 5)
        st = Stiefel(n, m)
        q = st.random_point(np.random.default_rng(45))
        with pytest.raises(NewtonError) as ours:
            st.solve_multiplier(q + 50.0, q, 1e-3, None)
        with pytest.raises(NewtonError) as ref:
            column_major_solve_multiplier(st, q + 50.0, q, 1e-3, None)
        assert "unreachable" in str(ours.value)
        assert str(ours.value) == str(ref.value)
        assert bits(ours.value.residual_norm) == bits(ref.value.residual_norm)
        assert ours.value.iterations == ref.value.iterations

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_solve_multiplier_rejects_a_wrong_length_guess(self, n, m):
        # lam0 is read as three m x m matrices, so a guess of another
        # length, such as one S or the m (m + 1) / 2 constraint components,
        # is an error and not a silent truncation
        st = Stiefel(n, m)
        q = st.random_point(np.random.default_rng(46))
        for size in {m * m, 3 * m * m - 1, 3 * m * m + 1, constraint_count(st)} - {3 * m * m}:
            with pytest.raises(ValueError, match="cannot reshape"):
                st.solve_multiplier(q, q, 0.1, np.zeros(size))


class TestSolvedViolation:
    """The point ``solve_multiplier`` returns is its landing, and the
    violation it reports is that point's ``constraint_violation``, bit for
    bit, which the HTVI step records instead of evaluating the constraint
    again."""

    @pytest.mark.parametrize("manifold", [Sphere(5)] + [Stiefel(n, m) for n, m in LAYOUT_SHAPES],
                             ids=manifold_id)
    def test_bit_equal_to_constraint_violation(self, manifold, monkeypatch):
        rng = np.random.default_rng(47)
        # as in TestColumnMajorReference.test_solve_multiplier
        blocked = isinstance(manifold, Stiefel) and (manifold.n, manifold.m) == BLOCKED_SHAPE
        spread = 0.5 / np.sqrt(manifold.m) if blocked else 0.5
        cases = []
        for coeff in (0.05, 0.2):
            for warm in (False, True):
                q = manifold.random_point(rng)
                drift = q + coeff * spread * rng.standard_normal(manifold.ambient_dim)
                lam0 = (unpacked(manifold, 0.1 * rng.standard_normal(constraint_count(manifold)))
                        if warm else None)
                cases.append((drift, q, coeff, lam0))

        def check(drift, q, coeff, lam0):
            lam, _, point, violation, iters = manifold.solve_multiplier(drift, q, coeff, lam0)
            assert type(violation) is float
            assert bits(violation) == bits(manifold.constraint_violation(point))
            assert violation <= manifolds.NEWTON_TOL
            if isinstance(manifold, Sphere):
                expected = drift - lam[0] * ((2.0 * coeff) * q)
                assert point.tobytes() == expected.tobytes()
            return iters

        for case in cases:
            check(*case)
        # the exact Riccati step alone
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 0)
        iterations = {check(*case) for case in cases}
        assert iterations == ({0} if isinstance(manifold, Sphere) else {1})


def reduced_extremum(reduce, a):
    """The ``np.maximum``/``np.minimum`` reduction of ``|a|`` as a Python
    float: the reading the Stiefel kernels replaced."""
    return float(reduce.reduce(np.abs(a), axis=None))


def reduced_violation(st, q):
    """``max |X^T X - I|`` with the Gram matrix formed as the kernels form
    it and its maximum read by ``np.maximum.reduce``."""
    xt = q.reshape(st.m, st.n)
    with np.errstate(all="ignore"):
        gram = xt.dot(xt.T) - st._eye
    return reduced_extremum(np.maximum, gram)


def extreme_arrays(shape, rng):
    """Arrays of ``shape`` that test a max or min reading: random signs,
    NaN and +-inf first, in the middle and last, inf together with NaN in
    both orders, -0.0, subnormals, ties of opposite sign and all-equal
    entries."""
    size = math.prod(shape)
    base = rng.standard_normal(shape)
    yield base
    for index in sorted({0, size // 2, size - 1}):
        for value in (np.nan, np.inf, -np.inf):
            a = base.copy()
            a.flat[index] = value
            yield a
    if size > 1:
        for first, second in ((np.inf, np.nan), (np.nan, -np.inf)):
            a = base.copy()
            a.flat[0], a.flat[size - 1] = first, second
            yield a
    yield np.full(shape, -0.0)
    signed_zeros = np.zeros(shape)
    signed_zeros.flat[::2] = -0.0
    yield signed_zeros
    for tiny in (5e-324, 2.2e-310):
        subnormal = np.full(shape, tiny)
        subnormal.flat[::2] = -tiny
        subnormal.flat[size // 2] = 0.0
        yield subnormal
    tie = 1e-3 * base
    tie.flat[0], tie.flat[size - 1] = -3.0, 3.0
    yield tie
    yield np.full(shape, -1.5)


class TestExtremaThroughArgmax:
    """The Stiefel kernels read ``max |a|`` as ``b.item(b.argmax())`` of
    ``b = |a|``, and ``min |a|`` with ``argmin``.  Each reading is the float
    ``np.maximum.reduce`` (``np.minimum.reduce``) gives, bit for bit: the
    extremum is an entry, ``argmax`` stops at the first NaN, and ``item``
    returns a Python float."""

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (5, 20)])
    def test_reading_is_the_reduction(self, shape):
        rng = np.random.default_rng(60)
        for a in extreme_arrays(shape, rng):
            for data in (a, a.astype(complex) * (1.0 - 1.0j)):
                b = np.abs(data)
                for reduce, read in ((np.maximum, b.item(b.argmax())),
                                     (np.minimum, b.item(b.argmin()))):
                    assert type(read) is float
                    assert bits(read) == bits(reduced_extremum(reduce, data)), (a, reduce)

    @pytest.mark.parametrize("n,m", [(2, 1), (5, 5), (20, 5)])
    def test_violations_read_as_the_reduction(self, n, m):
        # constraint_violation and the violation retract returns, on the
        # Cholesky path, the Householder path and non-finite steps
        st = Stiefel(n, m)
        rng = np.random.default_rng(61)
        q = st.random_point(rng)
        for scale in (1e-6, 1e-2, 0.3, 1.0, 1e200):
            for step in extreme_arrays((st.ambient_dim,), rng):
                v = scale * step
                point = q + v
                # the run loop evaluates the start's violation under its own
                # errstate, so an overflowing Gram matrix raises no warning
                with np.errstate(all="ignore"):
                    expected = st.constraint_violation(point)
                assert bits(expected) == bits(reduced_violation(st, point))
                try:
                    retracted, violation = st.retract(q, v)
                except RetractionError:
                    continue
                assert type(violation) is float
                assert bits(violation) == bits(reduced_violation(st, retracted))

    @pytest.mark.parametrize("n,m", [(2, 1), (5, 5), (20, 5)])
    def test_solved_norm_reads_as_the_reduction(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(62)
        for coeff in (0.05, 0.2):
            for history in (None, random_history(st, rng)):
                q = st.random_point(rng)
                drift = q + coeff * 0.5 * rng.standard_normal(st.ambient_dim)
                _, _, point, violation, _ = st.solve_multiplier(drift, q, coeff, history)
                assert bits(violation) == bits(reduced_violation(st, point))

    @pytest.mark.parametrize("n,m", [(2, 1), (5, 5), (20, 5)])
    def test_non_finite_residual_reads_as_the_reduction(self, n, m):
        # a cold start lands on the drift itself (S = 0), whose residual
        # overflows or is NaN, so the solve raises with that residual
        st = Stiefel(n, m)
        rng = np.random.default_rng(63)
        q = st.random_point(rng)
        drifts = [q + shift for shift in (1e200, math.inf, math.nan)]
        drifts += [q + step for step in extreme_arrays((st.ambient_dim,), rng)
                   if not np.isfinite(step).all()]
        for drift in drifts:
            expected = reduced_violation(st, drift)
            assert not math.isfinite(expected)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NewtonError) as info:
                    st.solve_multiplier(drift, q, 1e-3, None)
            assert bits(info.value.residual_norm) == bits(expected)
            assert str(info.value) == (f"Newton did not converge in 0 iterations "
                                       f"(residual {expected:.3e})")


def solve_bits(result):
    """The exact bits of each output of a multiplier solve."""
    return [bits(value) for value in result]


class TestStiefelMultiplier:
    """The Stiefel multiplier ``lam`` is the symmetric m x m ``S`` of the
    normal force ``X S``, flattened, followed by the two solutions before
    it, newest first.  A ``None`` guess starts the solve from ``S = 0`` and
    fills the history with its solution; a history starts it from the
    prediction ``3 (S_k - S_{k-1}) + S_{k-2}``, which is exactly symmetric.
    Each test runs the fixed point and, with no budget for it, the exact
    Riccati step alone."""

    @staticmethod
    def drifts(st, rng):
        """``(drift, q, coeff)`` of two steps, spread as in
        ``TestColumnMajorReference.test_solve_multiplier``."""
        spread = 0.5 / np.sqrt(st.m) if (st.n, st.m) == BLOCKED_SHAPE else 0.5
        for coeff in (0.05, 0.2):
            q = st.random_point(rng)
            yield q + coeff * spread * rng.standard_normal(st.ambient_dim), q, coeff

    @pytest.mark.parametrize("budget", [manifolds.NEWTON_MAX_ITER, 0])
    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_cold_start_is_a_zero_history(self, n, m, budget, monkeypatch):
        # the same S, normal, point, violation and iterations; only the
        # history behind S differs
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", budget)
        st = Stiefel(n, m)
        for drift, q, coeff in self.drifts(st, np.random.default_rng(48)):
            cold = st.solve_multiplier(drift, q, coeff, None)
            zero = st.solve_multiplier(drift, q, coeff, np.zeros(3 * m * m))
            assert bits(cold[0][: m * m]) == bits(zero[0][: m * m])
            assert solve_bits(cold[1:]) == solve_bits(zero[1:])
            assert bits(cold[0]) == bits(np.tile(cold[0][: m * m], 3))
            assert not np.count_nonzero(zero[0][m * m:])

    @pytest.mark.parametrize("budget", [manifolds.NEWTON_MAX_ITER, 0])
    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_multiplier_is_symmetric_and_forms_the_normal(self, n, m, budget, monkeypatch):
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", budget)
        st = Stiefel(n, m)
        rng = np.random.default_rng(49)
        for drift, q, coeff in self.drifts(st, rng):
            for guess in (None, random_history(st, rng)):
                lam, normal, *_ = st.solve_multiplier(drift, q, coeff, guess)
                assert lam.shape == (3 * m * m,)
                s = lam[: m * m].reshape(m, m)
                assert bits(s) == bits(s.T)
                assert bits(normal) == bits(s.dot(q.reshape(m, n)).reshape(-1))
                if guess is not None:
                    # the history shifts by one solution
                    assert bits(lam[m * m:]) == bits(guess[: 2 * m * m])

    @pytest.mark.parametrize("budget", [manifolds.NEWTON_MAX_ITER, 0])
    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_the_solve_starts_from_the_prediction(self, n, m, budget, monkeypatch):
        # a history and the constant history of its prediction P, which
        # predicts 3 (P - P) + P = P exactly, solve alike
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", budget)
        st = Stiefel(n, m)
        rng = np.random.default_rng(50)
        for drift, q, coeff in self.drifts(st, rng):
            guess = random_history(st, rng)
            newest, previous, oldest = np.split(guess, 3)
            prediction = 3.0 * (newest - previous) + oldest
            ours = st.solve_multiplier(drift, q, coeff, guess)
            constant = st.solve_multiplier(drift, q, coeff, np.tile(prediction, 3))
            assert bits(ours[0][: m * m]) == bits(constant[0][: m * m])
            assert solve_bits(ours[1:]) == solve_bits(constant[1:])


def public_linalg_retract(st, q, v):
    """``Stiefel.retract`` written with the public ``np.linalg.cholesky`` and
    ``np.linalg.solve``, whose LAPACK gufuncs it calls directly, and with
    its guards read by numpy reductions, whose ``max`` propagates a NaN."""
    wt = (q + v).reshape(st.m, st.n)
    with np.errstate(all="ignore"):
        gram = wt.dot(wt.T)
    top = gram.diagonal().max()
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        low = None
    if (top < st._gram_square and low is not None
            and low.diagonal().min() >= 1e-12 * max(1.0, math.sqrt(top))):
        qt = np.linalg.solve(low, wt)
        violation = st._gram_violation(qt)
        if violation <= RETRACT_ORTH_TOL:
            return qt.reshape(-1), violation
    rank_tol = 1e-12 * max(1.0, float(np.abs(wt).max()))
    qf, diag = manifolds.positive_qr(wt.T)
    if (np.abs(diag) < rank_tol).any():
        raise RetractionError("QR retraction undefined: X + V is rank deficient")
    point = st.from_matrix(qf)
    return point, st._gram_violation(point.reshape(st.m, st.n))


class TestRetractThroughGufuncs:
    """``retract`` calls the gufuncs behind ``np.linalg.cholesky`` and
    ``solve`` without their wrappers and gives the wrappers' bits, on every
    path, with no warning."""

    @staticmethod
    def assert_same(st, q, v):
        """Equal bits, or the same error; returns ``retract``'s point and
        violation, or its error message."""
        def outcome(retract):
            try:
                return retract(q, v)
            except RetractionError as exc:
                return str(exc)

        def key(result):
            return result if isinstance(result, str) else (bits(result[0]), bits(result[1]))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = outcome(st.retract)
        assert key(ours) == key(outcome(lambda q, v: public_linalg_retract(st, q, v)))
        return ours

    @staticmethod
    def takes_householder(st, q, v, monkeypatch):
        """Whether ``retract`` falls back to Householder QR."""
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(manifolds, "positive_qr",
                          lambda a, qr=manifolds.positive_qr: calls.append(a) or qr(a))
            try:
                st.retract(q, v)
            except RetractionError:
                pass
        return bool(calls)

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_cholesky_path(self, n, m):
        st = Stiefel(n, m)
        rng = np.random.default_rng(47)
        for q in TestColumnMajorReference.points(st, rng):
            for scale in (1e-6, 1e-2, 0.3, 1.0):
                self.assert_same(st, q, scale * rng.standard_normal(st.ambient_dim))

    @pytest.mark.parametrize("n,m", [shape for shape in LAYOUT_SHAPES if shape[1] > 1])
    def test_non_positive_definite_gram(self, n, m):
        # columns e_0 ... e_{m-2} and e_0 + 2^-36 e_{m-1}: the Gram matrix
        # rounds to an exactly singular one, while R's last diagonal entry,
        # 2^-36, passes the rank test
        w = np.eye(n, m)
        w[0, -1] = 1.0
        w[m - 1, -1] = 2.0 ** -36
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(w.T @ w)
        st = Stiefel(n, m)
        q = st.from_matrix(w)
        _, violation = self.assert_same(st, q, np.zeros_like(q))
        assert violation <= 1e-13

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_nan_and_entries_above_the_gram_limit(self, n, m):
        # none passes the Gram limit test, so all take Householder QR
        st = Stiefel(n, m)
        rng = np.random.default_rng(48)
        q = st.random_point(rng)
        huge = 2.0 * st._gram_limit
        nan_step = 1e-2 * rng.standard_normal(st.ambient_dim)
        nan_step[rng.integers(st.ambient_dim)] = np.nan
        # the NaN point is left to the run loop's feasibility gate
        assert np.isnan(self.assert_same(st, q, nan_step)[1])
        # one huge entry leaves the other columns below the rank threshold
        one_entry = np.zeros(st.ambient_dim)
        one_entry[rng.integers(st.ambient_dim)] = huge
        outcome = self.assert_same(st, np.zeros(st.ambient_dim), one_entry)
        assert isinstance(outcome, str) == (m > 1)
        # a huge entry in every column keeps W of full rank
        diagonal = st.from_matrix(huge * np.eye(n, m))
        assert self.assert_same(st, q, diagonal)[1] <= 1e-13

    @staticmethod
    def cholesky_qr(w):
        """``Q^T`` of CholeskyQR on ``w``, through the public wrappers."""
        return np.linalg.solve(np.linalg.cholesky(w.T @ w), w.T)

    @pytest.mark.parametrize("n,m", [shape for shape in LAYOUT_SHAPES if shape[1] > 1])
    def test_rank_floor_under_the_column_bound(self, n, m, monkeypatch):
        # orthogonal columns a (e_0 + e_1), d (e_0 - e_1) and unit vectors:
        # L is diag(a sqrt 2, d sqrt 2, 1, ...), so min diag(L) = d sqrt 2
        # fails the rank floor 1e-12 a sqrt 2 of the Cholesky path, and W
        # goes to Householder QR, whose R passes its floor 1e-12 a; the Q it
        # gives is orthonormal and CholeskyQR's to rounding
        a, d = 1024.0, 8.5e-10
        w = np.eye(n, m)
        w[:2, :2] = [[a, d], [a, -d]]
        low = np.linalg.cholesky(w.T @ w)
        assert 1e-12 * a <= low.diagonal().min() < 1e-12 * np.sqrt((w * w).sum(axis=0).max())
        st = Stiefel(n, m)
        q, v = st.from_matrix(w), np.zeros(n * m)
        point, violation = self.assert_same(st, q, v)
        assert violation <= RETRACT_ORTH_TOL
        assert self.takes_householder(st, q, v, monkeypatch)
        assert np.abs(point.reshape(m, n) - self.cholesky_qr(w)).max() <= 1e-14
        # with d sqrt 2 under 1e-12 a too, Householder's rank test rejects W
        w[:2, 1] = [5e-10, -5e-10]
        assert np.linalg.cholesky(w.T @ w).diagonal().min() < 1e-12 * a
        assert "rank deficient" in self.assert_same(st, st.from_matrix(w), v)

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_entries_under_the_gram_limit_in_a_longer_column(self, n, m, monkeypatch):
        # columns c 1 and c e_j with every entry of the first at c, 0.9 of
        # the limit, so its norm exceeds the limit though W^T W does not
        # overflow: the Gram bound sends W to Householder QR, whose Q is
        # orthonormal and CholeskyQR's to rounding
        st = Stiefel(n, m)
        c = 0.9 * st._gram_limit
        w = c * np.eye(n, m)
        w[:, 0] = c
        assert np.sqrt(n) * c > st._gram_limit
        with np.errstate(over="raise"):
            assert np.isfinite(w.T @ w).all()
        q, v = st.from_matrix(w), np.zeros(n * m)
        point, violation = self.assert_same(st, q, v)
        assert violation <= 1e-13
        assert self.takes_householder(st, q, v, monkeypatch)
        assert np.abs(point.reshape(m, n) - self.cholesky_qr(w)).max() <= 1e-14

    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_entries_above_the_gram_limit_with_a_finite_gram(self, n, m, monkeypatch):
        # e (I + 0.01 G) with its largest entry just above the limit, or at
        # 1.01 of it: W^T W stays finite, and both take Householder QR
        st = Stiefel(n, m)
        rng = np.random.default_rng(52)
        for entry in (np.nextafter(st._gram_limit, np.inf), 1.01 * st._gram_limit):
            w = np.eye(n, m) + 0.01 * rng.standard_normal((n, m))
            w *= entry / np.abs(w).max()
            w.flat[np.abs(w).argmax()] = entry
            with np.errstate(over="raise"):
                assert np.isfinite(w.T @ w).all()
            q, v = st.from_matrix(w), np.zeros(n * m)
            _, violation = self.assert_same(st, q, v)
            assert violation <= 1e-13
            assert self.takes_householder(st, q, v, monkeypatch)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n,m", LAYOUT_SHAPES)
    def test_non_finite_entries(self, n, m, value, monkeypatch):
        # a NaN or an infinite entry anywhere: both take Householder QR, and
        # its NaN point is left to the run loop's feasibility gate
        st = Stiefel(n, m)
        rng = np.random.default_rng(51)
        q = st.random_point(rng)
        for index in {0, st.ambient_dim - 1, int(rng.integers(st.ambient_dim))}:
            step = 1e-2 * rng.standard_normal(st.ambient_dim)
            step[index] = value
            self.assert_same(st, q, step)
            assert self.takes_householder(st, q, step, monkeypatch)


class TestNamesAndStubs:
    def test_stiefel_flattening_round_trip(self):
        st = Stiefel(4, 2)
        x = st.random_point(np.random.default_rng(17))
        np.testing.assert_array_equal(st.from_matrix(matrix(st, x)), x)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Stiefel(3, 4)
        with pytest.raises(ValueError):
            Stiefel(1, 1)
        with pytest.raises(ValueError):
            Sphere(1)
