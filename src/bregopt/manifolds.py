"""Embedded-submanifold geometry for the unit sphere and the Stiefel manifold.

Each manifold is described by a constraint map ``C`` whose zero level set is
the manifold, together with the operations needed by the constrained
integrators and optimizers: the Lagrange-multiplier solve that places a
drifted point back on the manifold, tangent-space projection, retraction,
vector transport and Riemannian gradient.  The ambient metric is the
Frobenius (flat dot product) inner product throughout, so cotangent vectors
are identified with tangent vectors component-wise.

Points and tangent vectors are flat 1-D arrays of length ``ambient_dim``.
Stiefel points are n x m matrices with orthonormal columns, flattened in
column-major (Fortran) order; :meth:`Stiefel.as_matrix` and
:meth:`Stiefel.from_matrix` convert between the two representations.

The Stiefel retraction is the Q factor of ``X + V`` with a positive R
diagonal (Absil, Mahony & Sepulchre 2008, sec. 4.1.1), computed as
CholeskyQR (Fukaya et al. 2014): ``Q = W L^{-T}`` with ``L = chol(W^T W)``.
It is accepted only when the Cholesky factorization succeeds, ``L``'s
diagonal passes the rank threshold and ``Q`` is orthonormal to
``RETRACT_ORTH_TOL``; otherwise Householder QR gives ``Q``, and a
rank-deficient ``X + V`` raises :class:`RetractionError`.

All operations are pure functions of their inputs.  The only state a
manifold object carries besides its dimensions is the multiplier basis of
:class:`Stiefel`, built on first use and never changed afterwards (two
threads racing to build it build the same array), so manifold objects can
be shared freely across threads.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np

from .dynamics import NewtonConfig, newton_solve
from .errors import (
    DimensionError,
    FeasibilityError,
    NewtonError,
    RetractionError,
    TransportError,
)

# Default tolerance for accepting a point as feasible on input.
FEAS_TOL = 1e-8
# Largest |Q^T Q - I| entry at which the CholeskyQR Stiefel retraction is
# accepted instead of falling back to Householder QR.  An accepted Q differs
# from the Householder one by about this much (up to ~1.2x over 6000
# random 5x5 steps), so it also bounds the change to the retraction.
RETRACT_ORTH_TOL = 1e-14


def _sphere_multiplier(w: np.ndarray, v: np.ndarray) -> float:
    """Smallest-magnitude root of ``|w - v * lam|^2 = 1``.

    The small root is the one that vanishes as the step size goes to zero,
    so it keeps the map continuous in ``h``.
    """
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


class EmbeddedManifold:
    """A submanifold of ``R^N`` given as the zero set of a constraint.

    Attributes:
        name: identifier such as ``"sphere:3"`` or ``"stiefel:20,5"``.
        ambient_dim: dimension ``N`` of the embedding space.
        constraint_dim: number of independent constraint components ``d``.
    """

    name: str
    ambient_dim: int
    constraint_dim: int

    # -- constraint ---------------------------------------------------------

    def constraint(self, q: np.ndarray) -> np.ndarray:
        """Constraint residual ``C(q)`` as a vector of length ``constraint_dim``."""
        raise NotImplementedError

    def solve_multiplier(
        self,
        drift: np.ndarray,
        q: np.ndarray,
        coeff: float,
        lam0: np.ndarray,
        newton: NewtonConfig,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Multiplier ``lam`` with ``C(drift - coeff * J(q)^T lam) = 0``.

        This is the SHAKE/RATTLE projection of a constrained one-step map:
        ``drift`` is the unconstrained update of the position ``q`` and the
        force ``J(q)^T lam`` acts along the constraint normals at ``q``.
        ``lam0`` is the starting guess of an iterative solve.  Returns the
        multiplier, the normal force ``J(q)^T lam`` as a flat ambient vector
        and the number of Newton iterations.

        Raises:
            NewtonError: no multiplier reaches the manifold.
        """
        raise NotImplementedError

    def constraint_violation(self, q: np.ndarray) -> float:
        """Infinity norm of the constraint residual."""
        return float(np.abs(self.constraint(q)).max())

    # -- geometry -----------------------------------------------------------

    def tangent_project(self, q: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``z`` onto the tangent space at ``q``.

        Raises:
            FeasibilityError: ``q`` is off the manifold.
        """
        q = self._check_dim(q)
        self._check_feasible(q)
        return self._project(q, self._check_dim(z))

    def _project(self, q: np.ndarray, z: np.ndarray) -> np.ndarray:
        """:meth:`tangent_project` without the checks of its inputs."""
        raise NotImplementedError

    def retract(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """First-order map from the tangent space at ``q`` back to the manifold."""
        raise NotImplementedError

    def transport(self, q_from: np.ndarray, q_to: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Move a tangent vector at ``q_from`` to the tangent space at ``q_to``.

        Raises:
            FeasibilityError: ``q_from`` or ``q_to`` is off the manifold.
        """
        q_from = self._check_dim(q_from)
        self._check_feasible(q_from)
        q_to = self._check_dim(q_to)
        self._check_feasible(q_to)
        return self._transport(q_from, q_to, self._check_dim(v))

    def _transport(self, q_from: np.ndarray, q_to: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`transport` without the checks of its inputs."""
        raise NotImplementedError

    def riemannian_gradient(self, q: np.ndarray, ambient_grad: np.ndarray) -> np.ndarray:
        """Riemannian gradient: the tangent projection of the ambient gradient."""
        return self.tangent_project(q, ambient_grad)

    def _gradient_and_violation(
        self, q: np.ndarray, ambient_grad: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """:meth:`riemannian_gradient` and :meth:`constraint_violation` at
        ``q`` from one constraint evaluation.  Both arguments must already be
        float arrays of length ``ambient_dim``; they are not checked.

        Raises:
            FeasibilityError: ``q`` is off the manifold.
        """
        raise NotImplementedError

    # -- sampling helpers ---------------------------------------------------

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def random_tangent(self, q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.tangent_project(q, rng.standard_normal(self.ambient_dim))

    # -- validation ---------------------------------------------------------

    def _check_dim(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.ambient_dim,):
            raise DimensionError(
                f"{self.name}: expected vector of length {self.ambient_dim}, "
                f"got shape {q.shape}"
            )
        return q

    def _check_feasible(self, q: np.ndarray) -> float:
        """Constraint violation of ``q``, which must be within ``FEAS_TOL``."""
        return self._check_violation(self.constraint_violation(q))

    def _check_violation(self, violation: float) -> float:
        """``violation`` if it is within ``FEAS_TOL``; a NaN is not."""
        if not violation <= FEAS_TOL:
            raise FeasibilityError(
                f"{self.name}: point violates constraint by {violation:.3e} "
                f"(tolerance {FEAS_TOL:.1e})"
            )
        return violation

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Sphere(EmbeddedManifold):
    """Unit sphere in R^n with constraint ``q.q - 1 = 0``."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sphere needs ambient dimension >= 2")
        self.name = f"sphere:{n}"
        self.ambient_dim = n
        self.constraint_dim = 1

    def constraint(self, q):
        q = self._check_dim(q)
        return np.array([q @ q - 1.0])

    def solve_multiplier(self, drift, q, coeff, lam0, newton):
        """Closed-form root of the scalar quadratic ``|drift - coeff 2q lam|^2 = 1``;
        ``lam0`` and ``newton`` are unused."""
        grad = 2.0 * q
        lam = _sphere_multiplier(drift, coeff * grad)
        return np.array([lam]), grad * lam, 0

    def _project(self, q, z):
        return z - (q @ z) * q

    def _gradient_and_violation(self, q, ambient_grad):
        violation = self._check_violation(abs(float(q @ q) - 1.0))
        return self._project(q, ambient_grad), violation

    def retract(self, q, v):
        q = self._check_dim(q)
        v = self._check_dim(v)
        if not v.any():
            return q.copy()
        w = q + v
        norm = math.sqrt(float(w @ w))
        if norm < 1e-12:
            raise RetractionError("sphere retraction undefined: q + v is zero")
        return w / norm

    def _transport(self, x, y, v):
        """Exact parallel transport along the great circle joining the points."""
        c = x @ y
        if 1.0 + c < 1e-12:
            raise TransportError(
                "parallel transport undefined between antipodal sphere points"
            )
        return v - ((y @ v) / (1.0 + c)) * (x + y)

    def random_point(self, rng):
        q = rng.standard_normal(self.ambient_dim)
        return q / np.linalg.norm(q)


class Stiefel(EmbeddedManifold):
    """Matrices with orthonormal columns: ``{X in R^{n x m} : X^T X = I}``.

    The constraint exposes only the upper triangle (including the diagonal)
    of ``X^T X - I``, vectorized row-major, so that the constraint Jacobian
    has full row rank ``d = m (m + 1) / 2``.
    """

    def __init__(self, n: int, m: int):
        if not 1 <= m <= n or n < 2:
            raise ValueError("stiefel requires 1 <= m <= n and n >= 2")
        self.name = f"stiefel:{n},{m}"
        self.n = n
        self.m = m
        self.ambient_dim = n * m
        self.constraint_dim = m * (m + 1) // 2
        self._triu = np.triu_indices(m)
        self._triu_flat = self._triu[0] * m + self._triu[1]
        self._eye = np.eye(m)
        # Largest |W| entry for which W^T W cannot overflow.
        self._gram_limit = math.sqrt(sys.float_info.max / n)

    @cached_property
    def _basis(self) -> np.ndarray:
        """Symmetric m x m basis ``E_k = e_i e_j^T + e_j e_i^T`` of the
        constraint components ``(i, j)``: ``X E_k`` is the gradient of
        ``C_k`` at ``X`` and ``J^T lam = X S(lam)`` with ``S = sum lam_k E_k``.

        It holds ``m^3 (m + 1) / 2`` floats (about 400 MB at ``m = 100``),
        so it is built on first use: only the multiplier solve needs it.
        """
        m = self.m
        basis = np.zeros((self.constraint_dim, m, m))
        rows = np.arange(self.constraint_dim)
        basis[rows, self._triu[0], self._triu[1]] += 1.0
        basis[rows, self._triu[1], self._triu[0]] += 1.0
        return basis

    @cached_property
    def _basis_flat(self) -> np.ndarray:
        return self._basis.reshape(self.constraint_dim, self.m * self.m)

    def as_matrix(self, q: np.ndarray) -> np.ndarray:
        """View a flat point as the underlying n x m matrix."""
        return np.asarray(q, dtype=float).reshape((self.n, self.m), order="F")

    def from_matrix(self, x: np.ndarray) -> np.ndarray:
        """Flatten an n x m matrix into the packed point representation."""
        return np.asarray(x, dtype=float).reshape(-1, order="F")

    def constraint(self, q):
        x = self.as_matrix(self._check_dim(q))
        return (x.T @ x - self._eye)[self._triu]

    def _symmetric(self, lam):
        """``S = L + L^T = sum_k lam_k E_k`` for the upper-triangular ``L``
        holding ``lam``."""
        return (lam @ self._basis_flat).reshape(self.m, self.m)

    def solve_multiplier(self, drift, q, coeff, lam0, newton):
        """Newton solve of ``triu((D - X S)^T (D - X S) - I) = 0`` for ``lam``.

        ``D`` is the drift and ``X = coeff * X_q`` as n x m matrices.  With
        ``A = (D - X S)^T X`` the derivative along ``lam_k`` is
        ``-triu(A E_k + E_k A^T) = -triu(B_k + B_k^T)`` for ``B_k = A E_k``,
        so the n x m work per iteration is O(n m^2) and the d x nm
        constraint Jacobian is never formed.
        """
        xq = self.as_matrix(q)
        dm = self.as_matrix(drift)
        x = coeff * xq
        last = [None, None]  # newton_solve differentiates where it last evaluated

        def landing(lam):
            if last[0] is not lam:
                last[:] = lam, dm - x @ self._symmetric(lam)
            return last[1]

        def residual(lam):
            y = landing(lam)
            return (y.T @ y - self._eye)[self._triu]

        def jacobian(lam):
            b = (landing(lam).T @ x) @ self._basis
            b = b + b.transpose(0, 2, 1)
            return -b.reshape(self.constraint_dim, -1)[:, self._triu_flat].T

        result = newton_solve(residual, jacobian, lam0, newton)
        normal = self.from_matrix(xq @ self._symmetric(result.x))
        return result.x, normal, result.iterations

    def _project(self, q, z):
        return self._project_at(self.as_matrix(q), z)

    def _project_at(self, x, z):
        """:meth:`_project` at the n x m matrix ``x``."""
        zm = z.reshape(x.shape, order="F")
        xtz = x.T @ zm
        return (zm - x @ ((xtz + xtz.T) / 2.0)).reshape(-1, order="F")

    def _gradient_and_violation(self, q, ambient_grad):
        x = q.reshape((self.n, self.m), order="F")
        violation = self._check_violation(
            float(np.abs((x.T @ x - self._eye)[self._triu]).max())
        )
        return self._project_at(x, ambient_grad), violation

    def retract(self, q, v):
        """Q factor of the QR factorization of ``W = X + V`` with R's
        diagonal positive, which makes the retraction deterministic.

        It is computed as CholeskyQR: ``L = chol(W^T W)`` and
        ``Q = W L^{-T}``, the same Q in exact arithmetic (``R = L^T``).  The
        result is accepted only if the Cholesky factorization succeeds,
        ``L``'s diagonal passes the rank threshold and
        ``max |Q^T Q - I| <= RETRACT_ORTH_TOL``; an ill-conditioned ``W``
        fails the last test, since CholeskyQR loses orthogonality as
        ``cond(W)^2``.  Otherwise, and when ``W^T W`` would overflow,
        Householder QR is used, with the sign rule on R's diagonal.

        Raises:
            RetractionError: ``W`` is rank deficient.
        """
        q = self._check_dim(q)
        v = self._check_dim(v)
        if not v.any():
            return q.copy()
        w = (q + v).reshape((self.n, self.m), order="F")
        big = float(np.abs(w).max())
        rank_tol = 1e-12 * max(1.0, big)
        # Positive comparisons, so a NaN falls through to Householder.
        if big <= self._gram_limit:
            try:
                low = np.linalg.cholesky(w.T @ w)
            except np.linalg.LinAlgError:
                low = None
            if low is not None and low.diagonal().min() >= rank_tol:
                qf = np.linalg.solve(low, w.T).T
                if np.abs(qf.T @ qf - self._eye).max() <= RETRACT_ORTH_TOL:
                    return qf.reshape(-1, order="F")
        qf, r = np.linalg.qr(w)
        diag = r.diagonal()
        if (np.abs(diag) < rank_tol).any():
            raise RetractionError("QR retraction undefined: X + V is rank deficient")
        np.negative(qf, out=qf, where=diag < 0.0)
        return self.from_matrix(qf)

    def _transport(self, q_from, q_to, v):
        """Projection-based vector transport onto the tangent space at ``q_to``."""
        return self._project(q_to, v)

    def random_point(self, rng):
        a = rng.standard_normal((self.n, self.m))
        qf, r = np.linalg.qr(a)
        qf = qf * np.where(np.diag(r) < 0.0, -1.0, 1.0)
        return self.from_matrix(qf)
