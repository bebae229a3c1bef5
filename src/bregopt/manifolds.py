"""Embedded-submanifold geometry for the unit sphere and the Stiefel manifold.

Each manifold is described by a constraint map ``C`` whose zero level set is
the manifold.  Its operations are one method each, called alike by the
integrators, the optimizers and the tests:

* ``constraint`` and ``constraint_violation``: ``C(q)`` and its infinity
  norm;
* ``solve_multiplier``: the Lagrange-multiplier solve of the HTVI step,
  which places a drifted point back on the manifold (on the sphere the
  small root of a scalar quadratic, on the Stiefel manifold an m x m
  Riccati equation solved by the SHAKE/RATTLE fixed point, with one exact
  invariant-subspace step of its Hamiltonian matrix as the fallback);
* ``tangent_project``, ``retract`` and ``transport``: the geometry of the
  retraction-based EL and gradient-descent steps.  ``retract`` returns the
  new point together with its ``constraint_violation``, which it computes
  anyway (on the Stiefel manifold it is the CholeskyQR acceptance test), so
  no caller evaluates the constraint at a retracted point again;
* ``random_point``: a seeded start point.

The ambient metric is the Frobenius (flat dot product) inner product
throughout, so cotangent vectors are identified with tangent vectors
component-wise.

Inputs are checked where they enter the program, not on every call:
``constraint`` checks the length of its point, and ``optimizers.run`` checks
the start point and raises :class:`~bregopt.errors.FeasibilityError` when an
iterate's violation, the one its step reported, exceeds ``FEAS_TOL`` (or is
NaN).  The other operations take points the steppers built and check
nothing.

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

All operations are pure functions of their inputs, and a manifold object
carries nothing but its dimensions and constants derived from them, so
manifold objects can be shared freely across threads.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionError, NewtonError, RetractionError, TransportError

# Largest constraint violation at which a point counts as feasible.
FEAS_TOL = 1e-8
# Largest |Q^T Q - I| entry at which the CholeskyQR Stiefel retraction is
# accepted instead of falling back to Householder QR.  An accepted Q differs
# from the Householder one by about this much (up to ~1.2x over 6000
# random 5x5 steps), so it also bounds the change to the retraction.
RETRACT_ORTH_TOL = 1e-14
# Tolerance on the residual infinity norm and iteration budget of the
# Stiefel multiplier solve.  The tolerance sits well under FEAS_TOL, which
# every iterate the solve produces must then meet.  The solve reads them at
# call time.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


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
    sq = math.sqrt(disc)
    big = (-b - sq) / (2.0 * a) if b >= 0.0 else (-b + sq) / (2.0 * a)
    if big == 0.0:
        return 0.0
    small = c / (a * big)
    return small if abs(small) <= abs(big) else big


def positive_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q factor of the reduced QR factorization of ``a`` with R's diagonal
    made positive, which makes it unique for a full-rank ``a``, and R's
    diagonal before the sign change."""
    q, r = np.linalg.qr(a)
    diag = r.diagonal()
    np.negative(q, out=q, where=diag < 0.0)
    return q, diag


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
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Multiplier ``lam`` with ``C(drift - coeff * J(q)^T lam) = 0``.

        This is the SHAKE/RATTLE projection of a constrained one-step map:
        ``drift`` is the unconstrained update of the position ``q`` and the
        force ``J(q)^T lam`` acts along the constraint normals at ``q``.
        ``lam0`` is the starting guess of an iterative solve.  Returns the
        multiplier, the normal force ``J(q)^T lam`` as a flat ambient vector
        and the number of iterations of the solve (0 for a closed form).

        Raises:
            NewtonError: no multiplier reaches the manifold.
        """
        raise NotImplementedError

    def constraint_violation(self, q: np.ndarray) -> float:
        """Infinity norm of the constraint residual, a Python float; NaN
        when ``q`` holds a NaN.  ``q`` must be a float array of length
        ``ambient_dim``."""
        return float(np.abs(self.constraint(q)).max())

    # -- geometry -----------------------------------------------------------

    def tangent_project(self, q: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``z`` onto the tangent space at ``q``."""
        raise NotImplementedError

    def retract(self, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
        """First-order map from the tangent space at ``q`` back to the
        manifold.  Returns the new point and its :meth:`constraint_violation`,
        bit for bit."""
        raise NotImplementedError

    def transport(self, q_from: np.ndarray, q_to: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Move a tangent vector at ``q_from`` to the tangent space at ``q_to``."""
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    # -- validation ---------------------------------------------------------

    def _check_dim(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.ambient_dim,):
            raise DimensionError(
                f"{self.name}: expected vector of length {self.ambient_dim}, "
                f"got shape {q.shape}"
            )
        return q

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

    def solve_multiplier(self, drift, q, coeff, lam0):
        """Closed-form root of the scalar quadratic ``|drift - coeff 2q lam|^2 = 1``;
        ``lam0`` is unused."""
        grad = 2.0 * q
        lam = _sphere_multiplier(drift, coeff * grad)
        return np.array([lam]), grad * lam, 0

    def constraint_violation(self, q):
        return self._norm_violation(q)

    @staticmethod
    def _norm_violation(q):
        """``|q.q - 1|``: the violation of ``q``, which :meth:`retract` also
        reports."""
        return abs(float(q @ q) - 1.0)

    def tangent_project(self, q, z):
        return z - (q @ z) * q

    def retract(self, q, v):
        w = q + v
        norm = math.sqrt(float(w @ w))
        if norm < 1e-12:
            raise RetractionError("sphere retraction undefined: q + v is zero")
        point = w / norm
        return point, self._norm_violation(point)

    def transport(self, x, y, v):
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
        # maps S = L + L^T back to lam, the upper triangle of L
        self._triu_weight = np.where(self._triu[0] == self._triu[1], 0.5, 1.0)
        self._eye = np.eye(m)
        # Largest |W| entry for which W^T W cannot overflow.
        self._gram_limit = math.sqrt(sys.float_info.max / n)

    def as_matrix(self, q: np.ndarray) -> np.ndarray:
        """View a flat point as the underlying n x m matrix."""
        return np.asarray(q, dtype=float).reshape((self.n, self.m), order="F")

    def from_matrix(self, x: np.ndarray) -> np.ndarray:
        """Flatten an n x m matrix into the packed point representation."""
        return np.asarray(x, dtype=float).reshape(-1, order="F")

    def constraint(self, q):
        x = self.as_matrix(self._check_dim(q))
        return (x.T @ x - self._eye)[self._triu]

    def solve_multiplier(self, drift, q, coeff, lam0):
        """Solve ``F(T) = Y^T Y - I = 0`` with ``Y = D - X T``, ``T = coeff S``.

        ``D`` is the drift and ``X`` the point ``q`` as n x m matrices.  The
        multiplier is the symmetric ``S = L + L^T`` of the upper-triangular
        ``L`` holding ``lam``, so the normal force ``J(q)^T lam`` is ``X S``.
        With ``A = X^T D``, ``G = X^T X`` and ``C = D^T D - I`` the equation
        is the algebraic Riccati equation ``T G T - T A - A^T T + C = 0``.

        The derivative of ``F`` along ``dT`` is ``-(M^T dT + dT M)`` with
        ``M = X^T Y``, which is near ``I`` for a small step, so the solve
        iterates the SHAKE/RATTLE fixed point ``S <- S + F / (2 coeff)``
        (Leimkuhler & Reich 2004, on orthogonality constraints), each step
        O(n m^2), until ``max |F| <= NEWTON_TOL``.  When a step does not
        halve ``max |F|``, ``NEWTON_MAX_ITER`` steps are used up or the
        residual is not finite, it ends with one exact step, counted as an
        iteration: with the eigenvectors of the Hamiltonian matrix
        ``K = [[A, -G], [C, -A^T]]`` for its m eigenvalues of positive real
        part stacked as ``[U1; U2]``, ``T = U2 U1^{-1}``, symmetrized (the
        invariant-subspace method, Laub 1979).  ``M = A - G T`` then has
        exactly those eigenvalues, so this is the solution near ``T = 0``,
        ``M = I`` that the fixed point tracks.  Returns ``lam = triu(S)``
        with its diagonal halved.

        Raises:
            NewtonError: the exact step does not land within ``NEWTON_TOL``.
                The message calls the constraint unreachable when ``K`` has
                an eigenvalue on the imaginary axis, where the real
                solutions of the Riccati equation are lost.
        """
        x = self.as_matrix(q)
        d = self.as_matrix(drift)
        s = np.zeros((self.m, self.m))
        s[self._triu] = lam0
        s = s + s.T

        def landing(s):
            y = d - x @ (coeff * s)
            f = y.T @ y - self._eye
            return f, float(np.abs(f).max())

        iterations = 0
        # a failing solve may overflow; each residual is tested instead
        with np.errstate(all="ignore"):
            f, norm = landing(s)
            while (not norm <= NEWTON_TOL and iterations < NEWTON_MAX_ITER
                   and math.isfinite(norm)):
                trial = s + f / (2.0 * coeff)
                f_next, norm_next = landing(trial)
                if not norm_next <= 0.5 * norm:
                    break
                s, f, norm = trial, f_next, norm_next
                iterations += 1
            if not norm <= NEWTON_TOL:
                a = x.T @ d
                k = np.block([[a, -(x.T @ x)], [d.T @ d - self._eye, -a.T]])
                mu = np.array([math.nan])
                exact = s
                # a non-finite K has no eigenvalues, and U1 is not square
                # unless exactly m eigenvalues have positive real part
                try:
                    mu, u = np.linalg.eig(k)
                    right = mu.real > 0.0
                    t = np.linalg.solve(u[: self.m, right].T, u[self.m :, right].T).real
                    exact = (t + t.T) / (2.0 * coeff)
                except np.linalg.LinAlgError:
                    pass
                if not landing(exact)[1] <= NEWTON_TOL:
                    message = (f"Newton did not converge in {iterations} iterations "
                               f"(residual {norm:.3e})")
                    gap = float(np.abs(mu.real).min())
                    # eigenvalues on the axis sit there to rounding; a
                    # solvable step keeps them near +-1
                    if gap <= 1e-8 * float(np.abs(mu).max()):
                        message += (f"; stiefel constraint unreachable: the Riccati "
                                    f"Hamiltonian has an eigenvalue on the imaginary "
                                    f"axis (|Re| {gap:.1e})")
                    raise NewtonError(message, residual_norm=norm, iterations=iterations)
                s = exact
                iterations += 1
        return s[self._triu] * self._triu_weight, self.from_matrix(x @ s), iterations

    def constraint_violation(self, q):
        return self._gram_violation(q.reshape((self.n, self.m), order="F"))

    def _gram_violation(self, x):
        """``max |X^T X - I|`` of the n x m matrix ``x``: the violation of the
        point it holds, since the Gram matrix is computed exactly symmetric,
        and the acceptance test of the CholeskyQR retraction."""
        return float(np.abs(x.T @ x - self._eye).max())

    def tangent_project(self, q, z):
        x = q.reshape((self.n, self.m), order="F")
        zm = z.reshape(x.shape, order="F")
        xtz = x.T @ zm
        return (zm - x @ ((xtz + xtz.T) / 2.0)).reshape(-1, order="F")

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
        Householder QR is used, with the sign rule on R's diagonal.  The
        violation returned with the point is that acceptance residual on the
        CholeskyQR path and is computed once from the point on the
        Householder path.

        Raises:
            RetractionError: ``W`` is rank deficient.
        """
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
                # Fortran-ordered like a reshaped point, so the Gram matrix
                # and the violation are those of the point returned
                qf = np.linalg.solve(low, w.T).T
                violation = self._gram_violation(qf)
                if violation <= RETRACT_ORTH_TOL:
                    return qf.reshape(-1, order="F"), violation
        qf, diag = positive_qr(w)
        if (np.abs(diag) < rank_tol).any():
            raise RetractionError("QR retraction undefined: X + V is rank deficient")
        point = self.from_matrix(qf)
        return point, self._gram_violation(self.as_matrix(point))

    def transport(self, q_from, q_to, v):
        """Projection-based vector transport onto the tangent space at ``q_to``."""
        return self.tangent_project(q_to, v)

    def random_point(self, rng):
        return self.from_matrix(positive_qr(rng.standard_normal((self.n, self.m)))[0])
