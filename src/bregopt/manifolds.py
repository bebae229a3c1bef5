"""Embedded-submanifold geometry for the unit sphere and the Stiefel manifold.

Each manifold is described by a constraint map ``C`` whose zero level set is
the manifold.  Its operations are one method each, called alike by the
integrators, the optimizers and the tests:

* ``constraint_violation``: the infinity norm of ``C(q)``;
* ``solve_multiplier``: the Lagrange-multiplier solve of the HTVI step,
  which places a drifted point back on the manifold (on the sphere the
  small root of a scalar quadratic, on the Stiefel manifold an m x m
  Riccati equation solved by the SHAKE/RATTLE fixed point, started from
  the extrapolation of the last three multipliers, with one exact
  invariant-subspace step of its Hamiltonian matrix as the fallback);
* ``tangent_project``, ``retract`` and ``transport``: the geometry of the
  retraction-based EL and gradient-descent steps;
* ``random_point``: a seeded start point.

Every kernel that builds an iterate reports its violation: ``retract``
returns the new point together with its ``constraint_violation``, which it
computes anyway (on the Stiefel manifold it is the CholeskyQR acceptance
test), and ``solve_multiplier`` returns the point it lands on together with
the residual of that landing, which is its violation.  So no caller forms
an iterate again or evaluates the constraint there; the optimizers evaluate
it only at the start point.

The ambient metric is the Frobenius (flat dot product) inner product
throughout, so cotangent vectors are identified with tangent vectors
component-wise.

Inputs are checked where they enter the program, not on every call:
``optimizers.run`` checks the length of the start point and raises
:class:`~bregopt.errors.FeasibilityError` when an iterate's violation, the
one its step reported, exceeds ``FEAS_TOL`` (or is NaN).  The operations
take points the steppers built and check nothing.

Points and tangent vectors are flat 1-D arrays of length ``ambient_dim``.
Stiefel points are n x m matrices ``X`` with orthonormal columns, flattened
in column-major (Fortran) order, so the flat array read row-major is the
m x n matrix ``X^T``.  That is the layout the Stiefel kernels work on: they
view a flat vector as ``X^T`` with ``reshape(m, n)``, which copies nothing,
write each product transposed (``X S`` as ``S X^T``), and flatten their
``X^T``-shaped results with ``reshape(-1)``.  :meth:`Stiefel.from_matrix`
flattens an ``X`` built outside the per-iteration path (start points,
oracles and the Householder fallback of the retraction).

:meth:`Stiefel.retract` states how the retraction calls LAPACK and reads
its guards off the factorization, and ``tests/test_source.py`` the
spelling rules of the per-iteration path.

The Stiefel kernels read the largest (or smallest) absolute entry of an
array ``a`` in one way: ``b = np.abs(a)`` and ``b.item(b.argmax())`` (or
``argmin``).  Every entry of ``b`` is ``>= 0`` or NaN, so the extremum is an
entry and ``argmax`` finds its first occurrence, or the first NaN, where it
stops; ``item`` returns it as a Python float.  That is the float
``float(np.maximum.reduce(b, axis=None))`` gives, bit for bit, NaN and inf
included, without the set-up of a ufunc reduction, which costs more than
reading the 25 entries of a 5 x 5 residual.

All operations are pure functions of their inputs, and a manifold object
carries nothing but its dimensions and constants derived from them, so
manifold objects can be shared freely across threads.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo, solve as _solve

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
    a = float(v.dot(v))
    b = -2.0 * float(w.dot(v))
    c = float(w.dot(w)) - 1.0
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
    """

    name: str
    ambient_dim: int

    # -- constraint ---------------------------------------------------------

    def solve_multiplier(
        self,
        drift: np.ndarray,
        q: np.ndarray,
        coeff: float,
        lam0: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
        """Multiplier ``lam`` with ``C(drift - coeff * J(q)^T lam) = 0``.

        This is the SHAKE/RATTLE projection of a constrained one-step map:
        ``drift`` is the unconstrained update of the position ``q`` and the
        force ``J(q)^T lam`` acts along the constraint normals at ``q``.
        The multiplier's layout and size are the manifold's own: callers
        only hand a ``lam`` this method returned back to it as ``lam0``, from
        which an iterative solve takes its start, or pass ``None`` for a
        cold start.  Returns
        ``(lam, normal, point, violation, iterations)``: the multiplier, the
        normal force ``J(q)^T lam`` as a flat ambient vector, the point the
        solve lands on, ``drift - coeff * J(q)^T lam`` as the solve's last
        evaluation formed it, that point's :meth:`constraint_violation`, bit
        for bit, and the number of iterations of the solve (0 for a closed
        form).  The point is the next position of the step, so no caller
        forms it or evaluates the constraint there again.

        Raises:
            NewtonError: no multiplier reaches the manifold.
        """
        raise NotImplementedError

    def constraint_violation(self, q: np.ndarray) -> float:
        """Infinity norm of the constraint residual, a Python float; NaN
        when ``q`` holds a NaN.  ``q`` must be a float array of length
        ``ambient_dim``."""
        raise NotImplementedError

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


class Sphere(EmbeddedManifold):
    """Unit sphere in R^n with constraint ``q.q - 1 = 0``."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sphere needs ambient dimension >= 2")
        self.name = f"sphere:{n}"
        self.ambient_dim = n

    def solve_multiplier(self, drift, q, coeff, lam0):
        """Closed-form root of the scalar quadratic ``|drift - coeff 2q lam|^2 = 1``;
        ``lam0`` is unused.  The point is ``drift - lam ((2 coeff) q)`` and
        its violation ``|p.p - 1|``."""
        # doubling is exact, so (2 coeff) q and (2 lam) q round as
        # coeff (2 q) and (2 q) lam do
        shift = (2.0 * coeff) * q
        lam = _sphere_multiplier(drift, shift)
        point = drift - lam * shift
        return np.array([lam]), (2.0 * lam) * q, point, self._norm_violation(point), 0

    def constraint_violation(self, q):
        return self._norm_violation(q)

    @staticmethod
    def _norm_violation(q):
        """``|q.q - 1|``: the violation of ``q``, which :meth:`retract` also
        reports."""
        return abs(float(q.dot(q)) - 1.0)

    def tangent_project(self, q, z):
        return z - q.dot(z) * q

    def retract(self, q, v):
        w = q + v
        norm = math.sqrt(float(w.dot(w)))
        if norm < 1e-12:
            raise RetractionError("sphere retraction undefined: q + v is zero")
        point = w / norm
        return point, self._norm_violation(point)

    def transport(self, x, y, v):
        """Exact parallel transport along the great circle joining the points."""
        c = x.dot(y)
        if 1.0 + c < 1e-12:
            raise TransportError(
                "parallel transport undefined between antipodal sphere points"
            )
        return v - (y.dot(v) / (1.0 + c)) * (x + y)

    def random_point(self, rng):
        q = rng.standard_normal(self.ambient_dim)
        return q / np.linalg.norm(q)


class Stiefel(EmbeddedManifold):
    """Matrices with orthonormal columns: ``{X in R^{n x m} : X^T X = I}``.

    The multiplier of the constraint ``X^T X - I = 0`` is a symmetric m x m
    matrix ``S``, which exerts the normal force ``X S``.  ``lam`` is the
    history the next solve predicts its start from: ``S`` and the two
    solutions before it, newest first, each flattened, 3 m^2 floats.
    """

    def __init__(self, n: int, m: int):
        if not 1 <= m <= n or n < 2:
            raise ValueError("stiefel requires 1 <= m <= n and n >= 2")
        self.name = f"stiefel:{n},{m}"
        self.n = n
        self.m = m
        self.ambient_dim = n * m
        self._eye = np.eye(m)
        # Largest |W| entry for which W^T W cannot overflow, and its square,
        # the bound on the Gram diagonal, the squared column norms, under
        # which the retraction takes its Cholesky path.
        self._gram_limit = math.sqrt(sys.float_info.max / n)
        self._gram_square = self._gram_limit * self._gram_limit

    def from_matrix(self, x: np.ndarray) -> np.ndarray:
        """Flatten an n x m matrix into the packed point representation."""
        return np.asarray(x, dtype=float).reshape(-1, order="F")

    # a failing solve may overflow; each residual is tested instead
    @np.errstate(all="ignore")
    def solve_multiplier(self, drift, q, coeff, lam0):
        """Solve ``F(T) = Y^T Y - I = 0`` with ``Y = D - X T``, ``T = coeff S``.

        ``D`` is the drift and ``X`` the point ``q`` as n x m matrices, and
        ``S`` the symmetric multiplier, so the normal force is ``X S``.  With
        ``A = X^T D``, ``G = X^T X`` and ``C = D^T D - I`` the equation is the
        algebraic Riccati equation ``T G T - T A - A^T T + C = 0``.

        The solve starts from ``S = 0`` when ``lam0`` is ``None``.
        Otherwise ``lam0`` is a history this method returned, ``S_k``,
        ``S_{k-1}`` and ``S_{k-2}``, and the solve starts from the quadratic
        extrapolation ``3 (S_k - S_{k-1}) + S_{k-2}``.  Along a smooth
        trajectory that start is off by O(h^3) instead of the O(h) of
        ``S_k``, so the fixed point takes fewer steps (1.2-1.4 per step
        instead of 2.0-2.5 over the first 1000 steps of the default
        ``brockett`` and ``procrustes`` HTVI runs).  The prediction combines
        exactly symmetric matrices elementwise, so it is exactly symmetric
        and is not symmetrized.  A ``lam0`` of another length than 3 m^2
        raises ``ValueError``.

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
        ``M = I`` that the fixed point tracks.  Returns ``lam``, the ``S``
        of the landing followed by the two newest solutions of ``lam0``
        (after a cold start, the ``S`` of the landing three times, so the
        next solve starts from it), the normal ``X S``, and the last accepted
        landing: ``Y`` as a flat point (the ``Y^T`` the solve formed,
        flattened row-major) and ``max |F|``, which is ``Y``'s violation bit
        for bit, as ``F`` is formed and its largest absolute entry read
        (``argmax`` of ``|F|``, a NaN if ``F`` holds one) as
        :meth:`constraint_violation` forms and reads them.  The Gram matrix
        ``Y^T Y`` is thus formed inside the solve's ``np.errstate``, so an
        overflowing point raises no warning.

        Raises:
            NewtonError: the exact step does not land within ``NEWTON_TOL``.
                The message calls the constraint unreachable when ``K`` has
                an eigenvalue on the imaginary axis, where the real
                solutions of the Riccati equation are lost.
        """
        xt = q.reshape(self.m, self.n)
        dt = drift.reshape(self.m, self.n)
        if lam0 is None:
            s = np.zeros((self.m, self.m))
        else:
            # 3 (S_k - S_{k-1}) + S_{k-2}, elementwise on exactly symmetric
            # matrices, so exactly symmetric
            history = lam0.reshape(3, self.m, self.m)
            s = history[0] - history[1]
            s *= 3.0
            s += history[2]

        def landing(s):
            # Y^T = D^T - (coeff S) X^T, as S is symmetric; F and its max
            # are _gram_violation's steps, so norm is Y's violation
            yt = (coeff * s).dot(xt)
            np.subtract(dt, yt, out=yt)
            f = yt.dot(yt.T)
            f -= self._eye
            # f stays signed: it becomes the trial's buffer
            af = np.abs(f)
            return yt, f, af.item(af.argmax())

        iterations = 0
        yt, f, norm = landing(s)
        while (not norm <= NEWTON_TOL and iterations < NEWTON_MAX_ITER
               and math.isfinite(norm)):
            # the trial S + F / (2 coeff), in F's buffer
            trial = f
            trial /= 2.0 * coeff
            trial += s
            yt_next, f_next, norm_next = landing(trial)
            if not norm_next <= 0.5 * norm:
                break
            s, yt, f, norm = trial, yt_next, f_next, norm_next
            iterations += 1
        if not norm <= NEWTON_TOL:
            a = xt.dot(dt.T)
            k = np.block([[a, -xt.dot(xt.T)], [dt.dot(dt.T) - self._eye, -a.T]])
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
            yt_exact, _, norm_exact = landing(exact)
            if not norm_exact <= NEWTON_TOL:
                # the message quotes the fixed point's residual
                message = (f"Newton did not converge in {iterations} iterations "
                           f"(residual {norm:.3e})")
                real = np.abs(mu.real)
                gap = real.item(real.argmin())
                size = np.abs(mu)
                # eigenvalues on the axis sit there to rounding; a
                # solvable step keeps them near +-1
                if gap <= 1e-8 * size.item(size.argmax()):
                    message += (f"; stiefel constraint unreachable: the Riccati "
                                f"Hamiltonian has an eigenvalue on the imaginary "
                                f"axis (|Re| {gap:.1e})")
                raise NewtonError(message, residual_norm=norm, iterations=iterations)
            s, yt, norm = exact, yt_exact, norm_exact
            iterations += 1
        head = s.reshape(-1)
        # newest first; a cold start fills the history with its solution
        lam = np.concatenate((head, head, head) if lam0 is None
                             else (head, lam0[: 2 * head.size]))
        return lam, s.dot(xt).reshape(-1), yt.reshape(-1), norm, iterations

    def constraint_violation(self, q):
        return self._gram_violation(q.reshape(self.m, self.n))

    def _gram_violation(self, xt):
        """``max |X^T X - I|`` of the m x n matrix ``xt`` holding ``X^T``: the
        violation of the point it holds, since the Gram matrix is computed
        exactly symmetric, and the acceptance test of the CholeskyQR
        retraction.  The maximum is read in place, as the entry of
        ``|X^T X - I|`` that ``argmax`` finds (the first NaN if there is
        one), which is ``np.maximum.reduce``'s float bit for bit."""
        gram = xt.dot(xt.T)
        gram -= self._eye
        np.abs(gram, out=gram)
        return gram.item(gram.argmax())

    def tangent_project(self, q, z):
        """``Z - X sym(X^T Z)``, computed transposed as
        ``Z^T - sym(X^T Z) X^T``."""
        xt = q.reshape(self.m, self.n)
        zt = z.reshape(self.m, self.n)
        xtz = xt.dot(zt.T)
        sym = xtz + xtz.T
        sym /= 2.0
        out = sym.dot(xt)
        return np.subtract(zt, out, out=out).reshape(-1)

    # the flags a failed factorization or an overflowing Gram matrix
    # raises are ignored, as np.linalg does
    @np.errstate(all="ignore")
    def retract(self, q, v):
        """Q factor of the QR factorization of ``W = X + V`` with R's
        diagonal positive, which makes the retraction deterministic (Absil,
        Mahony & Sepulchre 2008, sec. 4.1.1).

        It is computed as CholeskyQR (Fukaya et al. 2014):
        ``L = chol(W^T W)`` and ``Q = W L^{-T}``, the same Q in exact
        arithmetic (``R = L^T``).  The result is accepted only if the
        Cholesky factorization succeeds, ``L``'s diagonal passes the rank
        threshold and ``max |Q^T Q - I| <= RETRACT_ORTH_TOL``; an
        ill-conditioned ``W`` fails the last test, since CholeskyQR loses
        orthogonality as ``cond(W)^2``.  Otherwise, and when ``W^T W``
        would overflow, Householder QR is used, with the sign rule on R's
        diagonal.  The violation returned with the point is that acceptance
        residual on the CholeskyQR path and is computed once from the point
        on the Householder path.

        ``L`` and ``Q^T = L^{-1} W^T`` come from the LAPACK gufuncs
        ``_umath_linalg.cholesky_lo`` and ``solve``, called with the
        ``"d->d"`` and ``"dd->d"`` signatures that ``np.linalg.cholesky``
        and ``np.linalg.solve`` pass, so they give those functions' bits.
        The method runs under ``np.errstate(all="ignore")``, as a decorator:
        the wrappers ignore overflow, division by zero and underflow, and
        turn the invalid flag into ``LinAlgError``.  A Gram matrix that is not positive definite
        leaves ``L`` all NaN, which fails the rank threshold, so the step
        goes to Householder QR.

        The guards are read off the factorization.  ``W^T W`` cannot
        overflow when its diagonal, the squared column norms, stays below
        ``_gram_limit^2``, and ``W`` counts as of full rank when ``min
        diag(L) >= 1e-12 max(1, sqrt(max diag(W^T W)))``.  Both are Python
        ``max``/``min`` over the m diagonal entries.  The ``min`` of the all
        NaN diagonal of a failed factorization is NaN, and fails; the
        ``max`` of a list that holds a NaN may be finite, so the Gram bound
        never decides alone.  Householder QR measures rank against ``1e-12
        max(1, max |W|)``, which it computes; each column norm bounds the
        column's entries, so a ``W`` that passes the Cholesky guards passes
        that test too.

        Raises:
            RetractionError: ``W`` is rank deficient.
        """
        wt = (q + v).reshape(self.m, self.n)
        gram = wt.dot(wt.T)
        low = _cholesky_lo(gram, signature="d->d")
        top = max(gram.diagonal().tolist())
        floor = min(low.diagonal().tolist())
        # Positive comparisons, so a NaN falls through to Householder
        if top < self._gram_square and floor >= 1e-12 * max(1.0, math.sqrt(top)):
            # Q^T = L^{-1} W^T holds the point returned, so the Gram
            # matrix and the violation are those of that point
            qt = _solve(low, wt, signature="dd->d")
            violation = self._gram_violation(qt)
            if violation <= RETRACT_ORTH_TOL:
                return qt.reshape(-1), violation
        aw = np.abs(wt)
        rank_tol = 1e-12 * max(1.0, aw.item(aw.argmax()))
        qf, diag = positive_qr(wt.T)
        if np.count_nonzero(np.abs(diag) < rank_tol):
            raise RetractionError("QR retraction undefined: X + V is rank deficient")
        point = self.from_matrix(qf)
        return point, self._gram_violation(point.reshape(self.m, self.n))

    def transport(self, q_from, q_to, v):
        """Projection-based vector transport onto the tangent space at ``q_to``."""
        return self.tangent_project(q_to, v)

    def random_point(self, rng):
        return self.from_matrix(positive_qr(rng.standard_normal((self.n, self.m)))[0])
