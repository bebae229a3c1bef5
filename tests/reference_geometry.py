"""Test-local geometry references: the constraint residual ``C(q)`` and its
dense Jacobian, which the package never forms (it evaluates only the
residual's infinity norm), the ``d`` components of a multiplier along the
Jacobian's rows, a dense Newton solver for the reference solves built on
them, the partial derivatives of the midpoint discrete Lagrangian that
those solves need, an unconstrained (``d = 0``) manifold for the
unconstrained limit of the constrained maps, a random tangent vector
sampler, a random Stiefel multiplier history, a test id for manifold
parameters, and the Stiefel kernels and Stiefel objectives written on the
column-major n x m matrix ``X`` of a flat point, which the package's
kernels, written on the row-major ``X^T``, reproduce bit for bit."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from bregopt import manifolds
from bregopt.dynamics import MidpointLagrangian
from bregopt.errors import NewtonError, RetractionError
from bregopt.manifolds import (NEWTON_MAX_ITER, NEWTON_TOL, RETRACT_ORTH_TOL,
                               EmbeddedManifold, Sphere, Stiefel)


def public_positive_qr(a):
    """``manifolds.positive_qr`` through the public ``np.linalg.qr``: Q with
    R's diagonal made positive, and R's diagonal before the sign change."""
    q, r = np.linalg.qr(a)
    diag = r.diagonal()
    np.negative(q, out=q, where=diag < 0.0)
    return q, diag


class NewtonResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual_norm: float


def newton_solve(residual, jacobian, x0, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
    """Solve ``residual(x) = 0`` by Newton iteration from ``x0``, to ``tol``
    on the residual infinity norm within ``max_iter`` iterations.

    ``jacobian(x)`` is the derivative of ``residual`` at ``x``.  Returns the
    solution together with the iteration count and final residual norm.

    Raises:
        NewtonError: the linearized system could not be solved ("singular
            Jacobian"), or the iteration budget was exhausted; the exception
            carries the last residual norm.
    """
    x = np.asarray(x0, dtype=float).copy()
    res = np.asarray(residual(x), dtype=float)
    if res.shape != x.shape:
        raise ValueError(
            f"residual shape {res.shape} does not match unknown shape {x.shape}"
        )
    norm = float(np.abs(res).max()) if res.size else 0.0
    for iteration in range(max_iter):
        if norm <= tol:
            return NewtonResult(x, iteration, norm)
        try:
            delta = np.linalg.solve(np.asarray(jacobian(x), dtype=float), res)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(
                f"singular Jacobian in Newton iteration {iteration}",
                residual_norm=norm,
                iterations=iteration,
            ) from exc
        x = x - delta
        res = np.asarray(residual(x), dtype=float)
        norm = float(np.abs(res).max())
    if norm <= tol:
        return NewtonResult(x, max_iter, norm)
    raise NewtonError(
        f"Newton did not converge in {max_iter} iterations (residual {norm:.3e})",
        residual_norm=norm,
        iterations=max_iter,
    )


@dataclass(frozen=True)
class DenseLagrangian(MidpointLagrangian):
    """A :class:`MidpointLagrangian` with its partial derivatives: ``d1`` and
    ``d2`` with respect to the first and second position argument, and the
    mixed second partial ``d12`` (``d/dq1`` of ``d1``).  The uniform field
    has no Hessian, so ``d12`` is ``-I / h``."""

    def d1(self, q0, q1, h):
        return -(q1 - q0) / h - 0.5 * h * self.field

    def d2(self, q0, q1, h):
        return (q1 - q0) / h - 0.5 * h * self.field

    def d12(self, q0, q1, h):
        return -np.eye(q0.size) / h


def constraint_count(manifold):
    """Number ``d`` of constraint components: one on the sphere, the
    ``m (m + 1) / 2`` entries of the upper triangle of ``X^T X - I`` on
    Stiefel and none on :class:`Unconstrained`."""
    if isinstance(manifold, Sphere):
        return 1
    if isinstance(manifold, Stiefel):
        return manifold.m * (manifold.m + 1) // 2
    return 0


def packed(manifold, lam):
    """The ``d`` components along the rows of :func:`constraint_jacobian` of
    a multiplier ``lam`` that ``manifold.solve_multiplier`` returned.  On
    Stiefel ``lam`` holds the flattened symmetric ``S`` of the normal
    ``X S`` and, after it, the two solutions before it; its components are
    the upper triangle of the leading ``S``, row by row, with the diagonal
    halved.  The sphere's ``lam`` is its one component."""
    if not isinstance(manifold, Stiefel):
        return lam
    m = manifold.m
    triu = np.triu_indices(m)
    return lam[: m * m].reshape(m, m)[triu] * np.where(triu[0] == triu[1], 0.5, 1.0)


def unpacked(manifold, components):
    """The multiplier of ``manifold`` whose :func:`packed` components are
    ``components``: on Stiefel the history a cold solve landing on that
    ``S`` returns, ``S`` three times, from which the next solve starts at
    ``S``."""
    if not isinstance(manifold, Stiefel):
        return components
    s = np.zeros((manifold.m, manifold.m))
    s[np.triu_indices(manifold.m)] = components
    return np.tile((s + s.T).reshape(-1), 3)


def random_history(st, rng):
    """A Stiefel multiplier history of three random symmetric ``S`` with
    entries of about 0.1, newest first, as one ``lam``."""
    m = st.m
    return np.concatenate([unpacked(st, 0.1 * rng.standard_normal(constraint_count(st)))[: m * m]
                           for _ in range(3)])


def constraint(manifold, q):
    """Constraint residual ``C(q)``, a vector of length
    :func:`constraint_count`:
    ``q.q - 1`` on the sphere, and on Stiefel the upper triangle, diagonal
    included, of ``X^T X - I``, row by row."""
    if isinstance(manifold, Sphere):
        return np.array([q @ q - 1.0])
    if isinstance(manifold, Stiefel):
        x = matrix(manifold, q)
        return (x.T @ x - np.eye(manifold.m))[np.triu_indices(manifold.m)]
    return np.zeros(constraint_count(manifold))


def loop_stiefel_jacobian(st, q):
    """Row by row constraint Jacobian of a Stiefel point, written as a loop
    over the constraint components."""
    x = matrix(st, q)
    jac = np.zeros((constraint_count(st), st.ambient_dim))
    for row, (i, j) in enumerate(zip(*np.triu_indices(st.m))):
        grad = np.zeros((st.n, st.m))
        grad[:, i] += x[:, j]
        grad[:, j] += x[:, i]
        jac[row] = grad.reshape(-1, order="F")
    return jac


def constraint_jacobian(manifold, q):
    """Dense Jacobian of the constraint at ``q``; row ``i`` is the gradient
    of ``C_i``: ``2 q^T`` on the sphere, the loop above on Stiefel."""
    if isinstance(manifold, Sphere):
        return 2.0 * np.asarray(q, dtype=float)[np.newaxis, :]
    if isinstance(manifold, Stiefel):
        return loop_stiefel_jacobian(manifold, q)
    return np.zeros((constraint_count(manifold), manifold.ambient_dim))


def manifold_id(value):
    """Test id of a manifold parameter, such as ``Stiefel('stiefel:20,5')``;
    other parameters keep their ``str``."""
    if isinstance(value, EmbeddedManifold):
        return f"{type(value).__name__}({value.name!r})"
    return str(value)


def random_tangent(manifold, q, rng):
    """Tangent vector at ``q``: the projection of a standard normal draw."""
    return manifold.tangent_project(q, rng.standard_normal(manifold.ambient_dim))


class Unconstrained(EmbeddedManifold):
    """``R^n`` with no constraint (``d = 0``)."""

    def __init__(self, n):
        self.name = f"unconstrained:{n}"
        self.ambient_dim = n

    def constraint_violation(self, q):
        return 0.0

    def solve_multiplier(self, drift, q, coeff, lam0):
        # no normals: the drift is the landing, and it is feasible
        return np.zeros(0), np.zeros(self.ambient_dim), drift, 0.0, 0

    def tangent_project(self, q, z):
        return z.copy()

    def random_point(self, rng):
        return rng.standard_normal(self.ambient_dim)


# ---------------------------------------------------------------------------
# Column-major Stiefel kernels and objectives
# ---------------------------------------------------------------------------


def matrix(st, q):
    """The flat point ``q`` as the n x m matrix ``X`` it flattens."""
    return q.reshape((st.n, st.m), order="F")


def column_major_violation(st, q):
    """``max |X^T X - I|``."""
    x = matrix(st, q)
    return float(np.abs(x.T @ x - np.eye(st.m)).max())


def column_major_tangent_project(st, q, z):
    """``Z - X sym(X^T Z)``."""
    x = matrix(st, q)
    zm = matrix(st, z)
    xtz = x.T @ zm
    return (zm - x @ ((xtz + xtz.T) / 2.0)).reshape(-1, order="F")


def column_major_retract(st, q, v):
    """CholeskyQR of ``W = X + V``, accepted as in ``Stiefel.retract``, and
    Householder QR otherwise; returns the point and its violation."""
    w = matrix(st, q + v)
    big = float(np.abs(w).max())
    rank_tol = 1e-12 * max(1.0, big)
    if big <= math.sqrt(np.finfo(float).max / st.n):
        try:
            low = np.linalg.cholesky(w.T @ w)
        except np.linalg.LinAlgError:
            low = None
        if low is not None and low.diagonal().min() >= rank_tol:
            qf = np.linalg.solve(low, w.T).T
            violation = float(np.abs(qf.T @ qf - np.eye(st.m)).max())
            if violation <= RETRACT_ORTH_TOL:
                return qf.reshape(-1, order="F"), violation
    qf, diag = public_positive_qr(w)
    if (np.abs(diag) < rank_tol).any():
        raise RetractionError("QR retraction undefined: X + V is rank deficient")
    point = qf.reshape(-1, order="F")
    return point, column_major_violation(st, point)


def column_major_solve_multiplier(st, drift, q, coeff, lam0):
    """The SHAKE/RATTLE fixed point with its exact Riccati fallback, as in
    ``Stiefel.solve_multiplier``, on ``Y = D - X (coeff S)`` from ``S = 0``
    or from the prediction ``3 (S_k - S_{k-1}) + S_{k-2}`` of the history
    ``lam0``; returns ``(lam, normal, Y, max |F|, iterations)`` with ``S``
    and ``Y`` the last accepted landing's, flattened column-major, and
    ``lam`` the new ``S`` followed by the two newest of ``lam0`` (the new
    ``S`` three times on a cold start)."""
    m, eye = st.m, np.eye(st.m)
    x = matrix(st, q)
    d = matrix(st, drift)
    if lam0 is None:
        s = np.zeros((m, m))
    else:
        newest, previous, oldest = (block.reshape((m, m), order="F")
                                    for block in np.split(lam0, 3))
        s = 3.0 * (newest - previous) + oldest

    def landing(s):
        y = d - x @ (coeff * s)
        f = y.T @ y - eye
        return y, f, float(np.abs(f).max())

    iterations = 0
    with np.errstate(all="ignore"):
        y, f, norm = landing(s)
        while (not norm <= manifolds.NEWTON_TOL and iterations < manifolds.NEWTON_MAX_ITER
               and math.isfinite(norm)):
            trial = s + f / (2.0 * coeff)
            y_next, f_next, norm_next = landing(trial)
            if not norm_next <= 0.5 * norm:
                break
            s, y, f, norm = trial, y_next, f_next, norm_next
            iterations += 1
        if not norm <= manifolds.NEWTON_TOL:
            a = x.T @ d
            k = np.block([[a, -(x.T @ x)], [d.T @ d - eye, -a.T]])
            mu = np.array([math.nan])
            exact = s
            try:
                mu, u = np.linalg.eig(k)
                right = mu.real > 0.0
                t = np.linalg.solve(u[:m, right].T, u[m:, right].T).real
                exact = (t + t.T) / (2.0 * coeff)
            except np.linalg.LinAlgError:
                pass
            y_exact, _, norm_exact = landing(exact)
            if not norm_exact <= manifolds.NEWTON_TOL:
                message = (f"Newton did not converge in {iterations} iterations "
                           f"(residual {norm:.3e})")
                gap = float(np.abs(mu.real).min())
                if gap <= 1e-8 * float(np.abs(mu).max()):
                    message += (f"; stiefel constraint unreachable: the Riccati "
                                f"Hamiltonian has an eigenvalue on the imaginary "
                                f"axis (|Re| {gap:.1e})")
                raise NewtonError(message, residual_norm=norm, iterations=iterations)
            s, y, norm = exact, y_exact, norm_exact
            iterations += 1
    head = s.reshape(-1, order="F")
    history = np.concatenate([head, head] if lam0 is None else [lam0[: 2 * m * m]])
    return (np.concatenate([head, history]), (x @ s).reshape(-1, order="F"),
            y.reshape(-1, order="F"), norm, iterations)


def column_major_brockett(st, a, n_diag, q):
    """Value and ambient gradient of ``trace(X^T A X N)``: the gradient
    ``G = (A X) 2 mu`` and the value ``<G, X> / 2``."""
    grad = ((a @ matrix(st, q)) * (2.0 * np.asarray(n_diag))).reshape(-1, order="F")
    return 0.5 * float(grad @ q), grad


def column_major_procrustes(st, a, b, q):
    """Value and ambient gradient of ``|A X - B|_F^2``: the sum of squares
    of the residual ``R`` and ``(2 A^T) R``."""
    res = a @ matrix(st, q) - b
    return float(np.sum(res * res)), ((2.0 * a.T) @ res).reshape(-1, order="F")
