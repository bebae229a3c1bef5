"""Test-local geometry references: the dense constraint Jacobian, which the
package never forms, a dense Newton solver for the reference solves built
on it, the partial derivatives of the midpoint discrete Lagrangian that
those solves need, an unconstrained (``d = 0``) manifold for the
unconstrained limit of the constrained maps, and a random tangent vector
sampler."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from bregopt.dynamics import MidpointLagrangian
from bregopt.errors import NewtonError
from bregopt.manifolds import NEWTON_MAX_ITER, NEWTON_TOL, EmbeddedManifold, Sphere, Stiefel


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


def loop_stiefel_jacobian(st, q):
    """Row by row constraint Jacobian of a Stiefel point, written as a loop
    over the constraint components."""
    x = st.as_matrix(q)
    jac = np.zeros((st.constraint_dim, st.ambient_dim))
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
    return np.zeros((manifold.constraint_dim, manifold.ambient_dim))


def random_tangent(manifold, q, rng):
    """Tangent vector at ``q``: the projection of a standard normal draw."""
    return manifold.tangent_project(q, rng.standard_normal(manifold.ambient_dim))


class Unconstrained(EmbeddedManifold):
    """``R^n`` with no constraint (``d = 0``)."""

    constraint_dim = 0

    def __init__(self, n):
        self.name = f"unconstrained:{n}"
        self.ambient_dim = n

    def constraint(self, q):
        return np.zeros(0)

    def constraint_violation(self, q):
        return 0.0

    def solve_multiplier(self, drift, q, coeff, lam0):
        return np.zeros(0), np.zeros(self.ambient_dim), 0

    def tangent_project(self, q, z):
        return z.copy()

    def random_point(self, rng):
        return rng.standard_normal(self.ambient_dim)
