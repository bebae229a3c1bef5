"""Test-local geometry references: the dense constraint Jacobian, which the
package never forms, and an unconstrained (``d = 0``) manifold for the
unconstrained limit of the constrained maps."""

import numpy as np

from bregopt.manifolds import EmbeddedManifold, Sphere, Stiefel


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

    def solve_multiplier(self, drift, q, coeff, lam0, newton):
        return np.zeros(0), np.zeros(self.ambient_dim), 0

    def _project(self, q, z):
        return z.copy()

    def random_point(self, rng):
        return rng.standard_normal(self.ambient_dim)
