"""Benchmark objectives with ambient gradients and independent oracles.

Three problems are provided: Rayleigh-quotient minimization on the unit
sphere, the Brockett cost on the Stiefel manifold (generalized eigenvalue
problem), and the orthogonal Procrustes problem.  Optimal values come from
dense closed-form oracles: the symmetric eigendecomposition for Rayleigh and
Brockett and the SVD for balanced Procrustes, both from ``numpy.linalg``.

Objectives and gradients take flat point vectors in the convention of the
host manifold (Stiefel points column-major flattened).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .manifolds import EmbeddedManifold, Sphere, Stiefel


@dataclass
class ProblemSpec:
    """An objective bound to a manifold, with optional solution oracle."""

    name: str
    manifold: EmbeddedManifold
    f: Callable[[np.ndarray], float]
    ambient_grad: Callable[[np.ndarray], np.ndarray]
    oracle_value: float | None = None
    oracle_point: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Benchmark problems
# ---------------------------------------------------------------------------


def _check_symmetric(a: np.ndarray, label: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{label} must be a square matrix")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError(f"{label} must be symmetric")
    return a


def rayleigh(a: np.ndarray) -> ProblemSpec:
    """Rayleigh-quotient minimization of ``f(v) = -v^T A v`` on the sphere.

    The minimum is the negative largest eigenvalue, attained at the
    corresponding unit eigenvector.
    """
    a = _check_symmetric(a, "A")
    n = a.shape[0]
    manifold = Sphere(n)
    values, vectors = np.linalg.eigh(a)

    def f(q):
        return -float(q @ (a @ q))

    def grad(q):
        return -2.0 * (a @ q)

    return ProblemSpec(
        name="rayleigh",
        manifold=manifold,
        f=f,
        ambient_grad=grad,
        oracle_value=-float(values[-1]),
        oracle_point=vectors[:, -1].copy(),
    )


def brockett(a: np.ndarray, n_diag: np.ndarray) -> ProblemSpec:
    """Brockett cost ``f(X) = trace(X^T A X N)`` on the Stiefel manifold.

    ``n_diag`` holds the nondecreasing nonnegative diagonal of ``N``.  The
    minimizer's columns are eigenvectors of the smallest eigenvalues of
    ``A``, with the largest weight paired with the smallest eigenvalue, so
    the optimal value is ``sum_j mu_j * lambda_{m - j + 1}`` for ascending
    eigenvalues ``lambda``.
    """
    a = _check_symmetric(a, "A")
    mu = np.asarray(n_diag, dtype=float)
    if mu.ndim != 1:
        raise ValueError("N must be given as its 1-D diagonal")
    if np.any(mu < 0.0) or np.any(np.diff(mu) < 0.0):
        raise ValueError("diagonal of N must satisfy 0 <= mu_1 <= ... <= mu_m")
    n, m = a.shape[0], mu.size
    manifold = Stiefel(n, m)
    values, vectors = np.linalg.eigh(a)
    n_mat = np.diag(mu)

    def f(q):
        x = manifold.as_matrix(q)
        return float(np.trace(x.T @ a @ x @ n_mat))

    def grad(q):
        x = manifold.as_matrix(q)
        return manifold.from_matrix(2.0 * a @ x @ n_mat)

    oracle_value = float(np.sum(mu * values[m - 1 :: -1]))
    oracle_point = manifold.from_matrix(vectors[:, m - 1 :: -1])
    return ProblemSpec(
        name="brockett",
        manifold=manifold,
        f=f,
        ambient_grad=grad,
        oracle_value=oracle_value,
        oracle_point=oracle_point,
    )


def procrustes(a: np.ndarray, b: np.ndarray) -> ProblemSpec:
    """Orthogonal Procrustes problem ``f(X) = |A X - B|_F^2`` on Stiefel.

    Requires ``A (l x n)`` and ``B (l x m)`` with ``l >= n`` and ``l > m``.
    In the balanced case ``n = m`` the global solution ``X* = U V^T`` comes
    from the SVD ``B^T A = U S V^T``; the unbalanced case has no closed-form
    oracle and only descent trends can be checked.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("A and B must share their row dimension")
    l, n = a.shape
    m = b.shape[1]
    if l < n or l <= m:
        raise ValueError("procrustes requires l >= n and l > m")
    if n < m:
        raise ValueError("procrustes requires n >= m for the Stiefel domain")
    manifold = Stiefel(n, m)

    def f(q):
        x = manifold.as_matrix(q)
        res = a @ x - b
        return float(np.sum(res * res))

    def grad(q):
        x = manifold.as_matrix(q)
        return manifold.from_matrix(2.0 * a.T @ (a @ x - b))

    oracle_value = None
    oracle_point = None
    if n == m:
        # Minimizing |AX - B|_F^2 over O(n) maximizes trace(X^T A^T B); the
        # maximizer is U V^T from the SVD of A^T B.
        u, _, vt = np.linalg.svd(a.T @ b)
        x_star = u @ vt
        oracle_point = manifold.from_matrix(x_star)
        oracle_value = f(oracle_point)
    return ProblemSpec(
        name="procrustes",
        manifold=manifold,
        f=f,
        ambient_grad=grad,
        oracle_value=oracle_value,
        oracle_point=oracle_point,
    )


# ---------------------------------------------------------------------------
# Instance generation and file input
# ---------------------------------------------------------------------------


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian sample."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def symmetric_from_spectrum(rng: np.random.Generator, spectrum: np.ndarray) -> np.ndarray:
    """Symmetric matrix with a prescribed spectrum and random eigenbasis."""
    spectrum = np.asarray(spectrum, dtype=float)
    q = random_orthogonal(rng, spectrum.size)
    return (q * spectrum) @ q.T


def symmetric_instance(seed: int, n: int, conditioning: float = 10.0) -> np.ndarray:
    """Reproducible symmetric matrix with eigenvalues spread over
    ``[1, conditioning]``."""
    if not conditioning >= 1.0:
        raise ValueError(f"conditioning must be >= 1, not {conditioning}")
    rng = np.random.default_rng(seed)
    return symmetric_from_spectrum(rng, np.linspace(1.0, conditioning, n))


def make_instance(
    name: str, dims, seed: int = 0, conditioning: float = 10.0
) -> ProblemSpec:
    """Seeded benchmark instance of a named problem.

    ``dims`` is ``(n,)`` for rayleigh, ``(n, m)`` for brockett and
    ``(n, m, l)`` for procrustes.  The rayleigh and brockett matrices are
    :func:`symmetric_instance` draws, so ``conditioning`` must be >= 1;
    procrustes ignores it.
    """
    if name == "rayleigh":
        (n,) = dims
        return rayleigh(symmetric_instance(seed, n, conditioning))
    if name == "brockett":
        n, m = dims
        return brockett(symmetric_instance(seed, n, conditioning), np.arange(1.0, m + 1.0))
    if name == "procrustes":
        n, m, l = dims
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((l, n))
        b = rng.standard_normal((l, m))
        return procrustes(a, b)
    raise ValueError(f"unknown problem name {name!r}")


def load_matrix(path) -> np.ndarray:
    """Read a plain-text matrix: one row per line, whitespace-separated."""
    return np.atleast_2d(np.loadtxt(path, dtype=float))
