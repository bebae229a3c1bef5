"""Benchmark objectives with ambient gradients and independent oracles.

Three problems are provided: Rayleigh-quotient minimization on the unit
sphere, the Brockett cost on the Stiefel manifold (generalized eigenvalue
problem), and the orthogonal Procrustes problem.  Optimal values come from
dense closed-form oracles: the symmetric eigendecomposition for Rayleigh and
Brockett and the SVD for balanced Procrustes, both from ``numpy.linalg``.

Objectives and gradients take flat point vectors in the convention of the
host manifold (Stiefel points column-major flattened).  Each problem
gives them two ways: ``value_and_grad``, the objective value and the
ambient gradient from the work common to both, which the run loop calls
once per iterate, and ``ambient_grad`` alone, which ``el_v2`` calls at its
look-ahead point.  Both evaluate the same per-problem code, so their
gradients agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .manifolds import EmbeddedManifold, Sphere, Stiefel, positive_qr


@dataclass
class ProblemSpec:
    """An objective bound to a manifold, with optional solution oracle.

    ``value_and_grad(q)`` returns the objective value at ``q`` and
    ``ambient_grad(q)`` from one evaluation.
    """

    name: str
    manifold: EmbeddedManifold
    ambient_grad: Callable[[np.ndarray], np.ndarray]
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    oracle_value: float | None = None
    oracle_point: np.ndarray | None = None


def _spec(name, manifold, shared, value, gradient, oracle_value=None, oracle_point=None):
    """A :class:`ProblemSpec` whose objective at ``q`` is
    ``value(q, shared(q))`` and whose ambient gradient is
    ``gradient(q, shared(q))``; ``value_and_grad`` evaluates ``shared`` once
    for both."""

    def ambient_grad(q):
        return gradient(q, shared(q))

    def value_and_grad(q):
        s = shared(q)
        return value(q, s), gradient(q, s)

    return ProblemSpec(name, manifold, ambient_grad, value_and_grad,
                       oracle_value, oracle_point)


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
    return _spec(
        "rayleigh",
        manifold,
        shared=lambda q: a @ q,
        value=lambda q, aq: -float(q @ aq),
        gradient=lambda q, aq: -2.0 * aq,
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
    # The gradient 2 A X N scales the columns of A X by 2 mu, which rounds
    # exactly as the product ((2 A) X) N does.
    two_mu = 2.0 * mu
    return _spec(
        "brockett",
        manifold,
        shared=manifold.as_matrix,
        value=lambda q, x: float(np.trace(x.T @ a @ x @ n_mat)),
        gradient=lambda q, x: manifold.from_matrix((a @ x) * two_mu),
        oracle_value=float(np.sum(mu * values[m - 1 :: -1])),
        oracle_point=manifold.from_matrix(vectors[:, m - 1 :: -1]),
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
    two_at = 2.0 * a.T

    def residual(q):
        return a @ manifold.as_matrix(q) - b

    def value(q, res):
        return float(np.sum(res * res))

    oracle_value = None
    oracle_point = None
    if n == m:
        # Minimizing |AX - B|_F^2 over O(n) maximizes trace(X^T A^T B); the
        # maximizer is U V^T from the SVD of A^T B.
        u, _, vt = np.linalg.svd(a.T @ b)
        oracle_point = manifold.from_matrix(u @ vt)
        oracle_value = value(oracle_point, residual(oracle_point))
    return _spec(
        "procrustes",
        manifold,
        shared=residual,
        value=value,
        gradient=lambda q, res: manifold.from_matrix(two_at @ res),
        oracle_value=oracle_value,
        oracle_point=oracle_point,
    )


# ---------------------------------------------------------------------------
# Instance generation and file input
# ---------------------------------------------------------------------------


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian sample."""
    return positive_qr(rng.standard_normal((n, n)))[0]


def symmetric_from_spectrum(rng: np.random.Generator, spectrum: np.ndarray) -> np.ndarray:
    """Symmetric matrix with a prescribed spectrum and random eigenbasis."""
    spectrum = np.asarray(spectrum, dtype=float)
    q = random_orthogonal(rng, spectrum.size)
    return (q * spectrum) @ q.T


def symmetric_instance(seed: int, n: int, conditioning: float = 10.0) -> np.ndarray:
    """Reproducible symmetric matrix with eigenvalues spread over
    ``[1, conditioning]``; ``conditioning`` must be finite."""
    if not 1.0 <= conditioning < np.inf:
        raise ValueError(f"conditioning must be >= 1 and finite, not {conditioning}")
    rng = np.random.default_rng(seed)
    return symmetric_from_spectrum(rng, np.linspace(1.0, conditioning, n))


def make_instance(
    name: str, dims, seed: int = 0, conditioning: float = 10.0
) -> ProblemSpec:
    """Seeded benchmark instance of a named problem.

    ``dims`` is ``(n,)`` for rayleigh, ``(n, m)`` for brockett and
    ``(n, m, l)`` for procrustes.  The rayleigh and brockett matrices are
    :func:`symmetric_instance` draws, so ``conditioning`` must be finite and
    >= 1; procrustes ignores it.
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
    """Read a plain-text matrix: one row per line, whitespace-separated.

    A file of one number per line is a column.  A file with no numbers
    (empty, blank or only ``#`` comments) and a non-finite entry (``nan``,
    ``inf``) are each a ``ValueError`` that names the file.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    # numpy would only warn and return an empty array
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise ValueError(f"{path}: the file holds no numbers")
    matrix = np.loadtxt(lines, dtype=float, ndmin=2)
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return matrix
