"""Benchmark objectives with ambient gradients and independent oracles.

Three problems are provided: Rayleigh-quotient minimization on the unit
sphere, the Brockett cost on the Stiefel manifold (generalized eigenvalue
problem), and the orthogonal Procrustes problem.  Optimal values come from
closed forms: the symmetric eigenvalues alone for Rayleigh and Brockett, with
no eigenvectors formed, and ``f`` at the SVD's ``U V^T`` for balanced
Procrustes.  Each problem also carries the Lipschitz constant ``L`` of its
ambient gradient, from the same spectral data: ``2 max|lambda(A)|`` for
Rayleigh, ``2 max|lambda(A)| mu_max`` for Brockett and ``2 sigma_max(A)^2``
for Procrustes.  A drawn Rayleigh or Brockett matrix brings the spectrum it was
drawn from, so its oracle needs no factorization; a matrix given by the
caller, such as one read from a file, gets its eigenvalues from
``numpy.linalg.eigvalsh``.

Each problem gives one evaluation, ``value_and_grad(q)``: the objective
value and its ambient gradient at a flat point ``q``, computed from the work
common to both.  The run loop calls it once per iterate and ``el_v2`` once
more at its look-ahead point.  Each gradient's factor 2 lives in an array
formed once, at construction: ``-2 A`` for Rayleigh, ``2 mu`` for Brockett
and ``2 A`` for Procrustes, so no evaluation spends a multiply of its own on
it.  Points take the convention of the host manifold: a Stiefel point is
``X`` flattened column-major, and the Stiefel objectives read it row-major
as ``X^T`` (``q.reshape(m, n)``, no copy), as the manifold's kernels do, and
return the gradient ``G`` as the row-major flattening of ``G^T``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .manifolds import EmbeddedManifold, Sphere, Stiefel, positive_qr


@dataclass
class ProblemSpec:
    """An objective bound to a manifold, with its optimal value where a
    closed form gives one and ``None`` elsewhere; no minimizer is kept.

    ``value_and_grad(q)`` returns the objective value at ``q``, a Python
    float, and the ambient gradient there.  ``lipschitz`` is the Lipschitz
    constant of that gradient over the ambient space, a finite float >= 0,
    or ``None`` when it is not known (a spec built without it) or does not
    fit a float.  HTVI's gradient restart reads it
    (:func:`~bregopt.bregman.envelope_time`).
    """

    name: str
    manifold: EmbeddedManifold
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    oracle_value: float | None = None
    lipschitz: float | None = None


# ---------------------------------------------------------------------------
# Benchmark problems
# ---------------------------------------------------------------------------


def _check_symmetric(a: np.ndarray, label: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{label} must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{label} must be finite")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError(f"{label} must be symmetric")
    return a


def _scaled(factor: float, a: np.ndarray, label: str) -> np.ndarray:
    """``factor * a``, with no warning; a ``ValueError`` names ``label``
    when the product is not finite."""
    with np.errstate(over="ignore"):
        scaled = factor * a
    if not np.all(np.isfinite(scaled)):
        raise ValueError(f"{label} is out of range: {factor:g} {label} is not finite")
    return scaled


def _finite_oracle(value: float, label: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{label} is out of range: the optimal value is not finite")
    return value


def _finite_or_none(value: float) -> float | None:
    """``value`` when it is finite; a Lipschitz constant that overflowed is
    not known."""
    return value if math.isfinite(value) else None


def _spectral_radius(values: np.ndarray) -> float:
    """``max|lambda|`` of the ascending eigenvalues ``values``."""
    return max(abs(float(values[0])), abs(float(values[-1])))


def _eigenvalues(a: np.ndarray, eigenvalues) -> np.ndarray:
    """The ascending eigenvalues of ``a``: ``eigenvalues`` when the caller
    drew ``a`` from them, else ``eigvalsh``'s."""
    if eigenvalues is None:
        return np.linalg.eigvalsh(a)
    values = np.asarray(eigenvalues, dtype=float)
    if values.shape != a.shape[:1] or np.any(values[1:] < values[:-1]):
        raise ValueError("eigenvalues must be the ascending spectrum of A, one per row")
    return values


def rayleigh(a: np.ndarray, *, eigenvalues=None) -> ProblemSpec:
    """Rayleigh-quotient minimization of ``f(v) = -v^T A v`` on the sphere.

    The minimum is the negative largest eigenvalue, attained at the
    corresponding unit eigenvector.  ``eigenvalues``, the ascending spectrum
    ``A`` was drawn from, gives it with no factorization; without it the
    eigenvalues alone are computed.  The gradient's factor -2 is carried in
    the matrix ``-2 A``, formed once here.
    Scaling by -2 is exact, short of overflow, and commutes with every
    rounding of the product, so the gradient ``G`` is the bits of
    ``-2 (A v)`` and ``f = <v, G> / 2`` the bits of ``-v^T (A v)``.  ``A``
    must be finite, and so must ``-2 A``.  The gradient's Lipschitz constant
    is ``2 max|lambda(A)|``, ``None`` when that overflows.
    """
    a = _check_symmetric(a, "A")
    n = a.shape[0]
    manifold = Sphere(n)
    values = _eigenvalues(a, eigenvalues)
    minus_two_a = _scaled(-2.0, a, "A")

    def value_and_grad(q):
        grad = minus_two_a.dot(q)
        return 0.5 * float(q.dot(grad)), grad

    return ProblemSpec("rayleigh", manifold, value_and_grad, oracle_value=-float(values[-1]),
                       lipschitz=_finite_or_none(2.0 * _spectral_radius(values)))


def brockett(a: np.ndarray, n_diag: np.ndarray, *, eigenvalues=None) -> ProblemSpec:
    """Brockett cost ``f(X) = trace(X^T A X N)`` on the Stiefel manifold.

    ``n_diag`` holds the nondecreasing nonnegative diagonal of ``N``.  The
    minimizer's columns are eigenvectors of the smallest eigenvalues of
    ``A``, with the largest weight paired with the smallest eigenvalue, so
    the optimal value is ``sum_j mu_j * lambda_{m - j + 1}`` for ascending
    eigenvalues ``lambda``: ``eigenvalues``, the spectrum ``A`` was drawn
    from, or else the only spectral data computed.  ``A`` and the optimal
    value must be finite.  The gradient's Lipschitz constant is
    ``2 max|lambda(A)| mu_m``, ``None`` when that overflows.
    """
    a = _check_symmetric(a, "A")
    mu = np.asarray(n_diag, dtype=float)
    if mu.ndim != 1:
        raise ValueError("N must be given as its 1-D diagonal")
    if np.any(mu < 0.0) or np.any(np.diff(mu) < 0.0):
        raise ValueError("diagonal of N must satisfy 0 <= mu_1 <= ... <= mu_m")
    n, m = a.shape[0], mu.size
    manifold = Stiefel(n, m)
    values = _eigenvalues(a, eigenvalues)
    # The gradient 2 A X N, read as 2 N X^T A^T, scales the rows of X^T A^T
    # by 2 mu, which rounds exactly as the product ((2 A) X) N does.
    two_mu = (2.0 * mu)[:, np.newaxis]

    def value_and_grad(q):
        grad = q.reshape(m, n).dot(a.T)
        grad *= two_mu
        grad = grad.reshape(-1)
        # f = trace(X^T A X N) = <G, X> / 2, and G^T and X^T share the flat order
        return 0.5 * float(grad.dot(q)), grad

    with np.errstate(over="ignore"):
        oracle_value = float(np.sum(mu * values[m - 1 :: -1]))
    lipschitz = _finite_or_none(2.0 * _spectral_radius(values) * float(mu[-1]))
    return ProblemSpec("brockett", manifold, value_and_grad, _finite_oracle(oracle_value, "A"),
                       lipschitz)


def procrustes(a: np.ndarray, b: np.ndarray) -> ProblemSpec:
    """Orthogonal Procrustes problem ``f(X) = |A X - B|_F^2`` on Stiefel.

    Requires ``A (l x n)`` and ``B (l x m)`` with ``l >= n`` and ``l > m``.
    In the balanced case ``n = m`` the global solution ``X* = U V^T`` comes
    from the SVD ``A^T B = U S V^T``; the unbalanced case has no closed-form
    oracle and only descent trends can be checked.  ``2 A`` must be finite,
    and so must the optimal value when there is an oracle.  The gradient's
    Lipschitz constant ``2 sigma_max(A)^2`` is read from the eigenvalues of
    ``A^T A``; it is ``None`` when ``A^T A`` or the constant overflows.
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
    two_a = _scaled(2.0, a, "A")

    def value_and_grad(q):
        res = a.dot(q.reshape(m, n).T)
        res -= b
        # the value by np.sum's own reduction, without its Python wrapper,
        # and the gradient 2 A^T (A X - B), transposed
        return float(np.add.reduce(res * res, axis=None)), res.T.dot(two_a).reshape(-1)

    oracle_value = None
    if n == m:
        # Minimizing |AX - B|_F^2 over O(n) maximizes trace(X^T A^T B); the
        # maximizer is U V^T from the SVD of A^T B.
        with np.errstate(all="ignore"):
            u, _, vt = np.linalg.svd(a.T.dot(b))
            oracle_value = _finite_oracle(value_and_grad(manifold.from_matrix(u.dot(vt)))[0],
                                          "A or B")
    with np.errstate(all="ignore"):
        gram = a.T.dot(a)
        lipschitz = (_finite_or_none(2.0 * float(np.linalg.eigvalsh(gram)[-1]))
                     if np.isfinite(gram).all() else None)
    return ProblemSpec("procrustes", manifold, value_and_grad, oracle_value, lipschitz)


# ---------------------------------------------------------------------------
# Instance generation and file input
# ---------------------------------------------------------------------------


def symmetric_from_spectrum(rng: np.random.Generator, spectrum: np.ndarray) -> np.ndarray:
    """Symmetric matrix with a prescribed spectrum and random eigenbasis."""
    spectrum = np.asarray(spectrum, dtype=float)
    # the sign-fixed QR factor of a Gaussian sample is a Haar-random basis
    q = positive_qr(rng.standard_normal((spectrum.size, spectrum.size)))[0]
    return (q * spectrum).dot(q.T)


def _spectrum(n: int, conditioning: float) -> np.ndarray:
    """The ascending eigenvalues ``linspace(1, conditioning, n)`` of a drawn
    instance; ``conditioning`` is checked first, so linspace never sees an
    infinite or NaN end."""
    if not 1.0 <= conditioning < np.inf:
        raise ValueError(f"conditioning must be >= 1 and finite, not {conditioning}")
    # linspace's interior products may overflow near the float limit; the
    # entries stay finite, as the last is set to ``conditioning`` itself
    with np.errstate(over="ignore"):
        return np.linspace(1.0, conditioning, n)


def symmetric_instance(seed: int, n: int, conditioning: float = 10.0) -> np.ndarray:
    """Reproducible symmetric matrix with eigenvalues spread over
    ``[1, conditioning]``; ``conditioning`` must be finite."""
    return symmetric_from_spectrum(np.random.default_rng(seed), _spectrum(n, conditioning))


# Most entries the largest matrix of a drawn instance may have: n x n for
# rayleigh and brockett, l x n for procrustes.
MAX_INSTANCE_ENTRIES = 10**8


def make_instance(
    name: str, dims, seed: int = 0, conditioning: float = 10.0
) -> ProblemSpec:
    """Seeded benchmark instance of a named problem.

    ``dims`` is ``(n,)`` for rayleigh, ``(n, m)`` for brockett and
    ``(n, m, l)`` for procrustes, integers with ``n >= 2``, ``1 <= m <= n``
    and ``l >= n``, ``l > m``.  The largest matrix drawn, n x n or l x n,
    may have at most ``MAX_INSTANCE_ENTRIES`` entries.  The dims are checked
    before anything is drawn, and a ``ValueError`` names them.  The rayleigh
    and brockett matrices are :func:`symmetric_instance` draws, so
    ``conditioning`` must be finite and >= 1; procrustes ignores it.  Their
    oracles come from the spectrum drawn, ``linspace(1, conditioning, n)``,
    with no factorization: ``-conditioning`` for rayleigh, since linspace
    ends on it exactly, and the weighted sum of the m smallest values for
    brockett.
    """
    labels = {"rayleigh": ("n",), "brockett": ("n", "m"), "procrustes": ("n", "m", "l")}
    if not isinstance(name, str) or name not in labels:
        raise ValueError(f"unknown problem name {name!r}")
    dims, labels = tuple(dims), labels[name]
    if len(dims) != len(labels):
        reason = f"expected ({', '.join(labels)}), not a list of length {len(dims)}"
    elif not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) for d in dims):
        reason = "every entry must be an integer"
    else:
        size = dict(zip(labels, map(int, dims)))
        n, m, l = size["n"], size.get("m", 1), size.get("l")
        rows = n if l is None else l
        if n < 2:
            reason = "n must be at least 2"
        elif not 1 <= m <= n:
            reason = "m must satisfy 1 <= m <= n"
        elif l is not None and not (l >= n and l > m):
            reason = "l must satisfy l >= n and l > m"
        elif rows * n > MAX_INSTANCE_ENTRIES:
            reason = (f"its {rows} x {n} matrix would have more than "
                      f"MAX_INSTANCE_ENTRIES = {MAX_INSTANCE_ENTRIES} entries")
        else:
            reason = None
    if reason is not None:
        raise ValueError(f"{name} dims {list(dims)!r}: {reason}")
    if name == "procrustes":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((l, n))
        b = rng.standard_normal((l, m))
        return procrustes(a, b)
    # symmetric_instance draws A from this spectrum, so the oracles read it
    spectrum = _spectrum(n, conditioning)
    a = symmetric_instance(seed, n, conditioning)
    if name == "rayleigh":
        return rayleigh(a, eigenvalues=spectrum)
    return brockett(a, np.arange(1.0, m + 1.0), eigenvalues=spectrum)


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
