"""Discrete constrained variational mechanics.

This module holds the spherical pendulum's mechanics and the harness that
``bregopt order-check`` runs: the unit-mass midpoint discrete Lagrangian,
the momentum form of its constrained discrete Euler--Lagrange map, and an
empirical order-of-accuracy check.

The Lagrangian is that of a unit mass in a uniform field, such as the
pendulum's gravity.  Its force term is then constant, and the map
(:func:`constrained_lagrangian_map`) is one SHAKE step: the manifold's own
multiplier solve places the drifted position back on the constraint, and
no constraint Jacobian is formed (on the sphere the solve is a closed-form
quadratic).

One-step maps are pure functions of their arguments; independent
trajectories can run in parallel, while a single trajectory is sequential.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import manifolds

Array = np.ndarray


# ---------------------------------------------------------------------------
# Midpoint discrete Lagrangian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MidpointLagrangian:
    """Midpoint-rule discrete Lagrangian of a unit mass in the uniform field
    ``field``, ``L = |qdot|^2 / 2 - V(q)`` with ``V(q) = field . q``::

        L_d(q0, q1; h) = |q1 - q0|^2 / (2 h) - h V((q0 + q1) / 2)

    The pendulum's gravity is such a field.
    """

    field: Array


def project_momentum(manifold: manifolds.EmbeddedManifold, q: Array, p: Array) -> Array:
    """Remove the constraint-normal component of a momentum vector.

    Under the inherited metric this makes ``<dH/dp, grad C>`` vanish, i.e.
    the momentum lies in the cotangent space of the constraint manifold.
    """
    return manifold.tangent_project(q, p)


# ---------------------------------------------------------------------------
# Constrained one-step map
# ---------------------------------------------------------------------------


class HamiltonStepResult(NamedTuple):
    q_next: Array
    p_next: Array
    lam: Array


def constrained_lagrangian_map(
    lagrangian: MidpointLagrangian,
    manifold: manifolds.EmbeddedManifold,
    q: Array,
    p: Array,
    h: float,
    lam0: Array | None = None,
) -> HamiltonStepResult:
    """Momentum form of the constrained discrete Euler--Lagrange map of a
    :class:`MidpointLagrangian`.

    Solves ``p = -D1 L_d(q, q_next) + J_C(q)^T lam`` with ``C(q_next) = 0``
    and returns ``p_next = D2 L_d(q, q_next)``, the discrete Legendre
    transforms of the position recursion, as a ``(q, p)`` one-step map.

    The unit-mass kinetic term gives ``-D1 L_d(q, q_next) = (q_next - q) / h
    + N`` with the force term ``N = (h / 2) field``, which the uniform field
    makes constant.  So the map is one SHAKE step: the manifold places the
    drift ``q + h (p - N)`` back on the constraint
    (:meth:`~bregopt.manifolds.EmbeddedManifold.solve_multiplier`, warm
    started from ``lam0``), ``q_next`` is the drift less ``h J_C(q)^T lam``,
    and ``p_next = (q_next - q) / h - N``.

    Raises:
        NewtonError: no multiplier reaches the manifold.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    lam = np.zeros(manifold.constraint_dim) if lam0 is None else lam0
    force = 0.5 * h * lagrangian.field
    drift = q + h * (p - force)
    lam, normal, _ = manifold.solve_multiplier(drift, q, h, lam)
    q_next = drift - h * normal
    return HamiltonStepResult(q_next, (q_next - q) / h - force, lam)


# ---------------------------------------------------------------------------
# Empirical order of accuracy
# ---------------------------------------------------------------------------


@dataclass
class OrderCheckResult:
    """Outcome of an empirical convergence-rate fit.

    Attributes:
        rate: least-squares slope of ``log(error)`` against ``log(h)``;
            ``nan`` when fewer than two usable points remain.
        step_sizes: step sizes actually used (after snapping to the duration).
        errors: terminal-state errors against the reference trajectory.
    """

    rate: float
    step_sizes: list
    errors: list


StepMap = Callable[[Array, float], Array]

# The reference trajectory runs at min(h_list) / REFERENCE_REFINEMENT.
REFERENCE_REFINEMENT = 100


def _integrate(step_map: StepMap, state: Array, h: float, n_steps: int) -> Array:
    x = np.asarray(state, dtype=float)
    for _ in range(n_steps):
        x = step_map(x, h)
    return x


def order_check(
    step_map: StepMap,
    initial: Array,
    h_list,
    duration: float,
) -> OrderCheckResult:
    """Fit the empirical order of accuracy of a one-step map.

    Integrates ``step_map`` from ``initial`` to time ``duration`` for each
    step size, measures the terminal-state error against ``step_map`` itself
    run at ``min(h_list) / REFERENCE_REFINEMENT``, and returns the
    least-squares slope of ``log(error)`` versus ``log(h)``.  Errors below
    one hundred machine epsilons (relative to the reference magnitude) are
    at the noise floor; those points are dropped with a warning, and the
    rate is ``nan`` when fewer than two points remain.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("order_check needs at least three step sizes")
    if not all(a > b > 0.0 for a, b in zip(h_list, h_list[1:])):
        raise ValueError("step sizes must be positive and strictly decreasing")
    if not 0.0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")

    h_ref = min(h_list) / REFERENCE_REFINEMENT
    n_ref = max(1, round(duration / h_ref))
    reference = _integrate(step_map, initial, duration / n_ref, n_ref)

    scale = max(1.0, float(np.max(np.abs(reference))))
    floor = 100.0 * np.finfo(float).eps * scale

    used_h, errors = [], []
    for h in h_list:
        n_steps = max(1, round(duration / h))
        h_eff = duration / n_steps
        terminal = _integrate(step_map, initial, h_eff, n_steps)
        err = float(np.max(np.abs(terminal - reference)))
        if err < floor:
            warnings.warn(
                f"error {err:.2e} at h={h_eff:.2e} is below the noise floor "
                f"{floor:.2e}; dropping this point",
                stacklevel=2,
            )
            continue
        used_h.append(h_eff)
        errors.append(err)

    rate = float("nan")
    if len(used_h) >= 2:
        rate = float(np.polyfit(np.log(used_h), np.log(errors), 1)[0])
    return OrderCheckResult(rate=rate, step_sizes=used_h, errors=errors)
