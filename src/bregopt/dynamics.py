"""Discrete constrained variational mechanics.

This module holds the spherical pendulum's mechanics and the harness that
``bregopt order-check`` runs: the unit-mass midpoint discrete Lagrangian,
the momentum form of its constrained discrete Euler--Lagrange map, and an
empirical order-of-accuracy check.

The Lagrangian is that of a unit mass in a uniform field, such as the
pendulum's gravity.  Its force term is then constant, and the map
(:func:`constrained_lagrangian_map`) is one SHAKE step: the manifold's own
multiplier solve places the drifted position back on the constraint and
returns the point it lands on, which is the next position, so the landing
has one formula, the manifold's, shared with the HTVI step.  No constraint
Jacobian is formed (on the sphere the solve is a closed-form quadratic).

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
from .errors import BregoptError

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
    started from ``lam0``, a ``lam`` the solve returned, or cold when it is
    ``None``), ``q_next`` is the point the solve lands on, the drift less
    ``h`` times the normal force, and ``p_next = (q_next - q) / h - N``.
    The returned ``lam`` is the solve's own warm-start state, in the
    manifold's layout: on the sphere the multiplier itself, on Stiefel the
    symmetric ``S`` of the normal ``X S`` followed by the two solutions
    before it, so the multiplier is its leading m x m block.

    Raises:
        NewtonError: no multiplier reaches the manifold.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    force = 0.5 * h * lagrangian.field
    drift = q + h * (p - force)
    lam, _, q_next, _, _ = manifold.solve_multiplier(drift, q, h, lam0)
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

# The reference trajectory runs at min(h_list) / REFERENCE_REFINEMENT, in
# at most REFERENCE_STEP_BUDGET steps.
REFERENCE_REFINEMENT = 100
REFERENCE_STEP_BUDGET = 10 ** 7


def _integrate(step_map: StepMap, state: Array, h: float, n_steps: int) -> Array:
    # a diverging trajectory overflows to inf and NaN without a warning;
    # order_check tests the state it ends in
    x = np.asarray(state, dtype=float)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(n_steps):
                x = step_map(x, h)
    except BregoptError as exc:
        raise BregoptError(f"the trajectory at h={h!r} fails at time {step * h!r}: "
                           f"{exc}") from exc
    return x


def _check_finite(state: Array, h: float, duration: float) -> None:
    if not np.all(np.isfinite(state)):
        raise BregoptError(f"the trajectory at h={h!r} is not finite at time {duration!r}")


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
    rate is ``nan`` when fewer than two points remain.  The map runs with
    numpy's overflow and invalid-value warnings off, and a trajectory that
    diverges is a numerical failure, not a fit.

    Raises:
        BregoptError: the reference or a terminal state is not finite, or a
            step of the map raises one; the message names the step size.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("order_check needs at least three step sizes")
    # an infinite first step would be snapped to one step of ``duration``
    if not (h_list[0] < math.inf and all(a > b > 0.0 for a, b in zip(h_list, h_list[1:]))):
        raise ValueError("step sizes must be positive, finite and strictly decreasing")
    if not 0.0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")
    # bound the longest run, the reference, before any step count is formed
    h_ref = min(h_list) / REFERENCE_REFINEMENT
    if not h_ref * REFERENCE_STEP_BUDGET >= duration:
        raise ValueError(f"step sizes down to {h_list[-1]!r} over duration {duration!r} need "
                         f"more than {REFERENCE_STEP_BUDGET} reference steps")
    # each size is snapped to a whole number of steps, and two sizes that
    # snap to one count would be one point fitted twice
    counts = [max(1, round(duration / h)) for h in h_list]
    if not all(a < b for a, b in zip(counts, counts[1:])):
        raise ValueError(f"step sizes {h_list} snap to {counts} steps over duration "
                         f"{duration}; the step counts must strictly increase")

    n_ref = max(1, round(duration / h_ref))
    reference = _integrate(step_map, initial, duration / n_ref, n_ref)
    _check_finite(reference, duration / n_ref, duration)

    scale = max(1.0, float(np.max(np.abs(reference))))
    floor = 100.0 * np.finfo(float).eps * scale

    used_h, errors = [], []
    for n_steps in counts:
        h_eff = duration / n_steps
        terminal = _integrate(step_map, initial, h_eff, n_steps)
        _check_finite(terminal, h_eff, duration)
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
