"""Discrete constrained variational mechanics.

This module holds the pieces the constrained integrators share besides the
manifold geometry: the dense Newton solver behind the Stiefel multiplier
solve, the unit-mass midpoint discrete Lagrangian, the momentum form of its
constrained discrete Euler--Lagrange map, and an empirical order-of-accuracy
harness.

The map (:func:`constrained_lagrangian_map`) splits off the force term of
the midpoint Lagrangian and places each drifted position back on the
constraint with the manifold's own multiplier solve, so it forms no
constraint Jacobian (on the sphere the solve is a closed-form quadratic).

One-step maps are pure functions of ``(state, config)``; independent
trajectories can run in parallel, while a single trajectory is sequential.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import NewtonError, SingularJacobianError

if TYPE_CHECKING:
    from .manifolds import EmbeddedManifold

Array = np.ndarray


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonConfig:
    """Tolerance and budget of the implicit solves: the Newton iterations of
    :func:`newton_solve` and the passes of :func:`constrained_lagrangian_map`.

    Attributes:
        tol: convergence threshold on the residual infinity norm.
        max_iter: iteration budget.
    """

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_NEWTON = NewtonConfig()


class NewtonResult(NamedTuple):
    x: Array
    iterations: int
    residual_norm: float


def newton_solve(
    residual: Callable[[Array], Array],
    jacobian: Callable[[Array], Array],
    x0: Array,
    config: NewtonConfig = DEFAULT_NEWTON,
) -> NewtonResult:
    """Solve ``residual(x) = 0`` by Newton iteration from ``x0``.

    ``jacobian(x)`` is the derivative of ``residual`` at ``x``.  Returns the
    solution together with the iteration count and final residual norm.

    Raises:
        SingularJacobianError: the linearized system could not be solved.
        NewtonError: the iteration budget was exhausted; the exception
            carries the last residual norm.
    """
    x = np.asarray(x0, dtype=float).copy()
    res = np.asarray(residual(x), dtype=float)
    if res.shape != x.shape:
        raise ValueError(
            f"residual shape {res.shape} does not match unknown shape {x.shape}"
        )
    norm = float(np.abs(res).max()) if res.size else 0.0
    for iteration in range(config.max_iter):
        if norm <= config.tol:
            return NewtonResult(x, iteration, norm)
        jac = np.asarray(jacobian(x), dtype=float)
        try:
            delta = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian in Newton iteration {iteration}",
                residual_norm=norm,
                iterations=iteration,
            ) from exc
        x = x - delta
        res = np.asarray(residual(x), dtype=float)
        norm = float(np.abs(res).max())
    if norm <= config.tol:
        return NewtonResult(x, config.max_iter, norm)
    raise NewtonError(
        f"Newton did not converge in {config.max_iter} iterations "
        f"(residual {norm:.3e})",
        residual_norm=norm,
        iterations=config.max_iter,
    )


# ---------------------------------------------------------------------------
# Midpoint discrete Lagrangian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MidpointLagrangian:
    """Midpoint-rule discrete Lagrangian of ``L = |qdot|^2 / 2 - V(q)``::

        L_d(q0, q1; h) = |q1 - q0|^2 / (2 h) - h V((q0 + q1) / 2)

    ``d1`` and ``d2`` are its partial derivatives with respect to the first
    and second position argument, and ``d12`` is the mixed second partial
    (``d/dq1`` of ``d1``).  :func:`constrained_lagrangian_map` splits the
    force term ``potential_grad`` off the unit-mass kinetic term.
    """

    potential_grad: Callable[[Array], Array]
    potential_hess: Callable[[Array], Array]

    def d1(self, q0: Array, q1: Array, h: float) -> Array:
        return -(q1 - q0) / h - 0.5 * h * self.potential_grad((q0 + q1) / 2.0)

    def d2(self, q0: Array, q1: Array, h: float) -> Array:
        return (q1 - q0) / h - 0.5 * h * self.potential_grad((q0 + q1) / 2.0)

    def d12(self, q0: Array, q1: Array, h: float) -> Array:
        return -np.eye(q0.size) / h - 0.25 * h * self.potential_hess((q0 + q1) / 2.0)


def project_momentum(manifold: EmbeddedManifold, q: Array, p: Array) -> Array:
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
    newton_iterations: int


def constrained_lagrangian_map(
    lagrangian: MidpointLagrangian,
    manifold: EmbeddedManifold,
    q: Array,
    p: Array,
    h: float,
    newton: NewtonConfig = DEFAULT_NEWTON,
    lam0: Array | None = None,
) -> HamiltonStepResult:
    """Momentum form of the constrained discrete Euler--Lagrange map of a
    :class:`MidpointLagrangian`.

    Solves ``p = -D1 L_d(q, q_next) + J_C(q)^T lam`` with ``C(q_next) = 0``
    and returns ``p_next = D2 L_d(q, q_next)``, the discrete Legendre
    transforms of the position recursion, as a ``(q, p)`` one-step map.

    The unit-mass kinetic term of the midpoint Lagrangian gives
    ``-D1 L_d(q, q_next) = (q_next - q) / h + N(q_next)`` with the force
    term ``N(q_next) = (h / 2) grad V((q + q_next) / 2)``.  Each pass
    freezes ``N`` at the current ``q_next``, lets the manifold place the
    drift ``q + h (p - N)`` back on the constraint
    (:meth:`~bregopt.manifolds.EmbeddedManifold.solve_multiplier`, warm
    started from ``lam0`` and then from the previous pass) and moves
    ``q_next`` there.  A constant force, such as the pendulum's gravity,
    needs one pass; in general the passes contract when
    ``(h^2 / 4) |Hess V| < 1``.  The map stops when the momentum residual
    ``|-D1 L_d(q, q_next) + J_C(q)^T lam - p|_inf`` is at most
    ``newton.tol``, or when a pass leaves ``q_next`` unchanged: that point
    solves the equations to rounding, whose floor on the residual, about
    ``ulp(q) / h``, exceeds ``newton.tol`` at very small steps.  The
    number of passes is reported as the Newton iterations.

    Raises:
        TypeError: ``lagrangian`` is not a :class:`MidpointLagrangian`.
        NewtonError: ``newton.max_iter`` passes left the momentum residual
            above ``newton.tol``, or no multiplier reaches the manifold.
    """
    if not isinstance(lagrangian, MidpointLagrangian):
        raise TypeError("constrained_lagrangian_map needs a MidpointLagrangian")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    lam = np.zeros(manifold.constraint_dim) if lam0 is None else lam0
    q_next = q
    force = 0.5 * h * lagrangian.potential_grad(q)
    for passes in range(1, newton.max_iter + 1):
        drift = q + h * (p - force)
        lam, normal, _ = manifold.solve_multiplier(drift, q, h, lam, newton)
        q_last, q_next = q_next, drift - h * normal
        force = 0.5 * h * lagrangian.potential_grad((q + q_next) / 2.0)
        velocity = (q_next - q) / h
        norm = float(np.abs(velocity + force + normal - p).max())
        if norm <= newton.tol or np.array_equal(q_next, q_last):
            # D2 L_d(q, q_next), as lagrangian.d2 computes it
            return HamiltonStepResult(q_next, velocity - force, lam, passes)
    raise NewtonError(
        f"constrained Euler--Lagrange map did not converge in {newton.max_iter} "
        f"passes (momentum residual {norm:.3e})",
        residual_norm=norm,
        iterations=newton.max_iter,
    )


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
        dropped: step sizes whose error sat at the floating-point noise
            floor and were excluded from the fit.
        at_noise_floor: True when too few points survived to fit a rate.
    """

    rate: float
    step_sizes: list
    errors: list
    dropped: list
    at_noise_floor: bool


StepMap = Callable[[Array, float], Array]


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
    reference_refinement: int = 100,
) -> OrderCheckResult:
    """Fit the empirical order of accuracy of a one-step map.

    Integrates ``step_map`` from ``initial`` to time ``duration`` for each
    step size, measures the terminal-state error against ``step_map`` itself
    run at ``min(h_list) / reference_refinement``, and returns the
    least-squares slope of ``log(error)`` versus ``log(h)``.  Errors below
    one hundred machine epsilons (relative to the reference magnitude) are
    at the noise floor; those points are dropped with a warning.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("order_check needs at least three step sizes")
    if not all(a > b > 0.0 for a, b in zip(h_list, h_list[1:])):
        raise ValueError("step sizes must be positive and strictly decreasing")
    if not 0.0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")

    h_ref = min(h_list) / reference_refinement
    n_ref = max(1, round(duration / h_ref))
    reference = _integrate(step_map, initial, duration / n_ref, n_ref)

    scale = max(1.0, float(np.max(np.abs(reference))))
    floor = 100.0 * np.finfo(float).eps * scale

    used_h, errors, dropped = [], [], []
    for h in h_list:
        n_steps = max(1, round(duration / h))
        h_eff = duration / n_steps
        terminal = _integrate(step_map, initial, h_eff, n_steps)
        err = float(np.max(np.abs(terminal - reference)))
        if err < floor:
            warnings.warn(
                f"order_check: error {err:.2e} at h={h_eff:.2e} is below the "
                f"noise floor {floor:.2e}; dropping this point",
                stacklevel=2,
            )
            dropped.append(h_eff)
            continue
        used_h.append(h_eff)
        errors.append(err)

    if len(used_h) < 2:
        return OrderCheckResult(
            rate=float("nan"),
            step_sizes=used_h,
            errors=errors,
            dropped=dropped,
            at_noise_floor=True,
        )
    slope = float(np.polyfit(np.log(used_h), np.log(errors), 1)[0])
    return OrderCheckResult(
        rate=slope,
        step_sizes=used_h,
        errors=errors,
        dropped=dropped,
        at_noise_floor=False,
    )
