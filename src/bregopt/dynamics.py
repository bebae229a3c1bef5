"""Discrete constrained variational mechanics.

This module provides the generic machinery shared by every integrator in the
package: two-point generating functions (discrete Lagrangians and discrete
left/right Hamiltonians) with their discrete Legendre transforms, the
one-step maps they induce when a holonomic constraint is enforced with
Lagrange multipliers, a dense Newton solver, and an empirical
order-of-accuracy harness.

The momentum form of the constrained Euler--Lagrange map
(:func:`constrained_lagrangian_map`) splits off the force term of the
unit-mass midpoint Lagrangian and places each drifted position back on the
constraint with the manifold's own multiplier solve, so it forms no
constraint Jacobian (on the sphere the solve is a closed-form quadratic).
The position recursion (:func:`constrained_del_step`) and the right
Hamiltonian map solve their (n + d) equations with the dense Newton solver.

One-step maps are pure functions of ``(state, config)``; independent
trajectories can run in parallel, while a single trajectory is sequential.
"""

from __future__ import annotations

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
    """Settings of the dense Newton solver used by all implicit steps.

    Attributes:
        tol: convergence threshold on the residual infinity norm.
        max_iter: iteration budget.
        fd_step: base step of the central-difference Jacobian fallback;
            the actual step is ``fd_step * (1 + |x|_inf)``.
    """

    tol: float = 1e-10
    max_iter: int = 50
    fd_step: float = 1e-6

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


def finite_difference_jacobian(
    func: Callable[[Array], Array], x: Array, step: float
) -> Array:
    """Central-difference Jacobian of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        delta = np.zeros_like(x)
        delta[j] = step
        jac[:, j] = (np.asarray(func(x + delta)) - np.asarray(func(x - delta))) / (
            2.0 * step
        )
    return jac


def newton_solve(
    residual: Callable[[Array], Array],
    x0: Array,
    config: NewtonConfig = DEFAULT_NEWTON,
    jacobian: Callable[[Array], Array] | None = None,
) -> NewtonResult:
    """Solve ``residual(x) = 0`` by Newton iteration from ``x0``.

    Uses the supplied Jacobian when given, and a central finite-difference
    Jacobian otherwise.  Returns the solution together with the iteration
    count and final residual norm.

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
        if jacobian is not None:
            jac = np.asarray(jacobian(x), dtype=float)
        else:
            step = config.fd_step * (1.0 + float(np.max(np.abs(x))))
            jac = finite_difference_jacobian(residual, x, step)
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
# Generating functions
# ---------------------------------------------------------------------------


class DiscreteLagrangian:
    """Two-point generating function ``L_d(q0, q1; h)`` with exact partials.

    ``d1`` and ``d2`` are the partial derivatives with respect to the first
    and second position argument.  ``d12`` (the mixed second partial,
    ``d/dq1`` of ``d1``) is optional; when present the implicit one-step
    solves use an analytic Jacobian instead of finite differences.
    """

    def __init__(self, value, d1, d2, d12=None):
        self.value = value
        self.d1 = d1
        self.d2 = d2
        self.d12 = d12


class MidpointLagrangian(DiscreteLagrangian):
    """The discrete Lagrangian built by :func:`midpoint_lagrangian`.

    It keeps ``potential_grad`` so that :func:`constrained_lagrangian_map`
    can split the force term off its unit-mass kinetic term.
    """

    def __init__(self, value, d1, d2, d12, potential_grad):
        super().__init__(value, d1, d2, d12)
        self.potential_grad = potential_grad


class DiscreteHamiltonian:
    """One-step generating function of Hamiltonian type.

    ``kind`` is ``"right"`` for functions of ``(q_k, p_{k+1})`` or ``"left"``
    for functions of ``(q_{k+1}, p_k)``.  ``d1``/``d2`` differentiate with
    respect to the first/second argument.
    """

    def __init__(self, kind, value, d1, d2):
        if kind not in ("right", "left"):
            raise ValueError("kind must be 'right' or 'left'")
        self.kind = kind
        self.value = value
        self.d1 = d1
        self.d2 = d2


def midpoint_lagrangian(
    potential: Callable[[Array], float] | None = None,
    potential_grad: Callable[[Array], Array] | None = None,
    potential_hess: Callable[[Array], Array] | None = None,
) -> MidpointLagrangian:
    """Midpoint-rule discrete Lagrangian of ``L = |qdot|^2 / 2 - V(q)``.

    Passing no potential gives the free particle.  When the potential
    Hessian is supplied the mixed second partial is exposed analytically.
    """

    if potential is None:
        potential = lambda q: 0.0
        potential_grad = lambda q: np.zeros_like(q)
        potential_hess = lambda q: np.zeros((q.size, q.size))

    def value(q0, q1, h):
        diff = q1 - q0
        return float(diff @ diff) / (2.0 * h) - h * potential((q0 + q1) / 2.0)

    def d1(q0, q1, h):
        return -(q1 - q0) / h - 0.5 * h * potential_grad((q0 + q1) / 2.0)

    def d2(q0, q1, h):
        return (q1 - q0) / h - 0.5 * h * potential_grad((q0 + q1) / 2.0)

    d12 = None
    if potential_hess is not None:

        def d12(q0, q1, h):
            n = q0.size
            return -np.eye(n) / h - 0.25 * h * potential_hess((q0 + q1) / 2.0)

    return MidpointLagrangian(value, d1, d2, d12, potential_grad)


def right_euler_hamiltonian(hamiltonian, d_dq, d_dp) -> DiscreteHamiltonian:
    """First-order discrete right Hamiltonian ``p1.q0 + h H(q0, p1)``.

    Its one-step map is the momentum-first symplectic Euler method; this is
    also the zeroth-order Taylor construction with rectangle quadrature.
    """

    def value(q0, p1, h):
        return float(p1 @ q0) + h * hamiltonian(q0, p1)

    def d1(q0, p1, h):
        return p1 + h * d_dq(q0, p1)

    def d2(q0, p1, h):
        return q0 + h * d_dp(q0, p1)

    return DiscreteHamiltonian("right", value, d1, d2)


# ---------------------------------------------------------------------------
# Discrete Legendre transforms
# ---------------------------------------------------------------------------


def legendre_plus(lagrangian: DiscreteLagrangian, q0: Array, q1: Array, h: float) -> Array:
    """Momentum at the right endpoint: ``p1 = D2 L_d(q0, q1)``."""
    return np.asarray(lagrangian.d2(q0, q1, h), dtype=float)


def legendre_minus(lagrangian: DiscreteLagrangian, q0: Array, q1: Array, h: float) -> Array:
    """Momentum at the left endpoint: ``p0 = -D1 L_d(q0, q1)``."""
    return -np.asarray(lagrangian.d1(q0, q1, h), dtype=float)


def project_momentum(manifold: EmbeddedManifold, q: Array, p: Array) -> Array:
    """Remove the constraint-normal component of a momentum vector.

    Under the inherited metric this makes ``<dH/dp, grad C>`` vanish, i.e.
    the momentum lies in the cotangent space of the constraint manifold.
    """
    return manifold.tangent_project(q, p)


# ---------------------------------------------------------------------------
# Constrained one-step maps
# ---------------------------------------------------------------------------


class DelStepResult(NamedTuple):
    q_next: Array
    lam: Array
    newton_iterations: int


class HamiltonStepResult(NamedTuple):
    q_next: Array
    p_next: Array
    lam: Array
    newton_iterations: int


def _split(x: Array, n: int) -> tuple[Array, Array]:
    return x[:n], x[n:]


def constrained_del_step(
    lagrangian: DiscreteLagrangian,
    manifold: EmbeddedManifold,
    q_prev: Array,
    q_curr: Array,
    h: float,
    newton: NewtonConfig = DEFAULT_NEWTON,
    lam0: Array | None = None,
) -> DelStepResult:
    """Advance the position two-point recursion of the constrained
    discrete Euler--Lagrange equations.

    Solves for ``(q_next, lam)`` such that::

        D1 L_d(q_curr, q_next) + D2 L_d(q_prev, q_curr) = J_C(q_curr)^T lam
        C(q_next) = 0

    with the residual infinity norm at most ``newton.tol``.
    """
    n = manifold.ambient_dim
    d = manifold.constraint_dim
    q_prev = np.asarray(q_prev, dtype=float)
    q_curr = np.asarray(q_curr, dtype=float)
    inherited = legendre_plus(lagrangian, q_prev, q_curr, h)
    jac_c = manifold.constraint_jacobian(q_curr)

    def residual(x):
        q_next, lam = _split(x, n)
        res_el = lagrangian.d1(q_curr, q_next, h) + inherited - jac_c.T @ lam
        return np.concatenate([res_el, manifold.constraint(q_next)])

    jacobian = None
    if lagrangian.d12 is not None:

        def jacobian(x):
            q_next, _ = _split(x, n)
            top = np.hstack([lagrangian.d12(q_curr, q_next, h), -jac_c.T])
            bottom = np.hstack([manifold.constraint_jacobian(q_next), np.zeros((d, d))])
            return np.vstack([top, bottom])

    if lam0 is None:
        lam0 = np.zeros(d)
    x0 = np.concatenate([q_curr, lam0])
    result = newton_solve(residual, x0, newton, jacobian)
    q_next, lam = _split(result.x, n)
    return DelStepResult(q_next, lam, result.iterations)


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
    :func:`midpoint_lagrangian`.

    Solves ``p = -D1 L_d(q, q_next) + J_C(q)^T lam`` with ``C(q_next) = 0``
    and returns ``p_next = D2 L_d(q, q_next)``.  Equivalent to
    :func:`constrained_del_step` through the discrete Legendre transforms,
    but usable as a self-contained ``(q, p)`` one-step map.

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
        TypeError: ``lagrangian`` was not built by :func:`midpoint_lagrangian`.
        NewtonError: ``newton.max_iter`` passes left the momentum residual
            above ``newton.tol``, or no multiplier reaches the manifold.
    """
    if not isinstance(lagrangian, MidpointLagrangian):
        raise TypeError("constrained_lagrangian_map needs a midpoint_lagrangian")
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
            # D2 L_d(q, q_next), as legendre_plus computes it
            return HamiltonStepResult(q_next, velocity - force, lam, passes)
    raise NewtonError(
        f"constrained Euler--Lagrange map did not converge in {newton.max_iter} "
        f"passes (momentum residual {norm:.3e})",
        residual_norm=norm,
        iterations=newton.max_iter,
    )


def constrained_right_hamilton_step(
    hamiltonian: DiscreteHamiltonian,
    manifold: EmbeddedManifold,
    q: Array,
    p: Array,
    h: float,
    newton: NewtonConfig = DEFAULT_NEWTON,
    lam0: Array | None = None,
) -> HamiltonStepResult:
    """One step of the constrained discrete right Hamiltonian map.

    Solves for ``(p_next, lam)`` such that::

        p = D1 H_d^+(q, p_next) + J_C(q)^T lam
        C(D2 H_d^+(q, p_next)) = 0

    and returns ``q_next = D2 H_d^+(q, p_next)``.  The multiplier kicks the
    incoming momentum so the new position lands on the constraint manifold.
    """
    if hamiltonian.kind != "right":
        raise ValueError("constrained_right_hamilton_step needs a right Hamiltonian")
    n = manifold.ambient_dim
    d = manifold.constraint_dim
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    jac_c = manifold.constraint_jacobian(q)

    def residual(x):
        p_next, lam = _split(x, n)
        res_mom = hamiltonian.d1(q, p_next, h) + jac_c.T @ lam - p
        res_con = manifold.constraint(hamiltonian.d2(q, p_next, h))
        return np.concatenate([res_mom, res_con])

    if lam0 is None:
        lam0 = np.zeros(d)
    x0 = np.concatenate([p, lam0])
    result = newton_solve(residual, x0, newton)
    p_next, lam = _split(result.x, n)
    q_next = np.asarray(hamiltonian.d2(q, p_next, h), dtype=float)
    return HamiltonStepResult(q_next, p_next, lam, result.iterations)


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
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    if duration <= 0:
        raise ValueError("duration must be positive")

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
