"""Time-dependent Bregman Hamiltonian family on the extended phase space.

The extended state carries the configuration ``q``, a time-position
coordinate ``q_t``, and their conjugate momenta ``r`` and ``r_t``.  Flowing
the direct Hamiltonian drives ``f(q(t))`` to its optimum at rate
``O(1 / t^p)``; the adaptive variant integrates the time-rescaled
``p -> p_ring`` member of the same family, which is what makes uniform
steps in the integration time behave like adaptive steps in ``t``.

Both members are rows of one form.  With ``s = q_t``, ``lambda`` the
convexity parameter and ``c`` the potential constant::

    H = b s^e_k <r, r> / 2 + c b s^e_p f + a s^e_t r_t,
    e_k = -(lambda p + g),   e_p = (lambda + 1) p - g,   e_t = 1 - g,

    direct:    b = p,             g = 1,           a = 1
    adaptive:  b = p^2 / p_ring,  g = p_ring / p,  a = p / p_ring

so ``p_ring = p`` turns the adaptive row into the direct one.  Only
:func:`step_coefficients` evaluates this form; the Hamiltonian values and
their partials read its terms at unit step.

A step's position and gradient coefficients multiply to ``h^2 c b^2
s^(p - 2 g)``; times the objective's gradient Lipschitz constant ``L`` over 4
this is the step's envelope ratio ``rho(s)``, and :func:`envelope_time` gives
the largest ``s`` with ``rho(s) <= RHO_MAX``, the time coordinate a gradient
restart keeps at most.

The convexity parameter ``lambda_conv`` generalizes the vector-space
exponents (``lambda_conv = 1``, the default) to curved spaces, where it is
a curvature/diameter constant ``zeta`` for geodesically convex objectives
(``zeta = 1`` under nonnegative sectional curvature) or ``zeta / alpha``
for weakly-quasi-convex ones.  It is a plain parameter here; nothing in the
package derives it from the manifold.

Everything here is a pure function of its arguments; parameter objects are
frozen and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import BregoptError, SingularTimeError


@dataclass(frozen=True)
class BregmanParams:
    """Parameters of the Bregman Hamiltonian family and its discretizations.

    Attributes:
        p: convergence-rate exponent (> 0, finite).
        p_ring: target exponent of the adaptive (time-rescaled) variant
            (> 0, finite); defaults to ``2 p / 3``.
        c_const: constant scaling the potential term (> 0, finite).
        lambda_conv: convexity parameter, >= 1 and finite (1 in the
            vector-space case).
        h: integrator timestep (> 0, finite).
        coeff_cap: upper bound on the gradient coefficient of the EL
            steps (:func:`~bregopt.optimizers.el_step`); ``math.inf``
            disables it.  The Hamiltonian steps do not read it.
    """

    p: float
    p_ring: float | None = None
    c_const: float = 1.0
    lambda_conv: float = 1.0
    h: float = 1e-3
    coeff_cap: float = 1e6

    def __post_init__(self):
        # Per-iteration the adaptive gap decays like (1 + k h)^(-p^2 / p_ring),
        # so acceleration over the direct method needs p_ring < p.
        if self.p_ring is None:
            object.__setattr__(self, "p_ring", 2.0 * self.p / 3.0)
        # Negated comparisons, so that NaN fails every check.  Only the cap
        # may be infinite: an infinite exponent, constant or step makes the
        # step coefficients inf or NaN.
        if not (0 < self.p < math.inf and 0 < self.p_ring < math.inf):
            raise ValueError("exponents p and p_ring must be positive and finite")
        if not 0 < self.c_const < math.inf:
            raise ValueError("c_const must be positive and finite")
        if not 1.0 <= self.lambda_conv < math.inf:
            raise ValueError("lambda_conv must be >= 1 and finite")
        if not 0 < self.h < math.inf:
            raise ValueError("timestep h must be positive and finite")
        if not self.coeff_cap > 0:
            raise ValueError("coeff_cap must be positive")


@dataclass
class ExtendedState:
    """Point of the extended phase space plus the current Lagrange multipliers.

    Attributes:
        q: configuration, flat array of length ``ambient_dim``.
        q_t: time-position coordinate, strictly positive and strictly
            increased by each step; a restart of
            :func:`~bregopt.optimizers.run` keeps it, clamped to
            :func:`envelope_time`, which is at least 1.
        r: momentum conjugate to ``q``.
        r_t: momentum conjugate to ``q_t``.
        lam: Lagrange multiplier of the holonomic constraint, in the layout
            of :meth:`~bregopt.manifolds.EmbeddedManifold.solve_multiplier`,
            which returned it, and which may carry what the next solve
            starts from (on Stiefel, the last three solutions); ``None``
            before the first solve and after a restart, so that solve
            starts cold.
        violation: constraint violation of ``q`` as the multiplier solve
            that built it measured it
            (:meth:`~bregopt.manifolds.EmbeddedManifold.solve_multiplier`);
            NaN for a state no solve built, such as :meth:`initial`.
    """

    q: np.ndarray
    q_t: float
    r: np.ndarray
    r_t: float
    lam: np.ndarray | None
    violation: float = math.nan

    @classmethod
    def initial(cls, q: np.ndarray, q_t: float = 1.0) -> "ExtendedState":
        """Standard initialization: zero momenta and no multiplier, at time
        coordinate ``q_t`` (1 at the start of a run)."""
        q = np.asarray(q, dtype=float)
        return cls(
            q=q.copy(),
            q_t=q_t,
            r=np.zeros_like(q),
            r_t=0.0,
            lam=None,
        )


def _row(params: BregmanParams, adaptive: bool) -> tuple[float, ...]:
    """Constants ``(b, e_k, e_p, a, e_t, a e_t)`` of one member of the family.

    ``a e_t`` is carried as ``(p - p_ring) / p_ring``; the product
    ``(p / p_ring) * (1 - p_ring / p)`` rounds differently.
    """
    p, lam_c = params.p, params.lambda_conv
    if adaptive:
        pr = params.p_ring
        b, g, a, a_e_t = p * p / pr, pr / p, p / pr, (p - pr) / pr
    else:
        b, g, a, a_e_t = p, 1.0, 1.0, 0.0
    return b, -(lam_c * p + g), (lam_c + 1.0) * p - g, a, 1.0 - g, a_e_t


# Largest envelope ratio rho(s) = position * gradient * L / 4 at which a
# gradient restart keeps the time coordinate s.  The seeds 0-9 sweep of the
# default problems (``tests/seed_sweep.py``) gives the same HTVI medians for
# every value from 0.1 to 2.  Untamed 20k procrustes runs fail at 0.5, and at
# 0.25 the adaptive runs on brockett at conditioning 300-1000 restart
# hundreds of times and take 2-4 times the steps to the target that they
# take at 0.15.
RHO_MAX = 0.15


def envelope_time(params: BregmanParams, adaptive: bool, lipschitz: float | None) -> float:
    """Largest time coordinate ``s >= 1`` at which the step's envelope ratio
    ``rho(s) = h^2 c b^2 L s^(p - 2 g) / 4`` is at most :data:`RHO_MAX`.

    ``rho`` is the product of the step's position and gradient coefficients
    times ``L / 4``, with ``L = lipschitz`` the Lipschitz constant of the
    objective's gradient.  The bound is formed in logarithms, so no product
    or power overflows or underflows: it is ``math.inf`` when the bound
    leaves the float range, and 1 when ``rho(1)`` already exceeds
    ``RHO_MAX``, when ``rho`` does not grow with ``s`` (``p <= 2 g``), when
    ``L`` is ``None``, zero or not finite, or when the row's ``b`` leaves
    the float range.
    """
    b, e_k, e_p = _row(params, adaptive)[:3]
    growth = e_k + e_p  # p - 2 g; NaN when both exponents overflow
    if lipschitz is None or not (0.0 < lipschitz < math.inf and 0.0 < b < math.inf
                                 and growth > 0.0):
        return 1.0
    log_rho_1 = (2.0 * math.log(params.h) + math.log(params.c_const) + 2.0 * math.log(b)
                 + math.log(lipschitz) - math.log(4.0))
    log_s = (math.log(RHO_MAX) - log_rho_1) / growth
    if not log_s > 0.0:
        return 1.0
    try:
        return math.exp(log_s)
    except OverflowError:
        return math.inf


def _hamiltonian(params: BregmanParams, state: ExtendedState, f_val: float,
                 adaptive: bool) -> float:
    unit = step_coefficients(replace(params, h=1.0), state.q_t, adaptive)
    return (0.5 * unit.position * float(state.r.dot(state.r)) + unit.gradient * f_val
            + unit.q_t_increment * state.r_t)


def hamiltonian_direct(params: BregmanParams, state: ExtendedState, f_val: float) -> float:
    """Value of the direct Hamiltonian at an extended state."""
    return _hamiltonian(params, state, f_val, adaptive=False)


def hamiltonian_adaptive(params: BregmanParams, state: ExtendedState, f_val: float) -> float:
    """Value of the adaptive (time-rescaled ``p -> p_ring``) Hamiltonian."""
    return _hamiltonian(params, state, f_val, adaptive=True)


@dataclass(frozen=True)
class HamiltonianPartials:
    """Exact partial derivatives of a Bregman Hamiltonian at a state."""

    d_q: np.ndarray
    d_qt: float
    d_r: np.ndarray
    d_rt: float


def hamiltonian_partials(
    params: BregmanParams,
    state: ExtendedState,
    f_val: float,
    grad_f: np.ndarray,
    adaptive: bool,
) -> HamiltonianPartials:
    """Partial derivatives with respect to ``q``, ``q_t``, ``r`` and ``r_t``.

    ``grad_f`` is the ambient gradient of the objective at ``state.q``.  Read
    off :func:`step_coefficients` at unit step: ``d_q = gradient
    grad_f``, ``d_r = position r``, ``d_rt = q_t_increment`` and ``d_qt =
    -kinetic_rt <r, r> + potential_rt f + feedback_rt r_t``.
    """
    unit = step_coefficients(replace(params, h=1.0), state.q_t, adaptive)
    rr = float(state.r.dot(state.r))
    return HamiltonianPartials(
        d_q=unit.gradient * np.asarray(grad_f, dtype=float),
        d_qt=float(-unit.kinetic_rt * rr + unit.potential_rt * f_val
                   + unit.feedback_rt * state.r_t),
        d_r=unit.position * state.r,
        d_rt=unit.q_t_increment,
    )


class StepCoefficients(NamedTuple):
    """Scalar coefficients of the one-step discrete Hamiltonian map.

    With ``s`` the current time coordinate, a step reads::

        q_t'   = q_t + q_t_increment
        r'     = r - gradient * grad_f(q) - J_C(q)^T lam
        q'     = q + position * r'
        r_t'   = (r_t + kinetic_rt * <r', r'> - potential_rt * f(q))
                 / (1 + feedback_rt)

    At ``h = 1`` the coefficients are the Hamiltonian's terms; none of them
    reads ``params.coeff_cap``, which bounds the EL steps alone.
    """

    q_t_increment: float
    position: float
    gradient: float
    kinetic_rt: float
    potential_rt: float
    feedback_rt: float


def step_coefficients(params: BregmanParams, q_t: float, adaptive: bool) -> StepCoefficients:
    """Coefficients of the direct or adaptive one-step map at time ``q_t``.

    These are the exact partial derivatives of the underlying discrete
    Hamiltonian, so that the five-equation implicit system reduces to the
    closed-form chain documented on :class:`StepCoefficients`.

    Raises:
        SingularTimeError: ``q_t`` is not positive.
        BregoptError: a power of ``q_t`` leaves the float range.
    """
    if q_t <= 0.0:
        raise SingularTimeError(f"time-position coordinate must be positive, got {q_t}")
    s = float(q_t)
    h, c = params.h, params.c_const
    b, e_k, e_p, a, e_t, a_e_t = _row(params, adaptive)
    try:
        # in field order: q_t_increment, position, gradient, kinetic_rt,
        # potential_rt, feedback_rt (positional is cheaper than keywords)
        return StepCoefficients(
            h * a * s ** e_t,
            h * b * s ** e_k,
            h * c * b * s ** e_p,
            h * 0.5 * b * -e_k * s ** (e_k - 1.0),
            h * c * b * e_p * s ** (e_p - 1.0),
            h * a_e_t * s ** (e_t - 1.0),
        )
    except OverflowError as exc:
        raise BregoptError(f"step coefficients overflow at time coordinate {s!r}") from exc
