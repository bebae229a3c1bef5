"""Time-dependent Bregman Hamiltonian family on the extended phase space.

The extended state carries the configuration ``q``, a time-position
coordinate ``q_t``, and their conjugate momenta ``r`` and ``r_t``.  Flowing
the direct Hamiltonian drives ``f(q(t))`` to its optimum at rate
``O(1 / t^p)``; the adaptive variant integrates the time-rescaled
``p -> p_ring`` member of the same family, which is what makes uniform
steps in the integration time behave like adaptive steps in ``t``.

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
from dataclasses import dataclass

import numpy as np

from .errors import SingularTimeError


@dataclass(frozen=True)
class BregmanParams:
    """Parameters of the Bregman Hamiltonian family and its discretizations.

    Attributes:
        p: convergence-rate exponent (> 0).
        p_ring: target exponent of the adaptive (time-rescaled) variant;
            defaults to ``2 * p``.
        c_const: constant scaling the potential term (> 0).
        lambda_conv: convexity parameter, >= 1 (1 in the vector-space case).
        h: integrator timestep (> 0).
        coeff_cap: upper bound applied to the gradient coefficient in the
            updates; ``math.inf`` disables the cap.
    """

    p: float
    p_ring: float | None = None
    c_const: float = 1.0
    lambda_conv: float = 1.0
    h: float = 1e-3
    coeff_cap: float = 1e6

    def __post_init__(self):
        # Per-iteration the adaptive gap decays like (1 + k h)^(-p^2 / p_ring),
        # so acceleration over the direct method needs p_ring < p; the default
        # target sits inside the stability envelope of the default cap.
        if self.p_ring is None:
            object.__setattr__(self, "p_ring", 2.0 * self.p / 3.0)
        if self.p <= 0 or self.p_ring <= 0:
            raise ValueError("exponents p and p_ring must be positive")
        if self.c_const <= 0:
            raise ValueError("c_const must be positive")
        if self.lambda_conv < 1.0:
            raise ValueError("lambda_conv must be >= 1")
        if self.h <= 0:
            raise ValueError("timestep h must be positive")
        if self.coeff_cap <= 0:
            raise ValueError("coeff_cap must be positive")


@dataclass
class ExtendedState:
    """Point of the extended phase space plus the current Lagrange multipliers.

    Attributes:
        q: configuration, flat array of length ``ambient_dim``.
        q_t: time-position coordinate, strictly positive and strictly
            increasing along trajectories.
        r: momentum conjugate to ``q``.
        r_t: momentum conjugate to ``q_t``.
        lam: Lagrange multipliers of the holonomic constraint (length ``d``).
    """

    q: np.ndarray
    q_t: float
    r: np.ndarray
    r_t: float
    lam: np.ndarray

    @classmethod
    def initial(cls, q: np.ndarray, constraint_dim: int) -> "ExtendedState":
        """Standard initialization: zero momenta, unit time coordinate."""
        q = np.asarray(q, dtype=float)
        return cls(
            q=q.copy(),
            q_t=1.0,
            r=np.zeros_like(q),
            r_t=0.0,
            lam=np.zeros(constraint_dim),
        )

    def is_finite(self) -> bool:
        return bool(
            np.isfinite(self.q).all()
            and math.isfinite(self.q_t)
            and np.isfinite(self.r).all()
            and math.isfinite(self.r_t)
        )


def _check_time(q_t: float) -> float:
    if q_t <= 0.0:
        raise SingularTimeError(f"time-position coordinate must be positive, got {q_t}")
    return float(q_t)


def hamiltonian_direct(
    params: BregmanParams,
    state: ExtendedState,
    f_val: float,
    in_prod: float | None = None,
) -> float:
    """Value of the direct Hamiltonian at an extended state.

    ``in_prod`` is the squared momentum norm ``<r, r>`` under the inherited
    Euclidean metric; it is computed from ``state.r`` when omitted.
    """
    s = _check_time(state.q_t)
    p, lam_c, c = params.p, params.lambda_conv, params.c_const
    rr = float(state.r @ state.r) if in_prod is None else float(in_prod)
    kinetic = 0.5 * p * s ** (-(lam_c * p + 1.0)) * rr
    potential = c * p * s ** ((lam_c + 1.0) * p - 1.0) * f_val
    return kinetic + potential + state.r_t


def hamiltonian_adaptive(
    params: BregmanParams,
    state: ExtendedState,
    f_val: float,
    in_prod: float | None = None,
) -> float:
    """Value of the adaptive (time-rescaled ``p -> p_ring``) Hamiltonian."""
    s = _check_time(state.q_t)
    p, pr, lam_c, c = params.p, params.p_ring, params.lambda_conv, params.c_const
    rr = float(state.r @ state.r) if in_prod is None else float(in_prod)
    kinetic = 0.5 * (p * p / pr) * s ** (-(lam_c * p + pr / p)) * rr
    potential = c * (p * p / pr) * s ** ((lam_c + 1.0) * p - pr / p) * f_val
    time_term = (p / pr) * s ** (1.0 - pr / p) * state.r_t
    return kinetic + potential + time_term


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

    ``grad_f`` is the ambient gradient of the objective at ``state.q``.
    """
    s = _check_time(state.q_t)
    p, lam_c, c = params.p, params.lambda_conv, params.c_const
    rr = float(state.r @ state.r)
    if not adaptive:
        pot = c * p * s ** ((lam_c + 1.0) * p - 1.0)
        d_q = pot * np.asarray(grad_f, dtype=float)
        d_qt = (
            -0.5 * p * (lam_c * p + 1.0) * s ** (-(lam_c * p + 2.0)) * rr
            + c * p * ((lam_c + 1.0) * p - 1.0) * s ** ((lam_c + 1.0) * p - 2.0) * f_val
        )
        d_r = p * s ** (-(lam_c * p + 1.0)) * state.r
        d_rt = 1.0
    else:
        pr = params.p_ring
        pot = c * (p * p / pr) * s ** ((lam_c + 1.0) * p - pr / p)
        d_q = pot * np.asarray(grad_f, dtype=float)
        d_qt = (
            -0.5 * (p * p / pr) * (lam_c * p + pr / p) * s ** (-(lam_c * p + pr / p + 1.0)) * rr
            + c * (p * p / pr) * ((lam_c + 1.0) * p - pr / p)
            * s ** ((lam_c + 1.0) * p - pr / p - 1.0) * f_val
            + (p / pr) * (1.0 - pr / p) * s ** (-pr / p) * state.r_t
        )
        d_r = (p * p / pr) * s ** (-(lam_c * p + pr / p)) * state.r
        d_rt = (p / pr) * s ** (1.0 - pr / p)
    return HamiltonianPartials(d_q=d_q, d_qt=float(d_qt), d_r=d_r, d_rt=float(d_rt))


@dataclass(frozen=True)
class StepCoefficients:
    """Scalar coefficients of the one-step discrete Hamiltonian map.

    With ``s`` the current time coordinate, a step reads::

        q_t'   = q_t + q_t_increment
        r'     = r - gradient * grad_f(q) - J_C(q)^T lam
        q'     = q + position * r'
        r_t'   = (r_t + kinetic_rt * <r', r'> - potential_rt * f(q))
                 / (1 + feedback_rt)

    ``gradient`` already includes the coefficient cap ``params.coeff_cap``.
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
    """
    s = _check_time(q_t)
    h = params.h
    p, lam_c, c = params.p, params.lambda_conv, params.c_const
    if not adaptive:
        return StepCoefficients(
            q_t_increment=h,
            position=h * p * s ** (-(lam_c * p + 1.0)),
            gradient=min(params.coeff_cap, h * c * p * s ** ((lam_c + 1.0) * p - 1.0)),
            kinetic_rt=h * 0.5 * p * (lam_c * p + 1.0) * s ** (-(lam_c * p + 2.0)),
            potential_rt=h * c * p * ((lam_c + 1.0) * p - 1.0)
            * s ** ((lam_c + 1.0) * p - 2.0),
            feedback_rt=0.0,
        )
    pr = params.p_ring
    return StepCoefficients(
        q_t_increment=h * (p / pr) * s ** (1.0 - pr / p),
        position=h * (p * p / pr) * s ** (-(lam_c * p + pr / p)),
        gradient=min(params.coeff_cap, h * c * (p * p / pr) * s ** ((lam_c + 1.0) * p - pr / p)),
        kinetic_rt=h * 0.5 * (p * p / pr) * (lam_c * p + pr / p)
        * s ** (-(lam_c * p + pr / p + 1.0)),
        potential_rt=h * c * (p * p / pr) * ((lam_c + 1.0) * p - pr / p)
        * s ** ((lam_c + 1.0) * p - pr / p - 1.0),
        feedback_rt=h * ((p - pr) / pr) * s ** (-pr / p),
    )
