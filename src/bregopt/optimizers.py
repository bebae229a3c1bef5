"""Optimization methods built on the constrained variational machinery.

Three families are provided:

* ``htvi_direct`` / ``htvi_adaptive`` -- one-step maps of the discrete
  right Hamiltonian of the (direct or time-rescaled) Bregman family, with
  the holonomic constraint enforced through Lagrange multipliers.  These
  need neither retraction nor transport.
* ``el_v1`` / ``el_v2`` -- semi-implicit Euler discretizations of the
  accelerated-flow Euler--Lagrange equations written with a retraction and
  a vector transport; version 2 evaluates a look-ahead corrected gradient.
* ``rgd`` -- Riemannian gradient descent.

``run`` drives any of them to a stopping criterion and records a
per-iteration :class:`Trace`.  Each method contributes only a step closure,
which returns the new iterate with its constraint violation: the
retraction's own value for the EL and gradient-descent steps, the
manifold's ``constraint_violation`` for HTVI.  One loop then gates each
iterate on that violation, evaluates it once (``ProblemSpec.value_and_grad``
for the objective and its ambient gradient, the manifold's
``tangent_project`` for the Riemannian gradient), records the row, tests the
stop and turns any step or evaluation failure into a failed trace, so every
method is recorded, stopped and failed alike.  Traces accumulate locally, so
independent runs may execute concurrently; a single run is sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bregman
from .bregman import BregmanParams, ExtendedState
from .errors import BregoptError, FeasibilityError
from .manifolds import FEAS_TOL, EmbeddedManifold
from .problems import ProblemSpec

METHODS = ("htvi_direct", "htvi_adaptive", "el_v1", "el_v2", "rgd")


@dataclass
class RunConfig:
    """Configuration of a single optimizer run.

    ``stop_grad_tol`` stops on the Riemannian gradient norm;
    ``stop_f_tol`` stops on the objective gap against the problem oracle
    when one is available.  The gap stop cannot be switched off on a
    problem with an oracle: ``f`` may round a few ulps below the oracle
    value, so even ``stop_f_tol=1e-300`` can end the run; a run that is to
    stop on the gradient norm alone needs a problem without an oracle.
    The HTVI multiplier solve runs to the manifold constants
    ``NEWTON_TOL`` and ``NEWTON_MAX_ITER``, which are not settings.
    """

    method: str
    params: BregmanParams
    max_iters: int = 1000
    stop_grad_tol: float = 1e-12
    stop_f_tol: float = 1e-12

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if not (self.stop_grad_tol > 0 and self.stop_f_tol > 0):  # also rejects NaN
            raise ValueError("stopping tolerances must be positive")


class Trace:
    """Per-iteration record of an optimizer run.

    Columns are parallel lists indexed by row; ``errors_vs_oracle`` entries
    are ``None`` when the problem has no oracle and ``newton_iters`` entries
    are ``None`` for methods without an inner solve.
    """

    def __init__(self):
        self.ks: list[int] = []
        self.ts: list[float] = []
        self.fs: list[float] = []
        self.grad_norms: list[float] = []
        self.constraint_violations: list[float] = []
        self.errors_vs_oracle: list[float | None] = []
        self.newton_iters: list[int | None] = []
        self.failed = False
        self.failure_reason: str | None = None

    def append(self, k, t, f, grad_norm, constraint_violation, error_vs_oracle, newton_iters):
        self.ks.append(int(k))
        self.ts.append(float(t))
        self.fs.append(float(f))
        self.grad_norms.append(float(grad_norm))
        self.constraint_violations.append(float(constraint_violation))
        self.errors_vs_oracle.append(
            None if error_vs_oracle is None else float(error_vs_oracle)
        )
        self.newton_iters.append(None if newton_iters is None else int(newton_iters))

    def __len__(self):
        return len(self.ks)

    def iterations_to_gap(self, gap: float) -> int | None:
        """First iteration index whose oracle gap is at most ``gap``."""
        for k, err in zip(self.ks, self.errors_vs_oracle):
            if err is not None and err <= gap:
                return k
        return None


# ---------------------------------------------------------------------------
# One-step maps
# ---------------------------------------------------------------------------


def htvi_step(
    direction: str,
    params: BregmanParams,
    manifold: EmbeddedManifold,
    state: ExtendedState,
    grad_f: np.ndarray,
    f_val: float,
) -> tuple[ExtendedState, int]:
    """One step of the direct or adaptive constrained Hamiltonian integrator.

    ``grad_f`` and ``f_val`` are the ambient gradient and objective value at
    ``state.q``.  The implicit five-equation system is solved by exploiting
    its explicit sub-chain: the time coordinate updates in closed form, the
    multiplier is the only genuine unknown (it must place the new position
    on the constraint manifold), and the remaining updates follow
    explicitly.  The manifold solves for the multiplier
    (:meth:`~bregopt.manifolds.EmbeddedManifold.solve_multiplier`), warm
    started from ``state.lam``, which must have the length
    ``manifold.constraint_dim``, and returns the normal force that corrects
    the momentum.

    Returns the new state and the number of iterations of the multiplier
    solve.
    """
    if direction not in ("direct", "adaptive"):
        raise ValueError("direction must be 'direct' or 'adaptive'")
    adaptive = direction == "adaptive"
    coeffs = bregman.step_coefficients(params, state.q_t, adaptive)

    base = state.r - coeffs.gradient * np.asarray(grad_f, dtype=float)
    lam, normal, iterations = manifold.solve_multiplier(
        state.q + coeffs.position * base, state.q, coeffs.position, state.lam
    )
    r_next = base - normal
    q_next = state.q + coeffs.position * r_next

    r_t_next = (
        state.r_t + coeffs.kinetic_rt * float(r_next @ r_next) - coeffs.potential_rt * f_val
    ) / (1.0 + coeffs.feedback_rt)
    next_state = ExtendedState(
        q=q_next,
        q_t=state.q_t + coeffs.q_t_increment,
        r=r_next,
        r_t=r_t_next,
        lam=lam,
    )
    return next_state, iterations


def el_step(
    version: int,
    params: BregmanParams,
    manifold: EmbeddedManifold,
    x: np.ndarray,
    v: np.ndarray,
    k: int,
    riemannian_grad,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Semi-implicit Euler step of the accelerated-flow velocity recursion.

    ``riemannian_grad`` maps a point to the Riemannian gradient of the
    objective there.  Version 1 evaluates the gradient at ``x``; version 2
    at the trial point reached by following the damped velocity alone, which
    is ``x`` itself when ``v`` is zero, as at the first step of a run.  That
    look-ahead point must be within ``FEAS_TOL`` of the manifold, by the
    violation its retraction reports, before its gradient is taken.
    The gradient coefficient grows polynomially in ``k`` and is clamped at
    ``params.coeff_cap``.

    Returns the new point, the transported velocity and the new point's
    constraint violation as the retraction reports it; :func:`run` gates
    the point on that value.

    Raises:
        FeasibilityError: the look-ahead point violates the constraint by
            more than ``FEAS_TOL``, or by NaN.
    """
    if version not in (1, 2):
        raise ValueError("version must be 1 or 2")
    if k < 1:
        raise ValueError("iteration index k must be >= 1")
    h, p = params.h, params.p
    b_k = 1.0 - (params.lambda_conv * p + 1.0) / k
    c_k = min(params.coeff_cap, params.c_const * p * p * (k * h) ** (p - 2.0))
    ahead = x
    if version == 2 and v.any():
        ahead, violation = manifold.retract(x, (h * b_k) * v)
        _check_feasible(manifold, violation)
    a_k = b_k * v - (h * c_k) * riemannian_grad(ahead)
    x_next, violation = manifold.retract(x, h * a_k)
    v_next = manifold.transport(x, x_next, a_k)
    return x_next, v_next, violation


def rgd_step(
    manifold: EmbeddedManifold, x: np.ndarray, h: float, riemannian_grad: np.ndarray
) -> tuple[np.ndarray, float]:
    """Riemannian gradient descent: retract along minus the Riemannian
    gradient ``riemannian_grad`` at ``x``.  Returns the new point and its
    constraint violation as the retraction reports it."""
    return manifold.retract(x, -h * riemannian_grad)


def _check_feasible(manifold: EmbeddedManifold, violation: float) -> None:
    """Raise :class:`FeasibilityError` unless ``violation`` is within
    ``FEAS_TOL``; a NaN is not."""
    if not violation <= FEAS_TOL:
        raise FeasibilityError(
            f"{manifold.name}: point violates constraint by {violation:.3e} "
            f"(tolerance {FEAS_TOL:.1e})"
        )


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------

# Each ``_*_stepper`` returns the start point, its time coordinate and a
# closure ``advance(k, f_val, grad, rgrad) -> (point, t, newton_iters,
# violation)`` that takes step ``k`` from the current point, whose objective
# value, ambient gradient and Riemannian gradient are ``f_val``, ``grad`` and
# ``rgrad``, and reports the new point's constraint violation.
# The step functions are looked up by module name at call time, so replacing
# them on the module takes effect.

def _htvi_stepper(config: RunConfig, problem: ProblemSpec, q0: np.ndarray):
    direction = "direct" if config.method == "htvi_direct" else "adaptive"
    manifold = problem.manifold
    state = ExtendedState.initial(q0, manifold.constraint_dim)

    def advance(k, f_val, grad, rgrad):
        nonlocal state
        state, iters = htvi_step(direction, config.params, manifold, state, grad, f_val)
        # one scalar test: a NaN or an infinity in any entry reaches the sum
        if not math.isfinite(float(state.q @ state.q) + float(state.r @ state.r)
                             + state.q_t + state.r_t):
            raise BregoptError("non-finite state")
        return state.q, state.q_t, iters, manifold.constraint_violation(state.q)

    return state.q, state.q_t, advance


def _el_stepper(config: RunConfig, problem: ProblemSpec, q0: np.ndarray):
    version = 1 if config.method == "el_v1" else 2
    manifold = problem.manifold
    x, v = q0.copy(), np.zeros_like(q0)

    def riemannian_grad(point):
        return manifold.tangent_project(point, problem.ambient_grad(point))

    def advance(k, f_val, grad, rgrad):
        nonlocal x, v
        # version 1 evaluates the gradient at the current point, which the
        # run loop has already done
        x, v, violation = el_step(version, config.params, manifold, x, v, k,
                                  (lambda point: rgrad) if version == 1 else riemannian_grad)
        if not math.isfinite(float(x @ x) + float(v @ v)):
            raise BregoptError("non-finite state")
        return x, k * config.params.h, None, violation

    return x, 0.0, advance


def _rgd_stepper(config: RunConfig, problem: ProblemSpec, q0: np.ndarray):
    x = q0.copy()

    def advance(k, f_val, grad, rgrad):
        nonlocal x
        x, violation = rgd_step(problem.manifold, x, config.params.h, rgrad)
        if not math.isfinite(float(x @ x)):
            raise BregoptError("non-finite state")
        return x, k * config.params.h, None, violation

    return x, 0.0, advance


def run(config: RunConfig, problem: ProblemSpec, initial=None) -> Trace:
    """Execute an optimizer run and return its trace.

    ``initial`` is a feasible point (flat array); when omitted it is drawn
    from the manifold with seed 0.  HTVI methods start from the
    standard extended state (zero momenta, unit time coordinate).  The
    constraint violation of each iterate is evaluated once: by
    ``constraint_violation`` at the initial point, and by the step that
    built every later one.  That value must be within ``FEAS_TOL`` (a NaN
    is not), and it is the one recorded.  Each iterate is then evaluated
    once: ``problem.value_and_grad`` gives the objective and its ambient
    gradient, and the manifold's ``tangent_project`` the Riemannian
    gradient.  The same values are recorded and passed to the next step.
    A :class:`BregoptError` raised by a step, by the feasibility gate or
    while evaluating an iterate, an infeasible initial point included,
    marks the trace as failed and ends the run gracefully.

    Raises:
        DimensionError: ``initial`` is not a vector of length
            ``manifold.ambient_dim``.
    """
    manifold = problem.manifold
    if initial is None:
        initial = manifold.random_point(np.random.default_rng(0))
    q0 = manifold._check_dim(initial)
    if config.method in ("htvi_direct", "htvi_adaptive"):
        start = _htvi_stepper
    elif config.method in ("el_v1", "el_v2"):
        start = _el_stepper
    else:
        start = _rgd_stepper
    point, t, advance = start(config, problem, q0)

    trace = Trace()
    k, newton_iters, violation = 0, None, manifold.constraint_violation(q0)
    try:
        while True:
            _check_feasible(manifold, violation)
            f_val, grad = problem.value_and_grad(point)
            rgrad = manifold.tangent_project(point, grad)
            grad_norm = math.sqrt(float(rgrad @ rgrad))
            gap = None if problem.oracle_value is None else f_val - problem.oracle_value
            trace.append(k, t, f_val, grad_norm, violation, gap, newton_iters)
            if (grad_norm <= config.stop_grad_tol
                    or (gap is not None and gap <= config.stop_f_tol)
                    or k == config.max_iters):
                return trace
            k += 1
            point, t, newton_iters, violation = advance(k, f_val, grad, rgrad)
    except BregoptError as exc:
        trace.failed = True
        trace.failure_reason = str(exc)
        return trace
