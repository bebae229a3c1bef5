"""Optimization methods built on the constrained variational machinery.

Three families are provided:

* ``htvi_direct`` / ``htvi_adaptive`` -- one-step maps of the discrete
  right Hamiltonian of the (direct or time-rescaled) Bregman family, with
  the holonomic constraint enforced through Lagrange multipliers.  These
  need neither retraction nor transport.
* ``el_v1`` / ``el_v2`` -- semi-implicit Euler discretizations of the
  accelerated-flow Euler--Lagrange equations written with a retraction and
  a vector transport; version 2 takes the gradient at a look-ahead point,
  from the same ``ProblemSpec.value_and_grad`` as the run loop.
* ``rgd`` -- Riemannian gradient descent.

``run`` drives any of them to a stopping criterion and records a
per-iteration :class:`Trace`.  Each method contributes only a step closure,
which returns the new iterate with its constraint violation as the kernel
that built the iterate reports it: the retraction for the EL and
gradient-descent steps, the multiplier solve for HTVI, whose landing is the
new position.  So ``run`` evaluates the constraint only at the start point.
One loop then gates each iterate on that violation, evaluates it once
(``ProblemSpec.value_and_grad`` for the objective and its ambient gradient,
the manifold's ``tangent_project`` for the Riemannian gradient), records the
row, tests the stop and turns any step or evaluation failure into a failed
trace, so every method is recorded, stopped and failed alike.  An iterate
whose objective or gradient norm is not finite fails before its row is
recorded, and a step that leaves a NaN or an infinity in its state fails as
"non-finite state".  The loop runs under one ``np.errstate(all="ignore")``:
those tests and the feasibility gate classify every overflow, so no numpy
warning leaves a run.  Traces accumulate locally, so independent runs may
execute concurrently; a single run is sequential.

HTVI runs restart their momentum on a gradient test (O'Donoghue and
Candès 2015, "Adaptive restart for accelerated gradient schemes", applied to
the Bregman family by Duruisseaux and Leok, "Practical perspectives on
symplectic accelerated optimization"): before a step whose momentum ``r``
has a positive inner product with the Riemannian gradient, the state becomes
the standard extended state at the current position (``q_t = 1``, ``r = 0``,
``r_t = 0``, no multiplier, so the next solve starts cold).  A restart
shows in the trace as a drop of ``t`` back to the first step's time
coordinate.  The EL and gradient-descent runs do not restart.
"""

from __future__ import annotations

import math
import numbers
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
        # the run stops when the step count equals max_iters, which a
        # fractional budget never does
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, not {self.max_iters!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if not (self.stop_grad_tol > 0 and self.stop_f_tol > 0):  # also rejects NaN
            raise ValueError("stopping tolerances must be positive")


def _column(index: int) -> property:
    return property(lambda self: [row[index] for row in self.rows])


class Trace:
    """Per-iteration record of an optimizer run.

    ``rows`` holds one tuple per recorded iterate, ``(k, t, f, grad_norm,
    violation, gap, newton_iters)``: an ``int``, four ``float``, the oracle
    gap ``f - oracle_value`` as a ``float`` (``None`` without an oracle) and
    the multiplier solve's ``int`` iteration count (``None`` for methods
    without one).  ``failure_reason`` is the text of the error that ended a
    failed run, ``None`` otherwise.  The columns ``ks`` ... ``newton_iters``
    are read-only lists built from ``rows`` on each access.
    """

    ks = _column(0)
    ts = _column(1)
    fs = _column(2)
    grad_norms = _column(3)
    constraint_violations = _column(4)
    errors_vs_oracle = _column(5)
    newton_iters = _column(6)

    def __init__(self):
        self.rows: list[tuple] = []
        self.failure_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None

    def __len__(self):
        return len(self.rows)

    def iterations_to_gap(self, gap: float) -> int | None:
        """First iteration index whose oracle gap is at most ``gap``."""
        for k, _, _, _, _, err, _ in self.rows:
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
    ``state.q``, the float array and the float that
    ``ProblemSpec.value_and_grad`` returns; the step uses them as they are,
    with no conversion.  The implicit five-equation system is solved by
    exploiting its explicit sub-chain: the time coordinate updates in closed
    form, the multiplier is the only genuine unknown (it must place the new
    position on the constraint manifold), and the remaining updates follow
    explicitly.  The manifold solves for the multiplier
    (:meth:`~bregopt.manifolds.EmbeddedManifold.solve_multiplier`), warm
    started from ``state.lam`` as it is (cold when it is ``None``), and
    returns the new multiplier in its own layout, the normal force that
    corrects the momentum, the point it lands on, which is the new
    position, and that point's constraint violation.

    Returns the new state, whose ``violation`` is the solve's, and the
    number of iterations of the multiplier solve.

    Raises:
        BregoptError: the step coefficients or the multiplier solve fail,
            or the ``r_t`` update's denominator ``1 + feedback_rt`` is zero,
            which ``p_ring > p`` allows.
    """
    if direction not in ("direct", "adaptive"):
        raise ValueError("direction must be 'direct' or 'adaptive'")
    adaptive = direction == "adaptive"
    coeffs = bregman.step_coefficients(params, state.q_t, adaptive)

    base = state.r - coeffs.gradient * grad_f
    lam, normal, q_next, violation, iterations = manifold.solve_multiplier(
        state.q + coeffs.position * base, state.q, coeffs.position, state.lam
    )
    r_next = base - normal

    try:
        r_t_next = (
            state.r_t + coeffs.kinetic_rt * float(r_next.dot(r_next))
            - coeffs.potential_rt * f_val
        ) / (1.0 + coeffs.feedback_rt)
    except ZeroDivisionError:
        # with p_ring > p, feedback_rt is negative and may be exactly -1
        raise BregoptError(f"r_t update divides by zero at time coordinate "
                           f"{state.q_t!r}") from None
    next_state = ExtendedState(
        q=q_next,
        q_t=state.q_t + coeffs.q_t_increment,
        r=r_next,
        r_t=r_t_next,
        lam=lam,
        violation=violation,
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
    ``params.coeff_cap``, where it also stays once ``(k h)^(p - 2)`` leaves
    the float range.

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
    try:
        c_k = min(params.coeff_cap, params.c_const * p * p * (k * h) ** (p - 2.0))
    except OverflowError:
        c_k = params.coeff_cap
    ahead = x
    # count_nonzero is v.any() without its Python wrapper: NaN counts and
    # -0.0 does not in both
    if version == 2 and np.count_nonzero(v):
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
    state = ExtendedState.initial(q0)

    def advance(k, f_val, grad, rgrad):
        nonlocal state
        # gradient restart: momentum with an uphill component is dropped and
        # the schedule starts over from the standard state at this point,
        # whose multiplier solve starts cold
        if state.r.dot(rgrad) > 0:
            state = ExtendedState.initial(state.q)
        state, iters = htvi_step(direction, config.params, manifold, state, grad, f_val)
        # one scalar test of values the step formed: the solve's violation
        # stands in for q.q, as it is NaN or infinite exactly when q is not
        # finite or its Gram matrix overflows, and r_t for r.r, which it holds
        # times kinetic_rt >= 0, so an r.r that is NaN or infinite makes r_t
        # NaN or infinite
        if not math.isfinite(state.violation + state.q_t + state.r_t):
            raise BregoptError("non-finite state")
        return state.q, state.q_t, iters, state.violation

    return state.q, state.q_t, advance


def _el_stepper(config: RunConfig, problem: ProblemSpec, q0: np.ndarray):
    version = 1 if config.method == "el_v1" else 2
    manifold = problem.manifold
    h = float(config.params.h)
    x, v = q0.copy(), np.zeros_like(q0)

    def riemannian_grad(point):
        return manifold.tangent_project(point, problem.value_and_grad(point)[1])

    def advance(k, f_val, grad, rgrad):
        nonlocal x, v
        # version 1 evaluates the gradient at the current point, which the
        # run loop has already done
        x, v, violation = el_step(version, config.params, manifold, x, v, k,
                                  (lambda point: rgrad) if version == 1 else riemannian_grad)
        # the retraction's violation stands in for x.x: it is NaN or infinite
        # exactly when x is not finite or its Gram matrix overflows
        if not math.isfinite(violation + float(v.dot(v))):
            raise BregoptError("non-finite state")
        return x, k * h, None, violation

    return x, 0.0, advance


def _rgd_stepper(config: RunConfig, problem: ProblemSpec, q0: np.ndarray):
    x = q0.copy()
    h = float(config.params.h)

    def advance(k, f_val, grad, rgrad):
        nonlocal x
        x, violation = rgd_step(problem.manifold, x, h, rgrad)
        # the retraction's violation stands in for x.x, as in the EL stepper
        if not math.isfinite(violation):
            raise BregoptError("non-finite state")
        return x, k * h, None, violation

    return x, 0.0, advance


def run(config: RunConfig, problem: ProblemSpec, initial=None) -> Trace:
    """Execute an optimizer run and return its trace.

    ``initial`` is a feasible point (flat array); when omitted it is drawn
    from the manifold with seed 0.  HTVI methods start from the
    standard extended state (zero momenta, unit time coordinate, no
    multiplier), and return to it at the current point before each step
    whose momentum has a positive inner product with the Riemannian
    gradient (the gradient restart of the module docstring); ``t`` then
    drops back to the first step's time coordinate.  The
    constraint violation of each iterate is evaluated once: by
    ``constraint_violation`` at the initial point, and by the step that
    built every later one.  That value must be within ``FEAS_TOL`` (a NaN
    is not), and it is the one recorded.  Each iterate is then evaluated
    once: ``problem.value_and_grad`` gives the objective and its ambient
    gradient, and the manifold's ``tangent_project`` the Riemannian
    gradient.  An objective or gradient norm that is not finite fails the
    run before the row is recorded; otherwise the same values are recorded
    and passed to the next step.  A :class:`BregoptError` raised by a step,
    by the feasibility gate or while evaluating an iterate, an infeasible
    initial point included, sets the trace's ``failure_reason`` and ends
    the run gracefully.

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
    # bound once: the loop reads them on every row
    value_and_grad, tangent_project = problem.value_and_grad, manifold.tangent_project
    append, oracle_value = trace.rows.append, problem.oracle_value
    stop_grad_tol, stop_f_tol = config.stop_grad_tol, config.stop_f_tol
    max_iters = config.max_iters
    with np.errstate(all="ignore"):
        k, newton_iters, violation = 0, None, manifold.constraint_violation(q0)
        try:
            while True:
                _check_feasible(manifold, violation)
                f_val, grad = value_and_grad(point)
                rgrad = tangent_project(point, grad)
                grad_norm = math.sqrt(float(rgrad.dot(rgrad)))
                if not (math.isfinite(f_val) and math.isfinite(grad_norm)):
                    raise BregoptError(f"non-finite objective or gradient norm at k={k}")
                gap = None if oracle_value is None else f_val - oracle_value
                append((k, t, f_val, grad_norm, violation, gap, newton_iters))
                if (grad_norm <= stop_grad_tol
                        or (gap is not None and gap <= stop_f_tol)
                        or k == max_iters):
                    return trace
                k += 1
                point, t, newton_iters, violation = advance(k, f_val, grad, rgrad)
        except BregoptError as exc:
            trace.failure_reason = str(exc)
            return trace
