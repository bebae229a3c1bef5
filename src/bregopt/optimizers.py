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
per-iteration :class:`Trace`.  Each method contributes only a step closure;
one loop evaluates the objective once per iterate, records the row, tests
the stop and turns any step or evaluation failure into a failed trace, so
every method is recorded, stopped and failed alike.  Traces accumulate
locally, so independent runs may execute concurrently; a single run is
sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bregman
from .bregman import BregmanParams, ExtendedState
from .dynamics import DEFAULT_NEWTON, NewtonConfig
from .errors import BregoptError
from .manifolds import EmbeddedManifold
from .problems import ProblemSpec

METHODS = ("htvi_direct", "htvi_adaptive", "el_v1", "el_v2", "rgd")


@dataclass
class RunConfig:
    """Configuration of a single optimizer run.

    ``stop_grad_tol`` stops on the Riemannian gradient norm;
    ``stop_f_tol`` stops on the objective gap against the problem oracle
    when one is available.  ``seed`` draws the initial point when none is
    passed to :func:`run`.
    """

    method: str
    params: BregmanParams
    max_iters: int = 1000
    stop_grad_tol: float = 1e-12
    stop_f_tol: float = 1e-12
    seed: int = 0
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.stop_grad_tol <= 0 or self.stop_f_tol <= 0:
            raise ValueError("stopping tolerances must be positive")


class Trace:
    """Per-iteration record of an optimizer run.

    Columns are parallel lists indexed by row; ``errors_vs_oracle`` entries
    are ``None`` when the problem has no oracle and ``newton_iters`` entries
    are ``None`` for methods without an inner solve.
    """

    def __init__(self, method: str):
        self.method = method
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
    newton: NewtonConfig = DEFAULT_NEWTON,
) -> tuple[ExtendedState, int]:
    """One step of the direct or adaptive constrained Hamiltonian integrator.

    ``grad_f`` and ``f_val`` are the ambient gradient and objective value at
    ``state.q``.  The implicit five-equation system is solved by exploiting
    its explicit sub-chain: the time coordinate updates in closed form, the
    multiplier is the only genuine unknown (it must place the new position
    on the constraint manifold), and the remaining updates follow
    explicitly.  The manifold solves for the multiplier
    (:meth:`~bregopt.manifolds.EmbeddedManifold.solve_multiplier`), warm
    started from ``state.lam``, and returns the normal force that corrects
    the momentum.

    Returns the new state and the number of inner Newton iterations.
    """
    if direction not in ("direct", "adaptive"):
        raise ValueError("direction must be 'direct' or 'adaptive'")
    adaptive = direction == "adaptive"
    coeffs = bregman.step_coefficients(params, state.q_t, adaptive)

    base = state.r - coeffs.gradient * np.asarray(grad_f, dtype=float)
    d = manifold.constraint_dim
    lam0 = state.lam if state.lam.shape == (d,) else np.zeros(d)
    lam, normal, iterations = manifold.solve_multiplier(
        state.q + coeffs.position * base, state.q, coeffs.position, lam0, newton
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
    *,
    check_points: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Semi-implicit Euler step of the accelerated-flow velocity recursion.

    ``riemannian_grad`` maps a point to the Riemannian gradient of the
    objective there.  Version 1 evaluates the gradient at ``x``; version 2
    at the trial point reached by following the damped velocity alone.
    The gradient coefficient grows polynomially in ``k`` and is clamped at
    ``params.coeff_cap``.  The velocity transport checks that ``x`` and
    the new point lie on the manifold; ``check_points=False`` skips that
    for a caller that checks every iterate itself, as :func:`run` does.
    """
    if version not in (1, 2):
        raise ValueError("version must be 1 or 2")
    if k < 1:
        raise ValueError("iteration index k must be >= 1")
    h, p = params.h, params.p
    b_k = 1.0 - (params.lambda_conv * p + 1.0) / k
    c_k = min(params.coeff_cap, params.c_const * p * p * (k * h) ** (p - 2.0))
    if version == 1:
        grad = riemannian_grad(x)
    else:
        grad = riemannian_grad(manifold.retract(x, (h * b_k) * v))
    a_k = b_k * v - (h * c_k) * grad
    x_next = manifold.retract(x, h * a_k)
    transport = manifold.transport if check_points else manifold._transport
    v_next = transport(x, x_next, a_k)
    return x_next, v_next


def rgd_step(
    manifold: EmbeddedManifold, x: np.ndarray, h: float, riemannian_grad: np.ndarray
) -> np.ndarray:
    """Riemannian gradient descent: retract along minus the Riemannian
    gradient ``riemannian_grad`` at ``x``."""
    return manifold.retract(x, -h * riemannian_grad)


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------

# Each ``_*_stepper`` returns the start point, its time coordinate and a
# closure ``advance(k, f_val, grad, rgrad) -> (point, t, newton_iters)`` that
# takes step ``k`` from the current point, whose objective value, ambient
# gradient and Riemannian gradient are ``f_val``, ``grad`` and ``rgrad``.
# The step functions are looked up by module name at call time, so replacing
# them on the module takes effect.

def _htvi_stepper(config: RunConfig, problem: ProblemSpec, q0: np.ndarray):
    direction = "direct" if config.method == "htvi_direct" else "adaptive"
    manifold = problem.manifold
    state = ExtendedState.initial(q0, manifold.constraint_dim)

    def advance(k, f_val, grad, rgrad):
        nonlocal state
        state, iters = htvi_step(
            direction, config.params, manifold, state, grad, f_val, config.newton
        )
        if not state.is_finite():
            raise BregoptError("non-finite state")
        return state.q, state.q_t, iters

    return state.q, state.q_t, advance


def _el_stepper(config: RunConfig, problem: ProblemSpec, q0: np.ndarray):
    version = 1 if config.method == "el_v1" else 2
    manifold = problem.manifold
    x, v = q0.copy(), np.zeros_like(q0)

    def riemannian_grad(point):
        return manifold.riemannian_gradient(point, problem.ambient_grad(point))

    def advance(k, f_val, grad, rgrad):
        nonlocal x, v
        # version 1 evaluates the gradient at the current point, which the
        # run loop has already done; the run loop also checks every iterate
        x, v = el_step(version, config.params, manifold, x, v, k,
                       (lambda point: rgrad) if version == 1 else riemannian_grad,
                       check_points=False)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise BregoptError("non-finite state")
        return x, k * config.params.h, None

    return x, 0.0, advance


def _rgd_stepper(config: RunConfig, problem: ProblemSpec, q0: np.ndarray):
    x = q0.copy()

    def advance(k, f_val, grad, rgrad):
        nonlocal x
        x = rgd_step(problem.manifold, x, config.params.h, rgrad)
        if not np.isfinite(x).all():
            raise BregoptError("non-finite state")
        return x, k * config.params.h, None

    return x, 0.0, advance


def run(config: RunConfig, problem: ProblemSpec, initial=None) -> Trace:
    """Execute an optimizer run and return its trace.

    ``initial`` is a feasible point (flat array); when omitted it is drawn
    from the manifold with the config seed.  HTVI methods start from the
    standard extended state (zero momenta, unit time coordinate).  The
    objective, its ambient gradient, the Riemannian gradient and the
    constraint are evaluated once per iterate; the same values are recorded
    and passed to the next step, and the recorded constraint violation is
    the one that must be within ``FEAS_TOL`` for the gradient to exist.  A
    :class:`BregoptError` raised by a step or while evaluating an iterate
    marks the trace as failed and ends the run gracefully.
    """
    manifold = problem.manifold
    if initial is None:
        initial = manifold.random_point(np.random.default_rng(config.seed))
    q0 = np.asarray(initial, dtype=float)
    if config.method in ("htvi_direct", "htvi_adaptive"):
        start = _htvi_stepper
    elif config.method in ("el_v1", "el_v2"):
        start = _el_stepper
    else:
        start = _rgd_stepper
    point, t, advance = start(config, problem, q0)

    trace = Trace(config.method)
    k, newton_iters = 0, None
    try:
        while True:
            f_val = problem.f(point)
            grad = problem.ambient_grad(point)
            rgrad, violation = manifold._gradient_and_violation(point, grad)
            grad_norm = math.sqrt(float(rgrad @ rgrad))
            gap = None if problem.oracle_value is None else f_val - problem.oracle_value
            trace.append(k, t, f_val, grad_norm, violation, gap, newton_iters)
            if (grad_norm <= config.stop_grad_tol
                    or (gap is not None and gap <= config.stop_f_tol)
                    or k == config.max_iters):
                return trace
            k += 1
            point, t, newton_iters = advance(k, f_val, grad, rgrad)
    except BregoptError as exc:
        trace.failed = True
        trace.failure_reason = str(exc)
        return trace
