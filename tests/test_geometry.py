"""The paper's geometric claim: the one-step maps we ship are symplectic.

On the extended phase space the canonical form is
``omega = dq ^ dr + dq_t ^ dr_t``.  A one-step map is symplectic when its
Jacobian ``J`` keeps the form, ``omega(J d1, J d2) = omega(d1, d2)``, for
variations ``d1``, ``d2`` along the constraint (``dq`` tangent at ``q``).
``J`` is a central difference of the map with step ``EPS``; each perturbed
configuration is put back on the manifold with the manifold's retraction,
whose second-order term is even in the step and cancels from the
difference.  The relative defect
``|omega(J d1, J d2) - omega(d1, d2)| / max(1, |omega(d1, d2)|)`` then reads
at most 5e-9 on the maps below (HTVI at p = 3, h = 1e-2 and no cap; the
pendulum at h = 1e-2), against ``BOUND``.  With the ``r_t`` update's
``kinetic_rt`` scaled by 1.01, HTVI on ``rayleigh`` reads 5e-4 (direct) and
2e-3 (adaptive).
"""

import numpy as np
import pytest

from bregopt import bregman
from bregopt.bregman import BregmanParams, ExtendedState
from bregopt.cli import spherical_pendulum_lagrangian
from bregopt.dynamics import constrained_lagrangian_map
from bregopt.manifolds import Sphere
from bregopt.optimizers import htvi_step
from bregopt.problems import make_instance

EPS = 1e-6
BOUND = 1e-7
SEEDS = [0, 1, 2]
PROBLEMS = [("rayleigh", (5,)), ("brockett", (6, 2))]


def omega(a, b):
    """Canonical two-form on variations packed as ``(dq, dr)`` halves."""
    half = a.size // 2
    return float(a[:half].dot(b[half:]) - b[:half].dot(a[half:]))


def defect(step, retract, z, d1, d2):
    """Relative change of ``omega`` under the central-difference Jacobian of
    ``step`` at ``z``.  States and variations pack the configuration half
    first; ``retract(x, v)`` moves a configuration ``x`` by ``v`` and puts it
    back on the manifold."""
    half = z.size // 2

    def jacobian_times(d):
        images = []
        for sign in (1.0, -1.0):
            moved = z + sign * EPS * d
            moved[:half] = retract(z[:half], sign * EPS * d[:half])
            images.append(step(moved))
        return (images[0] - images[1]) / (2.0 * EPS)

    before = omega(d1, d2)
    after = omega(jacobian_times(d1), jacobian_times(d2))
    return abs(after - before) / max(1.0, abs(before))


def htvi_map(direction, params, problem):
    manifold = problem.manifold
    n = manifold.ambient_dim

    def step(z):
        q, q_t, r, r_t = z[:n], z[n], z[n + 1:-1], z[-1]
        f_val, grad = problem.value_and_grad(q)
        # each step starts its multiplier solve cold
        state = ExtendedState(q=q, q_t=float(q_t), r=r, r_t=float(r_t), lam=None)
        nxt = htvi_step(direction, params, manifold, state, grad, f_val)[0]
        return np.concatenate([nxt.q, [nxt.q_t], nxt.r, [nxt.r_t]])

    return step


def htvi_case(name, dims, seed):
    """A seeded problem, its manifold, a state ``(q, q_t, r, r_t)`` with
    tangent momentum and two variations with ``dq`` tangent at ``q``."""
    problem = make_instance(name, dims, seed=seed)
    manifold = problem.manifold
    rng = np.random.default_rng(seed)
    q = manifold.random_point(rng)
    z = np.concatenate([q, [rng.uniform(1.0, 2.0)],
                        manifold.tangent_project(q, rng.standard_normal(q.size)),
                        [rng.standard_normal()]])

    def variation():
        d = rng.standard_normal(z.size)
        d[:q.size] = manifold.tangent_project(q, d[:q.size])
        return d

    return problem, manifold, z, variation(), variation()


def htvi_defect(direction, name, dims, seed):
    params = BregmanParams(p=3.0, h=1e-2, coeff_cap=np.inf)
    problem, manifold, z, d1, d2 = htvi_case(name, dims, seed)

    def retract(x, v):
        # q by the manifold's retraction, q_t along its line
        return np.append(manifold.retract(x[:-1], v[:-1])[0], x[-1] + v[-1])

    return defect(htvi_map(direction, params, problem), retract, z, d1, d2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,dims", PROBLEMS, ids=[name for name, _ in PROBLEMS])
@pytest.mark.parametrize("direction", ["direct", "adaptive"])
def test_htvi_step_is_symplectic(direction, name, dims, seed):
    assert htvi_defect(direction, name, dims, seed) <= BOUND


@pytest.mark.parametrize("direction", ["direct", "adaptive"])
def test_a_perturbed_time_momentum_update_is_not(direction, monkeypatch):
    # kinetic_rt off by one percent: the map no longer keeps omega
    exact = bregman.step_coefficients

    def perturbed(*args):
        coeffs = exact(*args)
        return coeffs._replace(kinetic_rt=1.01 * coeffs.kinetic_rt)

    monkeypatch.setattr(bregman, "step_coefficients", perturbed)
    assert htvi_defect(direction, "rayleigh", (5,), 0) > BOUND


@pytest.mark.parametrize("seed", SEEDS)
def test_pendulum_map_is_symplectic(seed):
    # (q, p) with p tangent at q; the variations keep q.p = 0 to first order
    # and the returned momentum is projected, as the order check does
    manifold = Sphere(3)
    lagrangian = spherical_pendulum_lagrangian()
    h = 1e-2

    def step(z):
        result = constrained_lagrangian_map(lagrangian, manifold, z[:3], z[3:], h)
        return np.concatenate([result.q_next,
                               manifold.tangent_project(result.q_next, result.p_next)])

    rng = np.random.default_rng(seed)
    q = manifold.random_point(rng)
    p = manifold.tangent_project(q, rng.standard_normal(3))

    def variation():
        dq = manifold.tangent_project(q, rng.standard_normal(3))
        dp = manifold.tangent_project(q, rng.standard_normal(3)) - dq.dot(p) * q
        return np.concatenate([dq, dp])

    z = np.concatenate([q, p])
    assert defect(step, lambda x, v: manifold.retract(x, v)[0], z, variation(),
                  variation()) <= BOUND
