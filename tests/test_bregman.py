"""Tests of the Bregman Hamiltonian family and its step coefficients."""

import math

import numpy as np
import pytest

from bregopt.bregman import (
    BregmanParams,
    ExtendedState,
    hamiltonian_adaptive,
    hamiltonian_direct,
    hamiltonian_partials,
    step_coefficients,
)
from bregopt.errors import BregoptError, SingularTimeError


def random_state(rng, n=4, tangent_sphere=False):
    q = rng.standard_normal(n)
    if tangent_sphere:
        q /= np.linalg.norm(q)
    return ExtendedState(
        q=q,
        q_t=float(rng.uniform(0.6, 2.0)),
        r=rng.standard_normal(n),
        r_t=float(rng.standard_normal()),
        lam=np.zeros(0),
    )


def random_params(rng, equal_exponents=False):
    p = float(rng.uniform(1.5, 4.0))
    p_ring = p if equal_exponents else float(rng.uniform(1.0, 2.0 * p))
    return BregmanParams(
        p=p,
        p_ring=p_ring,
        c_const=float(rng.uniform(0.5, 2.0)),
        lambda_conv=float(rng.uniform(1.0, 1.5)),
        h=float(rng.uniform(1e-3, 1e-1)),
    )


class TestParams:
    def test_p_ring_defaults_below_p(self):
        params = BregmanParams(p=6.0)
        assert params.p_ring == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BregmanParams(p=-1.0)
        with pytest.raises(ValueError):
            BregmanParams(p=2.0, lambda_conv=0.5)
        with pytest.raises(ValueError):
            BregmanParams(p=2.0, h=0.0)
        with pytest.raises(ValueError):
            BregmanParams(p=2.0, coeff_cap=0.0)

    @pytest.mark.parametrize("field", ["p", "p_ring", "c_const", "lambda_conv", "h",
                                       "coeff_cap"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            BregmanParams(**{"p": 2.0, field: math.nan})

    def test_infinite_cap_allowed(self):
        assert BregmanParams(p=2.0, coeff_cap=math.inf).coeff_cap == math.inf

    # an infinite exponent, constant or step turns the step coefficients
    # into inf or NaN
    @pytest.mark.parametrize("field", ["p", "p_ring", "c_const", "lambda_conv", "h"])
    def test_infinite_rejected(self, field):
        with pytest.raises(ValueError, match="finite"):
            BregmanParams(**{"p": 2.0, field: math.inf})


class TestHamiltonianValues:
    def test_direct_substitution(self):
        params = BregmanParams(p=2.0, lambda_conv=1.0, c_const=1.0, h=0.1)
        state = ExtendedState(q=np.zeros(2), q_t=1.0, r=np.array([1.0, 0.0]),
                              r_t=0.5, lam=np.zeros(0))
        assert hamiltonian_direct(params, state, f_val=0.0) == pytest.approx(1.5)

    def test_direct_only_time_momentum_survives(self):
        params = BregmanParams(p=3.0)
        state = ExtendedState(q=np.zeros(3), q_t=1.7, r=np.zeros(3), r_t=-0.3,
                              lam=np.zeros(0))
        assert hamiltonian_direct(params, state, f_val=0.0) == pytest.approx(-0.3)

    def test_direct_matches_vector_space_form(self):
        # lambda_conv = 1 term-by-term: p/2 s^-(p+1) r.r + C p s^(2p-1) f + r_t
        rng = np.random.default_rng(1)
        for _ in range(10):
            params = random_params(rng)
            state = random_state(rng)
            s, p, c = state.q_t, params.p, params.c_const
            f_val = float(rng.standard_normal())
            direct = BregmanParams(p=p, p_ring=params.p_ring, c_const=c,
                                   lambda_conv=1.0, h=params.h)
            rr = float(state.r @ state.r)
            expected = (0.5 * p * s ** (-(p + 1.0)) * rr
                        + c * p * s ** (2.0 * p - 1.0) * f_val + state.r_t)
            assert hamiltonian_direct(direct, state, f_val) == pytest.approx(
                expected, rel=1e-14)

    def test_adaptive_matches_time_rescaled_form(self):
        # term by term: p^2/(2 p_ring) s^-(lam p + p_ring/p) r.r
        #   + C p^2/p_ring s^((lam+1) p - p_ring/p) f + p/p_ring s^(1 - p_ring/p) r_t
        rng = np.random.default_rng(8)
        for _ in range(10):
            params = random_params(rng)
            state = random_state(rng)
            s, p, pr = state.q_t, params.p, params.p_ring
            lam, c = params.lambda_conv, params.c_const
            f_val = float(rng.standard_normal())
            rr = float(state.r @ state.r)
            expected = (p ** 2 / (2.0 * pr) * s ** (-lam * p - pr / p) * rr
                        + c * p ** 2 / pr * s ** ((lam + 1.0) * p - pr / p) * f_val
                        + p / pr * s ** (1.0 - pr / p) * state.r_t)
            assert hamiltonian_adaptive(params, state, f_val) == pytest.approx(
                expected, rel=1e-14)

    def test_adaptive_substitution(self):
        params = BregmanParams(p=2.0, p_ring=4.0, lambda_conv=1.0, c_const=1.0)
        state = ExtendedState(q=np.zeros(2), q_t=1.0, r=np.array([1.0, 1.0]),
                              r_t=1.0, lam=np.zeros(0))
        assert hamiltonian_adaptive(params, state, f_val=0.0) == pytest.approx(1.5)

    def test_adaptive_zero_momenta(self):
        params = BregmanParams(p=3.0, p_ring=2.0)
        state = ExtendedState(q=np.zeros(2), q_t=1.0, r=np.zeros(2), r_t=0.8,
                              lam=np.zeros(0))
        expected = (params.p / params.p_ring) * 0.8
        assert hamiltonian_adaptive(params, state, f_val=0.0) == pytest.approx(expected)

    def test_adaptive_reduces_to_direct(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            params = random_params(rng, equal_exponents=True)
            state = random_state(rng)
            f_val = float(rng.standard_normal())
            direct = hamiltonian_direct(params, state, f_val)
            adaptive = hamiltonian_adaptive(params, state, f_val)
            assert adaptive == pytest.approx(direct, rel=1e-14, abs=1e-14)

    def test_kinetic_term_quadratic_in_momentum(self):
        # doubling r multiplies the kinetic term by exactly four: with zero
        # objective and zero time-momentum the Hamiltonian is purely kinetic
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = random_params(rng)
            state = random_state(rng)
            state.r_t = 0.0
            doubled = ExtendedState(state.q, state.q_t, 2.0 * state.r, 0.0, state.lam)
            assert hamiltonian_direct(params, doubled, 0.0) == 4.0 * hamiltonian_direct(
                params, state, 0.0
            )
            assert hamiltonian_adaptive(params, doubled, 0.0) == 4.0 * (
                hamiltonian_adaptive(params, state, 0.0)
            )

    def test_singular_time_rejected(self):
        params = BregmanParams(p=2.0)
        state = ExtendedState(q=np.zeros(2), q_t=0.0, r=np.zeros(2), r_t=0.0,
                              lam=np.zeros(0))
        with pytest.raises(SingularTimeError):
            hamiltonian_direct(params, state, 0.0)
        with pytest.raises(SingularTimeError):
            hamiltonian_adaptive(params, state, 0.0)


class TestPartials:
    @staticmethod
    def _fd_partials(hamiltonian, params, state, quadratic, eps=1e-4):
        # central differences are exact in the momenta (quadratic terms) and
        # the wider step keeps roundoff cancellation well below the tolerance
        def value(q, q_t, r, r_t):
            st = ExtendedState(q=q, q_t=q_t, r=r, r_t=r_t, lam=state.lam)
            return hamiltonian(params, st, float(q @ (quadratic @ q)))

        n = state.q.size
        d_q = np.empty(n)
        d_r = np.empty(n)
        for i in range(n):
            delta = np.zeros(n)
            delta[i] = eps
            d_q[i] = (value(state.q + delta, state.q_t, state.r, state.r_t)
                      - value(state.q - delta, state.q_t, state.r, state.r_t)) / (2 * eps)
            d_r[i] = (value(state.q, state.q_t, state.r + delta, state.r_t)
                      - value(state.q, state.q_t, state.r - delta, state.r_t)) / (2 * eps)
        d_qt = (value(state.q, state.q_t + eps, state.r, state.r_t)
                - value(state.q, state.q_t - eps, state.r, state.r_t)) / (2 * eps)
        d_rt = (value(state.q, state.q_t, state.r, state.r_t + eps)
                - value(state.q, state.q_t, state.r, state.r_t - eps)) / (2 * eps)
        return d_q, d_qt, d_r, d_rt

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_partials_match_finite_differences(self, adaptive):
        rng = np.random.default_rng(4)
        hamiltonian = hamiltonian_adaptive if adaptive else hamiltonian_direct
        for _ in range(10):
            params = random_params(rng)
            state = random_state(rng)
            quad = rng.standard_normal((state.q.size, state.q.size))
            quad = quad + quad.T
            f_val = float(state.q @ (quad @ state.q))
            grad_f = 2.0 * quad @ state.q
            exact = hamiltonian_partials(params, state, f_val, grad_f, adaptive)
            d_q, d_qt, d_r, d_rt = self._fd_partials(hamiltonian, params, state, quad)
            np.testing.assert_allclose(
                exact.d_q, d_q, rtol=1e-6, atol=1e-6 * (1.0 + np.max(np.abs(d_q)))
            )
            np.testing.assert_allclose(
                exact.d_r, d_r, rtol=1e-6, atol=1e-6 * (1.0 + np.max(np.abs(d_r)))
            )
            assert abs(exact.d_qt - d_qt) <= 1e-6 * (1.0 + abs(d_qt))
            assert abs(exact.d_rt - d_rt) <= 1e-6 * (1.0 + abs(d_rt))

    def test_adaptive_partials_reduce_to_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = random_params(rng, equal_exponents=True)
            state = random_state(rng)
            f_val = float(rng.standard_normal())
            grad_f = rng.standard_normal(state.q.size)
            direct = hamiltonian_partials(params, state, f_val, grad_f, adaptive=False)
            adaptive = hamiltonian_partials(params, state, f_val, grad_f, adaptive=True)
            np.testing.assert_allclose(adaptive.d_q, direct.d_q, rtol=1e-12)
            np.testing.assert_allclose(adaptive.d_r, direct.d_r, rtol=1e-12)
            assert adaptive.d_qt == pytest.approx(direct.d_qt, rel=1e-12, abs=1e-12)
            assert adaptive.d_rt == pytest.approx(direct.d_rt, rel=1e-12, abs=1e-12)


def reference_row(params, adaptive):
    """The row constants ``(b, e_k, e_p, a, e_t, a e_t)``, as the package
    forms them."""
    p, lam_c = params.p, params.lambda_conv
    if adaptive:
        pr = params.p_ring
        b, g, a, a_e_t = p * p / pr, pr / p, p / pr, (p - pr) / pr
    else:
        b, g, a, a_e_t = p, 1.0, 1.0, 0.0
    return b, -(lam_c * p + g), (lam_c + 1.0) * p - g, a, 1.0 - g, a_e_t


def reference_hamiltonian(params, state, f_val, adaptive):
    """The Hamiltonian value written out from the row, apart from the step
    coefficients."""
    s = float(state.q_t)
    b, e_k, e_p, a, e_t, _ = reference_row(params, adaptive)
    rr = float(state.r.dot(state.r))
    kinetic = 0.5 * b * s ** e_k * rr
    potential = params.c_const * b * s ** e_p * f_val
    return kinetic + potential + a * s ** e_t * state.r_t


def reference_partials(params, state, f_val, grad_f, adaptive):
    """The four partials written out from the row, as ``(d_q, d_qt, d_r,
    d_rt)``, apart from the step coefficients."""
    s = float(state.q_t)
    c = params.c_const
    b, e_k, e_p, a, e_t, a_e_t = reference_row(params, adaptive)
    rr = float(state.r.dot(state.r))
    d_qt = (
        0.5 * b * e_k * s ** (e_k - 1.0) * rr
        + c * b * e_p * s ** (e_p - 1.0) * f_val
        + a_e_t * s ** (e_t - 1.0) * state.r_t
    )
    return (c * b * s ** e_p * np.asarray(grad_f, dtype=float), float(d_qt),
            b * s ** e_k * state.r, float(a * s ** e_t))


class TestValuesReadTheStepCoefficients:
    """The value and the partials read the step coefficients at unit step;
    they keep the bits of the row written out on its own."""

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_bits_of_the_written_out_row(self, adaptive):
        rng = np.random.default_rng(11)
        hamiltonian = hamiltonian_adaptive if adaptive else hamiltonian_direct
        for i in range(1500):
            p = float(rng.uniform(0.3, 12.0))
            params = BregmanParams(
                p=p,
                p_ring=float(rng.uniform(0.1, 3.0) * p),
                c_const=float(rng.uniform(0.05, 10.0)),
                lambda_conv=float(rng.uniform(1.0, 3.0)),
                h=float(rng.uniform(1e-4, 1e-1)),
                # the value and partials take no cap, whatever params carry
                coeff_cap=(math.inf, 1e6, 1.0)[i % 3],
            )
            n = int(rng.integers(1, 6))
            state = ExtendedState(q=np.zeros(n), q_t=float(rng.uniform(0.05, 60.0)),
                                  r=rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3),
                                  r_t=float(rng.standard_normal()), lam=np.zeros(0))
            f_val = float(rng.standard_normal())
            grad_f = rng.standard_normal(n)
            value = hamiltonian(params, state, f_val)
            assert float.hex(value) == float.hex(
                reference_hamiltonian(params, state, f_val, adaptive))
            partials = hamiltonian_partials(params, state, f_val, grad_f, adaptive)
            d_q, d_qt, d_r, d_rt = reference_partials(params, state, f_val, grad_f, adaptive)
            assert list(map(float.hex, partials.d_q)) == list(map(float.hex, d_q))
            assert list(map(float.hex, partials.d_r)) == list(map(float.hex, d_r))
            assert float.hex(partials.d_qt) == float.hex(d_qt)
            assert float.hex(partials.d_rt) == float.hex(d_rt)


def reference_step_coefficients(params, q_t, adaptive):
    """The step coefficients as written out per member before the shared row;
    ``step_coefficients`` does not read ``params.coeff_cap``, so neither
    does the reference."""
    s = q_t
    h = params.h
    p, lam_c, c = params.p, params.lambda_conv, params.c_const
    if not adaptive:
        return (
            h,
            h * p * s ** (-(lam_c * p + 1.0)),
            h * c * p * s ** ((lam_c + 1.0) * p - 1.0),
            h * 0.5 * p * (lam_c * p + 1.0) * s ** (-(lam_c * p + 2.0)),
            h * c * p * ((lam_c + 1.0) * p - 1.0) * s ** ((lam_c + 1.0) * p - 2.0),
            0.0,
        )
    pr = params.p_ring
    return (
        h * (p / pr) * s ** (1.0 - pr / p),
        h * (p * p / pr) * s ** (-(lam_c * p + pr / p)),
        h * c * (p * p / pr) * s ** ((lam_c + 1.0) * p - pr / p),
        h * 0.5 * (p * p / pr) * (lam_c * p + pr / p) * s ** (-(lam_c * p + pr / p + 1.0)),
        h * c * (p * p / pr) * ((lam_c + 1.0) * p - pr / p)
        * s ** ((lam_c + 1.0) * p - pr / p - 1.0),
        h * ((p - pr) / pr) * s ** (-pr / p),
    )


class TestSharedRow:
    """Both members evaluate one row form; it keeps the per-member rounding."""

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_bit_equal_at_cli_defaults(self, adaptive):
        params = BregmanParams(p=6.0)
        q_ts = np.concatenate([np.linspace(1.0, 40.0, 391),
                               np.random.default_rng(9).uniform(1.0, 40.0, 500)])
        for q_t in q_ts:
            coeffs = step_coefficients(params, float(q_t), adaptive)
            expected = reference_step_coefficients(params, float(q_t), adaptive)
            assert list(map(float.hex, coeffs)) == list(map(float.hex, expected))

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_random_parameters(self, adaptive):
        # The *_rt exponents are now the row exponents less one.  For direct,
        # -(lam p + 1) - 1 may round apart from -(lam p + 2); for adaptive,
        # (1 - p_ring/p) - 1 equals -p_ring/p whenever 1 - p_ring/p is exact,
        # that is for p_ring/p in [0.5, 2], and the rest is unchanged.
        rng = np.random.default_rng(10)
        for _ in range(250):
            p = float(rng.uniform(0.5, 10.0))
            params = BregmanParams(
                p=p,
                p_ring=float(rng.uniform(0.1, 3.0) * p),
                c_const=float(rng.uniform(0.1, 10.0)),
                lambda_conv=float(rng.uniform(1.0, 3.0)),
                h=float(rng.uniform(1e-4, 1e-1)),
                # step_coefficients does not read the cap, whatever it is
                coeff_cap=float(rng.choice([math.inf, 1e6, 1.0])),
            )
            q_t = float(rng.uniform(1.0, 40.0))
            coeffs = step_coefficients(params, q_t, adaptive)
            expected = reference_step_coefficients(params, q_t, adaptive)
            assert list(map(float.hex, coeffs[:3])) == list(map(float.hex, expected[:3]))
            assert coeffs[3:] == pytest.approx(expected[3:], rel=1e-13, abs=0.0)
            if adaptive and 0.5 <= params.p_ring / params.p <= 2.0:
                assert list(map(float.hex, coeffs)) == list(map(float.hex, expected))


class TestGradCoefficient:
    def test_uncapped_direct_value(self):
        params = BregmanParams(p=2.0, c_const=1.0, h=1.0, coeff_cap=math.inf)
        assert step_coefficients(params, 1.0, adaptive=False).gradient == pytest.approx(2.0)

    def test_cap_is_not_read(self):
        # the cap bounds the EL coefficient alone; step_coefficients does not
        # read it, so a cap below the coefficient leaves it as it is
        params = BregmanParams(p=2.0, c_const=1.0, h=1.0, coeff_cap=1.0)
        assert step_coefficients(params, 1.0, adaptive=False).gradient == pytest.approx(2.0)

    def test_adaptive_reduces_to_direct(self):
        params = BregmanParams(p=3.0, p_ring=3.0, c_const=1.3, h=0.05)
        for q_t in (0.7, 1.0, 2.5):
            assert step_coefficients(params, q_t, adaptive=True).gradient == pytest.approx(
                step_coefficients(params, q_t, adaptive=False).gradient, rel=1e-14)


class TestStepCoefficients:
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_rt_coefficients_match_hamiltonian_partial(self, adaptive):
        # the r_t update coefficients are exactly the pieces of dH/dq_t
        rng = np.random.default_rng(6)
        for _ in range(10):
            params = random_params(rng)
            state = random_state(rng)
            f_val = float(rng.standard_normal())
            coeffs = step_coefficients(params, state.q_t, adaptive)
            _, d_qt, _, _ = reference_partials(
                params, state, f_val, np.zeros(state.q.size), adaptive
            )
            rr = float(state.r @ state.r)
            combined = (-coeffs.kinetic_rt * rr + coeffs.potential_rt * f_val
                        + coeffs.feedback_rt * state.r_t) / params.h
            assert combined == pytest.approx(d_qt, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_position_and_time_coefficients_match_partials(self, adaptive):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        state = random_state(rng)
        coeffs = step_coefficients(params, state.q_t, adaptive)
        _, _, d_r, d_rt = reference_partials(params, state, 0.0, np.zeros(state.q.size),
                                             adaptive)
        np.testing.assert_allclose(coeffs.position * state.r, params.h * d_r, rtol=1e-13)
        assert coeffs.q_t_increment == pytest.approx(params.h * d_rt, rel=1e-13)

    def test_direct_has_no_rt_feedback(self):
        params = BregmanParams(p=4.0)
        assert step_coefficients(params, 1.3, adaptive=False).feedback_rt == 0.0

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_overflow_is_a_bregopt_error(self, adaptive):
        # s^e_p with e_p near 2 p leaves the float range between s = 5.9 and 6;
        # the value and the partials read the same powers at unit step
        params = BregmanParams(p=200.0, c_const=1e-300)
        hamiltonian = hamiltonian_adaptive if adaptive else hamiltonian_direct

        def state(q_t):
            return ExtendedState(q=np.zeros(2), q_t=q_t, r=np.ones(2), r_t=1.0,
                                 lam=np.zeros(0))

        evaluations = [
            lambda q_t: step_coefficients(params, q_t, adaptive),
            lambda q_t: hamiltonian(params, state(q_t), 1.0),
            lambda q_t: hamiltonian_partials(params, state(q_t), 1.0, np.ones(2), adaptive),
        ]
        for evaluate in evaluations:
            evaluate(5.9)
            with pytest.raises(BregoptError,
                               match="^step coefficients overflow at time coordinate 6.0$"):
                evaluate(6.0)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_gradient_coefficient_ignores_cap(self, adaptive):
        # step_coefficients does not read coeff_cap: every coefficient keeps
        # its bits at a cap that would bind, at the default cap and at none
        for q_t in (1.0, 2.0, 7.5):
            rows = {tuple(map(float.hex, step_coefficients(
                        BregmanParams(p=6.0, c_const=1.0, h=1.0, coeff_cap=cap),
                        q_t, adaptive)))
                    for cap in (1.0, 1e6, math.inf)}
            assert len(rows) == 1
        assert step_coefficients(BregmanParams(p=6.0, c_const=1.0, h=1.0, coeff_cap=2.0),
                                 2.0, adaptive=False).gradient > 2.0
