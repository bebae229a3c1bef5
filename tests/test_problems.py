"""Tests of the benchmark problems and their oracles.

The package keeps no minimizer: its oracles are optimal values.  The tests
build their own minimizers with ``np.linalg.eigh`` and ``svd`` and check the
values there against ``oracle_value``.
"""

import dataclasses
import re

import numpy as np
import pytest

from bregopt import problems
from bregopt.problems import (
    MAX_INSTANCE_ENTRIES,
    brockett,
    load_matrix,
    make_instance,
    procrustes,
    rayleigh,
    symmetric_from_spectrum,
    symmetric_instance,
)

from reference_geometry import (
    column_major_brockett,
    column_major_procrustes,
    matrix,
    random_tangent,
)


def rayleigh_minimizer(a):
    """The unit eigenvector of the largest eigenvalue of ``a``, by ``eigh``:
    a minimizer of ``rayleigh(a)``."""
    return np.linalg.eigh(a)[1][:, -1]


def brockett_minimizer(a, m):
    """Flat ``X`` whose column j is the eigenvector of the (m - j + 1)-th
    smallest eigenvalue of ``a``, by ``eigh``: a minimizer of
    ``brockett(a, mu)`` for ``m`` weights ``mu``."""
    return np.linalg.eigh(a)[1][:, m - 1 :: -1].reshape(-1, order="F")


def instance_minimizer(name, dims, seed, conditioning=10.0):
    """A minimizer of ``make_instance(name, dims, seed, conditioning)``, from
    the matrices that call draws; for balanced ``procrustes`` it is ``U V^T``
    from the SVD ``A^T B = U S V^T``."""
    if name == "procrustes":
        n, m, l = dims
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((l, n))
        u, _, vt = np.linalg.svd(a.T @ rng.standard_normal((l, m)))
        return (u @ vt).reshape(-1, order="F")
    a = symmetric_instance(seed, dims[0], conditioning)
    return rayleigh_minimizer(a) if name == "rayleigh" else brockett_minimizer(a, dims[1])


def ambient_fd_gradient(f, q, eps=1e-6):
    grad = np.empty(q.size)
    for j in range(q.size):
        delta = np.zeros(q.size)
        delta[j] = eps
        grad[j] = (f(q + delta) - f(q - delta)) / (2.0 * eps)
    return grad


class TestRayleigh:
    def test_identity_matrix_is_flat(self):
        prob = rayleigh(np.eye(3))
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = prob.manifold.random_point(rng)
            assert prob.value_and_grad(q)[0] == pytest.approx(-1.0)
            riem = prob.manifold.tangent_project(q, prob.value_and_grad(q)[1])
            np.testing.assert_allclose(riem, np.zeros(3), atol=1e-12)

    def test_two_by_two_oracle(self):
        prob = rayleigh(np.diag([1.0, 2.0]))
        x_star = rayleigh_minimizer(np.diag([1.0, 2.0]))
        assert prob.oracle_value == pytest.approx(-2.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(x_star), [0.0, 1.0], atol=1e-10)
        assert prob.value_and_grad(x_star)[0] == pytest.approx(prob.oracle_value, abs=1e-12)

    def test_seeded_oracle_consistency(self):
        prob = make_instance("rayleigh", (10,), seed=3)
        x_star = instance_minimizer("rayleigh", (10,), seed=3)
        assert abs(prob.value_and_grad(x_star)[0] - prob.oracle_value) <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            rayleigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestBrockett:
    def test_identity_matrix_is_flat(self):
        prob = brockett(np.eye(4), np.array([1.0, 2.0]))
        rng = np.random.default_rng(4)
        x = prob.manifold.random_point(rng)
        assert prob.value_and_grad(x)[0] == pytest.approx(3.0)
        riem = prob.manifold.tangent_project(x, prob.value_and_grad(x)[1])
        np.testing.assert_allclose(riem, np.zeros(8), atol=1e-12)

    def test_diagonal_oracle_pairing(self):
        # the largest weight pairs with the smallest eigenvalue
        prob = brockett(np.diag([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))
        x_star = brockett_minimizer(np.diag([1.0, 2.0, 3.0]), 2)
        assert prob.oracle_value == pytest.approx(4.0, abs=1e-12)
        assert abs(prob.value_and_grad(x_star)[0] - 4.0) <= 1e-12

    def test_oracle_columns_are_eigenvectors(self):
        prob = make_instance("brockett", (7, 3), seed=5)
        x_star = instance_minimizer("brockett", (7, 3), seed=5)
        x = matrix(prob.manifold, x_star)
        # columns must satisfy the eigenvalue equation of the instance matrix
        inst = symmetric_instance(5, 7, 10.0)
        for j in range(3):
            col = x[:, j]
            lam = col @ (inst @ col)
            assert np.linalg.norm(inst @ col - lam * col) <= 1e-8
        # and the oracle value is the value at those columns, paired as it says
        assert abs(prob.value_and_grad(x_star)[0] - prob.oracle_value) <= 1e-10

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            brockett(np.eye(3), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            brockett(np.eye(3), np.array([-1.0, 1.0]))


class TestProcrustes:
    def test_consistent_balanced_system(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 3))
        x0, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        prob = procrustes(a, a @ x0)
        assert prob.oracle_value <= 1e-12

    def test_balanced_oracle_beats_random_points(self):
        prob = make_instance("procrustes", (3, 3, 5), seed=7)
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = prob.manifold.random_point(rng)
            assert prob.oracle_value <= prob.value_and_grad(q)[0] + 1e-9

    def test_unbalanced_has_no_oracle(self):
        prob = make_instance("procrustes", (4, 2, 6), seed=9)
        assert prob.oracle_value is None
        # and the spec holds no other oracle data, only the gradient's
        # Lipschitz constant
        assert [field.name for field in dataclasses.fields(prob)] == [
            "name", "manifold", "value_and_grad", "oracle_value", "lipschitz"]

    def test_dimension_checks(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            procrustes(rng.standard_normal((3, 4)), rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            procrustes(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            procrustes(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))



class TestOutOfRange:
    """An instance whose scaled matrix or optimal value overflows is a
    ``ValueError`` naming ``A``; building one raises no numpy warning (the
    suite turns warnings into errors)."""

    def test_rayleigh_whose_doubled_matrix_overflows(self):
        # before this check -2 A warned and a run recorded f = -inf
        with pytest.raises(ValueError, match="A is out of range: -2 A is not finite"):
            make_instance("rayleigh", (5,), seed=0, conditioning=1.79e308)

    def test_brockett_whose_optimal_value_overflows(self):
        with pytest.raises(ValueError, match="A is out of range: the optimal value"):
            make_instance("brockett", (4, 3), seed=0, conditioning=1.7e308)

    def test_procrustes_whose_doubled_matrix_overflows(self):
        with pytest.raises(ValueError, match="A is out of range: 2 A is not finite"):
            procrustes(np.full((6, 2), 1e308), np.ones((6, 1)))

    def test_procrustes_whose_optimal_value_overflows(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="A or B is out of range: the optimal value"):
            procrustes(rng.standard_normal((6, 3)) * 1e200, rng.standard_normal((6, 3)))

    @pytest.mark.parametrize("build", [rayleigh, lambda a: brockett(a, [1.0, 2.0])])
    def test_non_finite_symmetric_matrix(self, build):
        # a NaN passed the symmetry test, which no comparison with NaN fails
        with pytest.raises(ValueError, match="A must be finite"):
            build(np.diag([1.0, np.nan, 3.0]))

    def test_largest_conditioning_draws_a_finite_matrix(self):
        # the spectrum's interior products overflow at the float limit; its
        # last entry is the limit itself
        a = symmetric_instance(0, 4, np.finfo(float).max)
        assert np.all(np.isfinite(a))


class TestLipschitz:
    """``ProblemSpec.lipschitz`` is the Lipschitz constant of the ambient
    gradient, read from the spectral data each problem already has, and
    ``None`` when it overflows; building such a problem raises no numpy
    warning (the suite turns warnings into errors)."""

    @pytest.mark.parametrize("conditioning", [1.0, 10.0, 1000.0, 1e300])
    def test_drawn_instances_read_the_spectrum(self, conditioning):
        # linspace(1, conditioning, n) ends on conditioning exactly
        ray = make_instance("rayleigh", (7,), seed=2, conditioning=conditioning)
        brock = make_instance("brockett", (7, 3), seed=2, conditioning=conditioning)
        assert ray.lipschitz == 2.0 * conditioning
        assert brock.lipschitz == 2.0 * conditioning * 3.0

    def test_given_matrices_read_their_eigenvalues(self):
        # the largest eigenvalue in magnitude is the negative one
        a = symmetric_from_spectrum(np.random.default_rng(3), np.array([-9.0, 0.5, 4.0]))
        expected = 2.0 * np.max(np.abs(np.linalg.eigvalsh(a)))
        assert rayleigh(a).lipschitz == pytest.approx(expected, rel=1e-14)
        assert brockett(a, [1.0, 2.5]).lipschitz == pytest.approx(2.5 * expected, rel=1e-14)

    def test_procrustes_reads_the_largest_singular_value(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 20))
        sigma = np.linalg.svd(a, compute_uv=False)[0]
        prob = procrustes(a, rng.standard_normal((30, 5)))
        assert prob.lipschitz == pytest.approx(2.0 * sigma * sigma, rel=1e-12)

    @pytest.mark.parametrize("name,dims", [("rayleigh", (6,)), ("brockett", (6, 3)),
                                           ("procrustes", (6, 3, 8))])
    def test_bounds_the_gradient_and_is_attained(self, name, dims):
        prob = make_instance(name, dims, seed=4)
        rng = np.random.default_rng(6)
        n = prob.manifold.ambient_dim
        ratios = []
        for _ in range(200):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            change = prob.value_and_grad(x)[1] - prob.value_and_grad(y)[1]
            ratios.append(np.linalg.norm(change) / np.linalg.norm(x - y))
        assert max(ratios) <= prob.lipschitz * (1.0 + 1e-12)
        # a random pair reaches a good part of L; power iteration reaches it
        x = rng.standard_normal(n)
        for _ in range(500):
            x = prob.value_and_grad(x)[1] - prob.value_and_grad(np.zeros(n))[1]
            x /= np.linalg.norm(x)
        change = prob.value_and_grad(x)[1] - prob.value_and_grad(np.zeros(n))[1]
        assert np.linalg.norm(change) == pytest.approx(prob.lipschitz, rel=1e-9)

    def test_overflowing_constant_is_none(self):
        # each problem is valid, and its doubled matrix and oracle are finite
        c = 8e307
        assert rayleigh(np.array([[c, c], [c, c]])).lipschitz is None
        assert brockett(np.diag([1.0, 100.0]), [1e307]).lipschitz is None
        # A^T A overflows although 2 A does not
        assert procrustes(np.full((3, 2), 1e200), np.ones((3, 1))).lipschitz is None

    def test_zero_gradient_has_zero_constant(self):
        assert procrustes(np.zeros((3, 2)), np.ones((3, 1))).lipschitz == 0.0
        assert rayleigh(np.zeros((3, 3))).lipschitz == 0.0


class TestGradientConsistency:
    @pytest.mark.parametrize(
        "name,dims",
        [("rayleigh", (6,)), ("brockett", (5, 2)), ("procrustes", (4, 3, 6))],
    )
    def test_ambient_gradient_matches_finite_differences(self, name, dims):
        prob = make_instance(name, dims, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = prob.manifold.random_point(rng)
            fd = ambient_fd_gradient(lambda point: prob.value_and_grad(point)[0], q)
            exact = prob.value_and_grad(q)[1]
            np.testing.assert_allclose(
                exact, fd, rtol=1e-6, atol=1e-6 * (1.0 + np.max(np.abs(fd)))
            )

    @staticmethod
    def assert_float_values(prob, rng):
        for scale in (1.0, 1.3):  # on the manifold and off it
            for _ in range(10):
                q = scale * prob.manifold.random_point(rng)
                f_val, grad = prob.value_and_grad(q)
                assert type(f_val) is float
                assert grad.shape == q.shape

    @pytest.mark.parametrize("name,dims", [
        ("rayleigh", (7,)), ("rayleigh", (100,)), ("brockett", (7, 3)),
        ("brockett", (20, 5)), ("procrustes", (5, 5, 8)), ("procrustes", (7, 3, 9)),
        ("procrustes", (20, 5, 30)),
    ])
    def test_value_is_a_float_on_generated_instances(self, name, dims):
        self.assert_float_values(make_instance(name, dims, seed=19), np.random.default_rng(21))

    def test_value_is_a_float_on_file_loaded_instances(self, tmp_path):
        for prob in file_instances(tmp_path):
            self.assert_float_values(prob, np.random.default_rng(22))


def bits(array):
    """The exact bits of a float or float array."""
    return np.asarray(array, dtype=float).tobytes()


def file_instances(tmp_path):
    """Problems built from matrices written to and read back from text files."""
    rng = np.random.default_rng(20)
    paths = {}
    sym = rng.standard_normal((6, 6))
    for label, matrix in (("sym", sym + sym.T), ("a", rng.standard_normal((9, 6))),
                          ("b", rng.standard_normal((9, 3)))):
        paths[label] = tmp_path / f"{label}.txt"
        np.savetxt(paths[label], matrix)
    a_sym = load_matrix(paths["sym"])
    return [rayleigh(a_sym), brockett(a_sym, np.arange(1.0, 4.0)),
            procrustes(load_matrix(paths["a"]), load_matrix(paths["b"]))]


class TestValueAndGrad:
    """The gradients of ``value_and_grad`` are the bits of the textbook
    product forms."""

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_round_as_the_product_forms(self, seed, tmp_path):
        # (A X) 2 mu is bit-equal to ((2 A) X) N, the hoisted 2 A^T to the
        # per-call 2.0 * A^T, and the hoisted -2 A to -2 (A v), with
        # f = <v, G> / 2 the bits of -v^T (A v)
        rng = np.random.default_rng(seed)
        for n in (7, 100):
            sym = rng.standard_normal((n, n))
            path = tmp_path / f"a{n}.txt"
            np.savetxt(path, symmetric_instance(seed, n, conditioning=30.0), fmt="%.17g")
            for a in (sym + sym.T, load_matrix(path)):
                for scale in (1.0, 1e150, 1e-150):
                    a_scaled = scale * a
                    prob = rayleigh(a_scaled)
                    for radius in (1.0, 1.3):  # on the sphere and off it
                        for _ in range(10):
                            q = radius * prob.manifold.random_point(rng)
                            f_val, grad = prob.value_and_grad(q)
                            aq = a_scaled @ q
                            assert float.hex(f_val) == float.hex(-float(q @ aq))
                            assert bits(grad) == bits(-2.0 * aq)
        sym = rng.standard_normal((20, 20))
        a_sym = sym + sym.T
        mu = np.arange(1.0, 6.0)
        a, b = rng.standard_normal((30, 20)), rng.standard_normal((30, 5))
        for prob, product in (
            (brockett(a_sym, mu), lambda x: 2.0 * a_sym @ x @ np.diag(mu)),
            (procrustes(a, b), lambda x: 2.0 * a.T @ (a @ x - b)),
        ):
            manifold = prob.manifold
            for _ in range(10):
                q = manifold.random_point(rng)
                expected = manifold.from_matrix(product(matrix(manifold, q)))
                assert bits(prob.value_and_grad(q)[1]) == bits(expected)

    @pytest.mark.parametrize("n,m,l", [(20, 5, 30), (3, 3, 5), (6, 2, 9)])
    def test_procrustes_value_is_np_sum(self, n, m, l):
        # the value reduces A X - B, computed as the package computes it, as
        # np.sum does; the default shape and two others
        rng = np.random.default_rng(n * 100 + m * 10 + l)
        a, b = rng.standard_normal((l, n)), rng.standard_normal((l, m))
        prob = procrustes(a, b)
        for scale in (1.0, 1.3, 1e100):
            for _ in range(20):
                q = scale * prob.manifold.random_point(rng)
                res = a.dot(q.reshape(m, n).T)
                res -= b
                expected = float(np.sum(res * res))
                assert float.hex(prob.value_and_grad(q)[0]) == float.hex(expected)


class TestColumnMajorReference:
    """The Stiefel objectives read a flat point row-major, as ``X^T``; their
    values and gradients are the bits of the column-major formulas on ``X``
    (``reference_geometry``)."""

    @pytest.mark.parametrize("n,m", [(2, 1), (6, 2), (7, 3), (5, 5), (20, 5)])
    def test_brockett_and_procrustes(self, n, m):
        rng = np.random.default_rng(46)
        # symmetric_instance is symmetric only to rounding, so A and A^T differ
        a_sym = symmetric_instance(47, n, conditioning=30.0)
        mu = np.arange(1.0, m + 1.0)
        a, b = rng.standard_normal((n + 3, n)), rng.standard_normal((n + 3, m))
        for prob, reference in (
            (brockett(a_sym, mu), lambda st, q: column_major_brockett(st, a_sym, mu, q)),
            (procrustes(a, b), lambda st, q: column_major_procrustes(st, a, b, q)),
        ):
            st = prob.manifold
            for scale in (1.0, 1.3):  # on the manifold and off it
                for _ in range(10):
                    q = scale * st.random_point(rng)
                    f_val, grad = prob.value_and_grad(q)
                    ref_val, ref_grad = reference(st, q)
                    assert bits(f_val) == bits(ref_val)
                    assert np.array_equal(grad, ref_grad)


class TestEigenvalueOracle:
    """The Rayleigh and Brockett oracles of drawn instances read the
    eigenvalues alone, from the spectrum the instance was drawn from; they
    agree with the values an ``eigh`` decomposition of the drawn matrix
    gives to within its rounding."""

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_values_match_an_eigh_reference(self, seed):
        # the CLI's default instances: rayleigh n=100 and brockett 20 x 5
        values = np.linalg.eigh(symmetric_instance(seed, 100, 10.0))[0]
        assert abs(make_instance("rayleigh", (100,), seed).oracle_value
                   + values[-1]) <= 1e-12
        values = np.linalg.eigh(symmetric_instance(seed, 20, 10.0))[0]
        mu = np.arange(1.0, 6.0)
        assert abs(make_instance("brockett", (20, 5), seed).oracle_value
                   - np.sum(mu * values[4::-1])) <= 1e-12


class TestSpectralOracle:
    """A drawn Rayleigh or Brockett instance takes its oracle from the
    spectrum it was drawn from, with no factorization; it lies within
    ``eigvalsh``'s rounding of the value that matrix alone gives."""

    def test_drawn_instances_factor_nothing(self, monkeypatch):
        def factorization(*args, **kwargs):
            raise AssertionError("a drawn instance was factored")
        monkeypatch.setattr(np.linalg, "eigvalsh", factorization)
        monkeypatch.setattr(np.linalg, "eigh", factorization)
        make_instance("rayleigh", (100,), seed=0)
        make_instance("brockett", (20, 5), seed=0)

    @pytest.mark.parametrize("conditioning", [1.0, 10.0, 1000.0])
    def test_oracles_are_the_spectral_closed_forms(self, conditioning):
        spectrum = np.linspace(1.0, conditioning, 20)
        brockett_value = float(np.sum(np.arange(1.0, 6.0) * spectrum[4::-1]))
        for seed in range(3):
            # linspace ends on conditioning exactly
            assert make_instance("rayleigh", (100,), seed, conditioning).oracle_value \
                == -conditioning
            assert make_instance("brockett", (20, 5), seed, conditioning).oracle_value \
                == brockett_value

    @pytest.mark.parametrize("name,dims,conditioning,seeds", [
        ("rayleigh", (100,), 10.0, range(10)),
        ("rayleigh", (100,), 1000.0, range(10)),
        ("brockett", (20, 5), 10.0, range(10)),
        ("brockett", (20, 5), 1000.0, range(10)),
        ("brockett", (50, 10), 1000.0, range(10)),
        ("rayleigh", (1000,), 10.0, [0]),
    ])
    def test_oracle_matches_eigvalsh_on_the_same_matrix(self, name, dims, conditioning,
                                                        seeds):
        for seed in seeds:
            a = symmetric_instance(seed, dims[0], conditioning)
            reference = (rayleigh(a) if name == "rayleigh"
                         else brockett(a, np.arange(1.0, dims[1] + 1.0))).oracle_value
            drawn = make_instance(name, dims, seed, conditioning).oracle_value
            assert abs(drawn - reference) <= 1e-13 * abs(reference)

    @pytest.mark.parametrize("eigenvalues", [[1.0, 2.0], [3.0, 2.0, 1.0]])
    def test_eigenvalues_must_be_an_ascending_spectrum(self, eigenvalues):
        a = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="eigenvalues must be the ascending spectrum"):
            rayleigh(a, eigenvalues=eigenvalues)
        with pytest.raises(ValueError, match="eigenvalues must be the ascending spectrum"):
            brockett(a, [1.0, 2.0], eigenvalues=eigenvalues)


class TestOracleLocalOptimality:
    @pytest.mark.parametrize(
        "name,dims",
        [("rayleigh", (6,)), ("brockett", (5, 2)), ("procrustes", (3, 3, 5))],
    )
    def test_oracle_minimizer_locally_minimal(self, name, dims):
        prob = make_instance(name, dims, seed=13)
        rng = np.random.default_rng(14)
        base = instance_minimizer(name, dims, seed=13)
        f_star = prob.value_and_grad(base)[0]
        assert abs(f_star - prob.oracle_value) <= 1e-10
        for _ in range(50):
            xi = random_tangent(prob.manifold, base, rng)
            nudged, _ = prob.manifold.retract(base, 1e-3 * xi)
            assert f_star <= prob.value_and_grad(nudged)[0] + 1e-9


class TestInstanceGeneration:
    def test_reproducible_per_seed(self):
        a = symmetric_instance(17, 8, 25.0)
        b = symmetric_instance(17, 8, 25.0)
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(symmetric_instance(18, 8, 25.0) - a)) > 1e-6

    def test_conditioning_controls_spread(self):
        a = symmetric_instance(0, 10, 50.0)
        values = np.linalg.eigvalsh(a)
        assert values[0] == pytest.approx(1.0, rel=1e-8)
        assert values[-1] == pytest.approx(50.0, rel=1e-8)

    def test_prescribed_spectrum(self):
        spectrum = np.array([0.5, 1.5, 4.0])
        a = symmetric_from_spectrum(np.random.default_rng(1), spectrum)
        values = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(values, spectrum, atol=1e-10)

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            make_instance("knapsack", (4,), seed=0)

    @pytest.mark.parametrize("conditioning", [3.0, 10.0])
    @pytest.mark.parametrize("n", [7, 20, 100])
    def test_instances_draw_the_symmetric_instance(self, n, conditioning):
        for seed in range(5):
            # the matrix as make_instance first drew it
            rng = np.random.default_rng(seed)
            spectrum = np.linspace(1.0, conditioning, n)
            a = symmetric_from_spectrum(rng, spectrum)
            expected = (rayleigh(a), brockett(a, np.arange(1.0, 3.0)))
            drawn = (make_instance("rayleigh", (n,), seed, conditioning),
                     make_instance("brockett", (n, 2), seed, conditioning))
            # the oracles of the spectrum drawn: -lambda_n and mu_1 lambda_2 + mu_2 lambda_1
            spectral = (-conditioning, float(np.sum(np.arange(1.0, 3.0) * spectrum[1::-1])))
            for new, old, value in zip(drawn, expected, spectral):
                assert new.oracle_value == value
                # eigvalsh on the same matrix agrees to its rounding
                assert abs(new.oracle_value - old.oracle_value) <= 1e-13 * abs(old.oracle_value)
                # the objective at a seeded point pins the matrix
                q = new.manifold.random_point(np.random.default_rng(seed + 30))
                (new_f, new_grad), (old_f, old_grad) = new.value_and_grad(q), old.value_and_grad(q)
                assert float.hex(new_f) == float.hex(old_f)
                np.testing.assert_array_equal(new_grad, old_grad)

    @pytest.mark.parametrize("name,dims,reason", [
        ("rayleigh", (0,), "n must be at least 2"),
        ("rayleigh", (-3,), "n must be at least 2"),
        ("rayleigh", (2, 3), "expected (n), not a list of length 2"),
        ("brockett", (5,), "expected (n, m), not a list of length 1"),
        ("brockett", (3, 4), "m must satisfy 1 <= m <= n"),
        ("brockett", (3, 0), "m must satisfy 1 <= m <= n"),
        ("procrustes", (3, 4, 5), "m must satisfy 1 <= m <= n"),
        ("procrustes", (3, 3, 3), "l must satisfy l >= n and l > m"),
        ("procrustes", (4, 2, 3), "l must satisfy l >= n and l > m"),
        ("rayleigh", (3.0,), "every entry must be an integer"),
        ("brockett", (4, True), "every entry must be an integer"),
        ("rayleigh", (10**12,), "its 1000000000000 x 1000000000000 matrix would have "
                                "more than MAX_INSTANCE_ENTRIES = 100000000 entries"),
        ("procrustes", (3, 3, 10**11), "its 100000000000 x 3 matrix would have"),
    ])
    def test_dims_checked_before_drawing(self, name, dims, reason, monkeypatch):
        # nothing is drawn, so a huge instance is refused at once
        def no_draw(*args):
            raise AssertionError("drew an instance")
        monkeypatch.setattr(problems, "symmetric_instance", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError) as info:
            make_instance(name, dims, seed=0)
        assert str(info.value).startswith(f"{name} dims {list(dims)!r}: {reason}")

    def test_instance_budget_counts_the_largest_matrix(self, monkeypatch):
        # n x n for rayleigh and brockett, l x n for procrustes
        assert MAX_INSTANCE_ENTRIES == 10**8
        monkeypatch.setattr(problems, "MAX_INSTANCE_ENTRIES", 36)
        make_instance("rayleigh", (6,))
        make_instance("brockett", (6, 2))
        make_instance("procrustes", (4, 2, 9))
        for name, dims in (("rayleigh", (7,)), ("brockett", (7, 2)),
                           ("procrustes", (4, 2, 10))):
            with pytest.raises(ValueError, match="MAX_INSTANCE_ENTRIES = 36"):
                make_instance(name, dims)

    def test_numpy_integer_dims_are_accepted(self):
        drawn = make_instance("brockett", (np.int64(6), np.int32(2)), seed=3)
        expected = make_instance("brockett", (6, 2), seed=3)
        assert drawn.oracle_value == expected.oracle_value
        assert drawn.manifold.name == "stiefel:6,2"

    @pytest.mark.parametrize("conditioning", [0.5, -1.0, float("nan")])
    def test_conditioning_below_one_rejected(self, conditioning):
        with pytest.raises(ValueError, match="conditioning"):
            symmetric_instance(0, 4, conditioning)
        for name, dims in (("rayleigh", (4,)), ("brockett", (4, 2))):
            with pytest.raises(ValueError, match="conditioning"):
                make_instance(name, dims, seed=0, conditioning=conditioning)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        a = np.array([[1.0, 2.5, -3.0], [0.25, 0.0, 9.0]])
        path = tmp_path / "matrix.txt"
        path.write_text(
            "\n".join(" ".join(f"{v!r}" for v in row.tolist()) for row in a) + "\n"
        )
        np.testing.assert_array_equal(load_matrix(path), a)

    def test_single_row(self, tmp_path):
        path = tmp_path / "row.txt"
        path.write_text("1.0 2.0 3.0\n")
        assert load_matrix(path).shape == (1, 3)

    @pytest.mark.parametrize("text", ["", "  \n\t\n", "# no data\n"])
    def test_file_without_numbers_is_named(self, tmp_path, text):
        # numpy's loadtxt would warn (an error in this suite) and return an
        # empty array
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the file holds no numbers$"):
            load_matrix(path)

    def test_single_column(self, tmp_path):
        path = tmp_path / "column.txt"
        path.write_text("1.0\n2.0\n3.0\n4.0\n")
        assert load_matrix(path).shape == (4, 1)
