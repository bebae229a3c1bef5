"""Tests of the benchmark problems and their oracles."""

import re

import numpy as np
import pytest

from bregopt.problems import (
    brockett,
    load_matrix,
    make_instance,
    procrustes,
    rayleigh,
    symmetric_from_spectrum,
    symmetric_instance,
)

from reference_geometry import random_tangent


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
            riem = prob.manifold.tangent_project(q, prob.ambient_grad(q))
            np.testing.assert_allclose(riem, np.zeros(3), atol=1e-12)

    def test_two_by_two_oracle(self):
        prob = rayleigh(np.diag([1.0, 2.0]))
        assert prob.oracle_value == pytest.approx(-2.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(prob.oracle_point), [0.0, 1.0], atol=1e-10)

    def test_seeded_oracle_consistency(self):
        prob = make_instance("rayleigh", (10,), seed=3)
        assert abs(prob.value_and_grad(prob.oracle_point)[0] - prob.oracle_value) <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            rayleigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestBrockett:
    def test_identity_matrix_is_flat(self):
        prob = brockett(np.eye(4), np.array([1.0, 2.0]))
        rng = np.random.default_rng(4)
        x = prob.manifold.random_point(rng)
        assert prob.value_and_grad(x)[0] == pytest.approx(3.0)
        riem = prob.manifold.tangent_project(x, prob.ambient_grad(x))
        np.testing.assert_allclose(riem, np.zeros(8), atol=1e-12)

    def test_diagonal_oracle_pairing(self):
        # the largest weight pairs with the smallest eigenvalue
        prob = brockett(np.diag([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))
        assert prob.oracle_value == pytest.approx(4.0, abs=1e-12)
        assert abs(prob.value_and_grad(prob.oracle_point)[0] - 4.0) <= 1e-12

    def test_oracle_columns_are_eigenvectors(self):
        prob = make_instance("brockett", (7, 3), seed=5)
        x = prob.manifold.as_matrix(prob.oracle_point)
        # columns must satisfy the eigenvalue equation of the instance matrix
        inst = symmetric_instance(5, 7, 10.0)
        for j in range(3):
            col = x[:, j]
            lam = col @ (inst @ col)
            assert np.linalg.norm(inst @ col - lam * col) <= 1e-8

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
        assert prob.oracle_point is None

    def test_dimension_checks(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            procrustes(rng.standard_normal((3, 4)), rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            procrustes(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            procrustes(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))


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
            exact = prob.ambient_grad(q)
            np.testing.assert_allclose(
                exact, fd, rtol=1e-6, atol=1e-6 * (1.0 + np.max(np.abs(fd)))
            )


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
    """The gradient of ``value_and_grad`` is ``ambient_grad`` bit for bit."""

    @staticmethod
    def assert_agree(prob, rng):
        for scale in (1.0, 1.3):  # on the manifold and off it
            for _ in range(10):
                q = scale * prob.manifold.random_point(rng)
                f_val, grad = prob.value_and_grad(q)
                assert type(f_val) is float
                assert bits(grad) == bits(prob.ambient_grad(q))

    @pytest.mark.parametrize("name,dims", [
        ("rayleigh", (7,)), ("rayleigh", (100,)), ("brockett", (7, 3)),
        ("brockett", (20, 5)), ("procrustes", (5, 5, 8)), ("procrustes", (7, 3, 9)),
        ("procrustes", (20, 5, 30)),
    ])
    def test_generated_instances(self, name, dims):
        self.assert_agree(make_instance(name, dims, seed=19), np.random.default_rng(21))

    def test_file_loaded_instances(self, tmp_path):
        for prob in file_instances(tmp_path):
            self.assert_agree(prob, np.random.default_rng(22))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_round_as_the_product_forms(self, seed):
        # (A X) 2 mu is bit-equal to ((2 A) X) N, and the hoisted 2 A^T to
        # the per-call 2.0 * A^T
        rng = np.random.default_rng(seed)
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
                expected = manifold.from_matrix(product(manifold.as_matrix(q)))
                assert bits(prob.value_and_grad(q)[1]) == bits(expected)


class TestOracleLocalOptimality:
    @pytest.mark.parametrize(
        "name,dims",
        [("rayleigh", (6,)), ("brockett", (5, 2)), ("procrustes", (3, 3, 5))],
    )
    def test_oracle_point_locally_minimal(self, name, dims):
        prob = make_instance(name, dims, seed=13)
        rng = np.random.default_rng(14)
        base = prob.oracle_point
        f_star = prob.value_and_grad(base)[0]
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
            a = symmetric_from_spectrum(rng, np.linspace(1.0, conditioning, n))
            expected = (rayleigh(a), brockett(a, np.arange(1.0, 3.0)))
            drawn = (make_instance("rayleigh", (n,), seed, conditioning),
                     make_instance("brockett", (n, 2), seed, conditioning))
            for new, old in zip(drawn, expected):
                assert new.oracle_value == old.oracle_value
                np.testing.assert_array_equal(new.oracle_point, old.oracle_point)

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
