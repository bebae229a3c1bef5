"""End-to-end tests of the benchmark runner CLI."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bregopt.bregman import BregmanParams
from bregopt.cli import (
    CSV_COLUMNS,
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_OK,
    METHOD_KEYS,
    _order_check_system,
    build_run_config,
    main,
    spherical_pendulum_lagrangian,
)
from bregopt.dynamics import constrained_lagrangian_map, project_momentum
from bregopt.manifolds import NEWTON_TOL, Sphere
from bregopt.optimizers import METHODS, RunConfig

from reference_geometry import random_tangent


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def minimal_run_config(tmp_path, out_name="out"):
    return write_config(
        tmp_path,
        {
            "problem": {"name": "rayleigh", "dims": [3], "seed": 1},
            "methods": [
                {"method": "rgd", "label": "rgd", "h": 0.1, "max_iters": 10,
                 "stop_f_tol": 1e-300, "stop_grad_tol": 1e-300}
            ],
            "output_dir": str(tmp_path / out_name),
        },
    )


class TestRun:
    def test_minimal_run_row_count(self, tmp_path):
        config = minimal_run_config(tmp_path)
        assert main(["run", "--config", config]) == EXIT_OK
        lines = (tmp_path / "out" / "rgd.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 12  # header + k = 0..10
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("10,")

    def test_reruns_are_byte_identical(self, tmp_path):
        config = minimal_run_config(tmp_path)
        main(["run", "--config", config])
        first = (tmp_path / "out" / "rgd.csv").read_bytes()
        main(["run", "--config", config])
        assert (tmp_path / "out" / "rgd.csv").read_bytes() == first

    def test_five_method_benchmark_layout(self, tmp_path):
        methods = []
        for name in ("htvi_direct", "htvi_adaptive", "el_v1", "el_v2", "rgd"):
            methods.append({
                "method": name, "label": name, "p": 6.0, "h": 0.001,
                "max_iters": 25, "stop_f_tol": 1e-300, "stop_grad_tol": 1e-300,
            })
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "dims": [8], "seed": 2},
                "methods": methods,
                "output_dir": str(tmp_path / "fig"),
            },
        )
        assert main(["run", "--config", config]) == EXIT_OK
        for name in ("htvi_direct", "htvi_adaptive", "el_v1", "el_v2", "rgd"):
            lines = (tmp_path / "fig" / f"{name}.csv").read_text().splitlines()
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert len(lines) == 27

    def test_out_flag_overrides_directory(self, tmp_path):
        config = minimal_run_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["run", "--config", config, "--out", str(other)]) == EXIT_OK
        assert (other / "rgd.csv").exists()

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_methods_is_config_error(self, tmp_path):
        config = write_config(tmp_path, {"problem": {"name": "rayleigh", "dims": [3]}})
        assert main(["run", "--config", config]) == EXIT_CONFIG

    def test_unknown_method_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "dims": [3]},
                "methods": [{"method": "adamw"}],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert_config_error(capsys, ["run", "--config", config],
                            "unknown method 'adamw'")

    def test_failed_run_truncates_csv_and_exits_nonzero(self, tmp_path):
        from bregopt.cli import EXIT_NUMERICAL

        # over-aggressive adaptive target exponent destabilizes the run
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "dims": [10], "seed": 7},
                "methods": [{"method": "htvi_adaptive", "label": "bad", "p": 6.0,
                             "p_ring": 2.0, "h": 1e-3, "max_iters": 100000,
                             "stop_f_tol": 1e-300, "stop_grad_tol": 1e-300}],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["run", "--config", config]) == EXIT_NUMERICAL
        lines = (tmp_path / "out" / "bad.csv").read_text().splitlines()
        assert len(lines) < 100001
        assert "nan" in lines[-1]

    def test_failed_block_leaves_failure_row_and_later_blocks_run(self, tmp_path):
        from bregopt.cli import EXIT_NUMERICAL

        # an over-aggressive adaptive target exponent loses the multiplier
        # root in step 517
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "dims": [10], "seed": 7},
                "methods": [
                    {"method": "htvi_adaptive", "label": "bad", "p": 6.0, "p_ring": 2.0,
                     "max_iters": 1000, "stop_f_tol": 1e-300, "stop_grad_tol": 1e-300},
                    {"method": "rgd", "label": "next", "h": 0.01, "max_iters": 50,
                     "stop_f_tol": 1e-300, "stop_grad_tol": 1e-300},
                ],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["run", "--config", config]) == EXIT_NUMERICAL
        lines = (tmp_path / "out" / "bad.csv").read_text().splitlines()
        assert len(lines) == 519  # header, k = 0..516, failure row
        assert lines[-1] == "517,nan,nan,nan,nan,,"
        assert len((tmp_path / "out" / "next.csv").read_text().splitlines()) == 52

    def test_newton_tol_above_feasibility_tolerance_is_config_error(self, tmp_path, capsys):
        # the multiplier solve's tolerance is the manifold constant, under
        # FEAS_TOL, so a block cannot set one the iterates would then fail
        block = {"max_iters": 5, "stop_f_tol": 1e-300, "stop_grad_tol": 1e-300}
        for method in ("htvi_direct", "el_v1"):
            config = write_config(
                tmp_path,
                {
                    "problem": {"name": "brockett", "dims": [6, 2], "seed": 0},
                    "methods": [dict(block, method=method, newton_tol=1e-6)],
                    "output_dir": str(tmp_path / "out"),
                },
            )
            assert main(["run", "--config", config]) == EXIT_CONFIG
            assert "unknown key 'newton_tol'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "brockett", "dims": [6, 2], "seed": 0},
                "methods": [dict(block, method="htvi_direct", label="default")],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["run", "--config", config]) == EXIT_OK
        rows = (tmp_path / "out" / "default.csv").read_text().splitlines()[1:]
        column = CSV_COLUMNS.index("constraint_violation")
        assert len(rows) == 6
        assert max(float(row.split(",")[column]) for row in rows) <= NEWTON_TOL

    def test_matrix_file_input(self, tmp_path):
        a = np.diag([1.0, 2.0, 5.0])
        matrix_path = tmp_path / "a.txt"
        matrix_path.write_text("\n".join(" ".join(str(v) for v in row) for row in a))
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "file": str(matrix_path), "seed": 1},
                "methods": [{"method": "rgd", "label": "rgd", "h": 0.1,
                             "max_iters": 200, "stop_f_tol": 1e-8}],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["run", "--config", config]) == EXIT_OK
        final = (tmp_path / "out" / "rgd.csv").read_text().splitlines()[-1]
        assert abs(float(final.split(",")[2]) - (-5.0)) <= 1e-6

    def test_one_column_matrix_file_is_a_column(self, tmp_path):
        # procrustes with m = 1: a file of one number per line is B's column
        rng = np.random.default_rng(2)
        np.savetxt(tmp_path / "a.txt", rng.standard_normal((4, 3)))
        np.savetxt(tmp_path / "b.txt", rng.standard_normal((4, 1)))
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "procrustes", "file": str(tmp_path / "a.txt"),
                            "file_b": str(tmp_path / "b.txt")},
                "methods": [{"method": "rgd", "label": "rgd", "max_iters": 5}],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["run", "--config", config]) == EXIT_OK
        assert len((tmp_path / "out" / "rgd.csv").read_text().splitlines()) == 7


class TestCompare:
    def test_identical_blocks_identical_traces(self, tmp_path):
        block = {"method": "rgd", "h": 0.1, "max_iters": 15,
                 "stop_f_tol": 1e-300, "stop_grad_tol": 1e-300}
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "dims": [5], "seed": 3},
                "methods": [dict(block, label="first"), dict(block, label="second")],
                "output_dir": str(tmp_path / "cmp"),
            },
        )
        assert main(["compare", "--config", config]) == EXIT_OK
        rows = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1:]
        first = [r.split(",", 1)[1] for r in rows if r.startswith("first,")]
        second = [r.split(",", 1)[1] for r in rows if r.startswith("second,")]
        assert first == second

    def test_svg_has_one_polyline_per_method(self, tmp_path):
        methods = [
            {"method": "rgd", "label": "rgd", "h": 0.1, "max_iters": 20},
            {"method": "el_v1", "label": "el1", "p": 4.0, "h": 0.01, "max_iters": 20},
            {"method": "htvi_direct", "label": "ht", "p": 4.0, "h": 0.01, "max_iters": 20},
        ]
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "dims": [5], "seed": 4},
                "methods": methods,
                "output_dir": str(tmp_path / "cmp"),
            },
        )
        assert main(["compare", "--config", config]) == EXIT_OK
        svg = (tmp_path / "cmp" / "compare.svg").read_text()
        assert svg.count("<polyline") == 3
        for label in ("rgd", "el1", "ht"):
            assert f">{label}</text>" in svg

    def test_oracle_free_problem_plots_raw_objective(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "procrustes", "dims": [4, 2, 6], "seed": 5},
                "methods": [
                    {"method": "rgd", "label": "a", "h": 0.01, "max_iters": 10},
                    {"method": "rgd", "label": "b", "h": 0.02, "max_iters": 10},
                ],
                "output_dir": str(tmp_path / "cmp"),
            },
        )
        assert main(["compare", "--config", config]) == EXIT_OK
        svg = (tmp_path / "cmp" / "compare.svg").read_text()
        assert ">f</text>" in svg
        # no oracle: the combined CSV has empty error fields
        row = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1]
        assert row.split(",")[6] == ""

    def test_single_block_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "dims": [4], "seed": 0},
                "methods": [{"method": "rgd"}],
                "output_dir": str(tmp_path / "cmp"),
            },
        )
        assert_config_error(capsys, ["compare", "--config", config],
                            "at least two method blocks")
        assert not (tmp_path / "cmp").exists()

    def test_no_plot_flag(self, tmp_path):
        # the config's plot key is the one plot switch, so the outputs are a
        # function of the config alone
        block = {"method": "rgd", "h": 0.1, "max_iters": 5}
        config = write_config(
            tmp_path,
            {
                "problem": {"name": "rayleigh", "dims": [4], "seed": 0},
                "methods": [dict(block, label="x"), dict(block, label="y")],
                "output_dir": str(tmp_path / "cmp"),
                "plot": False,
            },
        )
        assert main(["compare", "--config", config]) == EXIT_OK
        assert not (tmp_path / "cmp" / "compare.svg").exists()
        assert (tmp_path / "cmp" / "compare.csv").exists()
        for command in ("compare", "run"):
            with pytest.raises(SystemExit) as info:
                main([command, "--config", config, "--no-plot"])
            assert info.value.code == 2


# First 16 hex digits of the sha256 of the states after each step of the
# order-check systems (numpy 2.4 with single-threaded OpenBLAS on x86-64, as
# tests/conftest.py pins it), keyed by system, step count and step size.
ORDER_CHECK_DIGESTS = {
    ("quadratic", 80, 0.0125): "f45eb148326f35f7",
    ("quadratic", 8000, 1.25e-4): "56d1c8bac52f642d",
    ("spherical_pendulum", 80, 0.0125): "8017e2bcf3b36ece",
    ("spherical_pendulum", 8000, 1.25e-4): "346452406f12f576",
}


class TestOrderCheck:
    @pytest.mark.parametrize("name,steps,h", sorted(ORDER_CHECK_DIGESTS))
    def test_trajectories_are_bit_identical(self, name, steps, h):
        step, state = _order_check_system(name)
        states = []
        for _ in range(steps):
            state = step(state, h)
            states.append(state)
        digest = hashlib.sha256(np.concatenate(states).tobytes()).hexdigest()[:16]
        assert digest == ORDER_CHECK_DIGESTS[name, steps, h]

    def test_quadratic_first_order_passes(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "system": "quadratic",
                "h_list": [0.1, 0.05, 0.025],
                "duration": 0.5,
                "expected_rate": [0.85, 1.15],
                "output_dir": str(tmp_path / "oc"),
            },
        )
        assert main(["order-check", "--config", config]) == EXIT_OK
        table = (tmp_path / "oc" / "order_check.csv").read_text().splitlines()
        assert table[0] == "h,error"
        assert table[-1].startswith("fitted_rate,")

    def test_wrong_interval_fails_with_rate_printed(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "system": "quadratic",
                "h_list": [0.1, 0.05, 0.025],
                "duration": 0.5,
                "expected_rate": [3.0, 4.0],
                "output_dir": str(tmp_path / "oc"),
            },
        )
        assert main(["order-check", "--config", config]) == EXIT_ACCEPTANCE
        out = capsys.readouterr().out
        assert "fitted rate" in out and "fail" in out

    def test_noise_floor_fails_with_nan_rate(self, tmp_path, capsys):
        # steps this small leave every error below the noise floor, so each
        # point is dropped, no rate is fitted and the check fails; each drop
        # is one line of the report, not a Python warning
        config = write_config(
            tmp_path,
            {
                "system": "quadratic",
                "h_list": [1e-12, 5e-13, 2.5e-13],
                "duration": 1e-12,
                "expected_rate": [0.5, 1.5],
                "output_dir": str(tmp_path / "oc"),
            },
        )
        assert main(["order-check", "--config", config]) == EXIT_ACCEPTANCE
        out, err = capsys.readouterr()
        assert "fitted rate nan" in out
        lines = err.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert line.startswith("order-check: error ")
            assert line.endswith("; dropping this point")
            assert "below the noise floor" in line
        assert "UserWarning" not in err and "dynamics.order_check" not in err
        table = (tmp_path / "oc" / "order_check.csv").read_text()
        assert table == "h,error\nfitted_rate,nan\n"

    def test_unknown_system_is_config_error(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "system": "triple_pendulum",
                "h_list": [0.1, 0.05, 0.025],
                "expected_rate": [1.0, 2.0],
            },
        )
        assert main(["order-check", "--config", config]) == EXIT_CONFIG

    def test_pendulum_step_projects_the_momentum(self):
        # the order-check step is the constrained map followed by the
        # momentum projection, bit for bit
        step, state = _order_check_system("spherical_pendulum")
        sphere, lagrangian = Sphere(3), spherical_pendulum_lagrangian()
        rng = np.random.default_rng(4)
        for h in (0.1, 0.01, 1e-3):
            q = sphere.random_point(rng)
            p = 1.5 * random_tangent(sphere, q, rng)
            result = constrained_lagrangian_map(lagrangian, sphere, q, p, h)
            expected = project_momentum(sphere, result.q_next, result.p_next)
            np.testing.assert_array_equal(step(np.concatenate([q, p]), h),
                                          np.concatenate([result.q_next, expected]))
        for _ in range(1000):
            state = step(state, 0.01)
        assert sphere.constraint_violation(state[:3]) <= 1e-10

    def test_quadratic_step_is_explicit_symplectic_euler(self):
        step, initial = _order_check_system("quadratic")
        stiffness = np.array([1.0, 4.0, 9.0])
        rng = np.random.default_rng(3)
        for h in (0.1, 0.05):
            state = rng.standard_normal(6)
            q, p = state[:3], state[3:]
            p_expected = p - h * stiffness * q
            np.testing.assert_array_equal(
                step(state, h), np.concatenate([q + h * p_expected, p_expected])
            )
        assert initial.shape == (6,)

    def test_quadratic_zero_step_is_identity(self):
        step, initial = _order_check_system("quadratic")
        np.testing.assert_array_equal(step(initial, 0.0), initial)

    def test_missing_h_list_is_config_error(self, tmp_path):
        config = write_config(
            tmp_path, {"system": "quadratic", "expected_rate": [0.5, 1.5]}
        )
        assert main(["order-check", "--config", config]) == EXIT_CONFIG


def run_config(tmp_path, problem=None, method=None, **top):
    """A one-block ``run`` config with the given problem and method keys; a
    problem key given as None is left out."""
    problem = {"name": "rayleigh", "dims": [3], "seed": 1, **(problem or {})}
    payload = {
        "problem": {key: value for key, value in problem.items() if value is not None},
        "methods": [{"method": "rgd", "max_iters": 2, **(method or {})}],
        "output_dir": str(tmp_path / "out"),
        **top,
    }
    return write_config(tmp_path, payload)


def order_check_config(tmp_path, **keys):
    payload = {"system": "quadratic", "h_list": [0.1, 0.05, 0.025],
               "duration": 0.5, "expected_rate": [0.85, 1.15],
               "output_dir": str(tmp_path / "oc"), **keys}
    return write_config(tmp_path, payload)


def assert_config_error(capsys, argv, *phrases):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    for phrase in phrases:
        assert phrase in err


class TestMalformedConfig:
    """Malformed input exits with a one-line config error, not a traceback,
    and writes nothing."""

    @pytest.mark.parametrize("problem,phrase", [
        ({"seed": "x"}, "seed"),
        ({"seed": [1]}, "seed"),
        ({"dims": ["six"]}, "six"),
        ({"dims": 6}, "dims must be a list"),
        ({"dims": "66"}, "dims must be a list"),
        ({"dims": [3, 2]}, "bad problem block"),
        ({"conditioning": "high"}, "high"),
        ({"conditioning": 0.5}, "conditioning must be >= 1"),
        # Python's json reads Infinity, which would leave no finite spectrum
        ({"conditioning": math.inf}, "conditioning must be >= 1 and finite"),
        # a number must be a JSON number, not a string or a boolean
        ({"conditioning": "10"}, "conditioning: must be a number, not '10'"),
        ({"conditioning": True}, "conditioning: must be a number, not True"),
        ({"name": ["rayleigh"]}, "unknown problem"),
        ({"file": "missing.txt"}, "bad problem matrix input"),
        # a non-finite entry would give a NaN objective
        ({"file": "nan.txt", "dims": None}, "bad problem matrix input: nan.txt"),
        ({"file": "inf.txt", "dims": None}, "bad problem matrix input: inf.txt"),
        # numpy would warn on an empty file and leave an empty matrix
        ({"file": "empty.txt", "dims": None},
         "bad problem matrix input: empty.txt: the file holds no numbers"),
        # the seed also draws the initial point of a problem read from a file
        ({"seed": -1}, "seed must be a non-negative integer, not -1"),
        ({"file": "a.txt", "dims": None, "seed": -1},
         "seed must be a non-negative integer, not -1"),
    ])
    def test_bad_problem_value(self, tmp_path, capsys, monkeypatch, problem, phrase):
        monkeypatch.chdir(tmp_path)
        np.savetxt("a.txt", np.diag([1.0, 2.0, 3.0]))
        np.savetxt("nan.txt", np.diag([1.0, math.nan, 3.0]))
        np.savetxt("inf.txt", np.diag([1.0, 2.0, math.inf]))
        Path("empty.txt").write_text(" \n")
        for command in ("run", "compare"):
            config = run_config(tmp_path, problem=problem)
            assert_config_error(capsys, [command, "--config", config], phrase)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method,phrase", [
        ({"h": "small"}, "small"),
        ({"h": "0.01"}, "h: must be a number, not '0.01'"),
        ({"p": True}, "p: must be a number, not True"),
        ({"stop_f_tol": False}, "stop_f_tol: must be a number, not False"),
        ({"max_iters": None}, "bad method block"),
        # NaN fails no ordered comparison, so each check is a negated one
        ({"h": math.nan}, "timestep h must be positive"),
        ({"stop_f_tol": math.nan}, "stopping tolerances"),
    ])
    def test_bad_method_value(self, tmp_path, capsys, method, phrase):
        config = run_config(tmp_path, method=method)
        assert_config_error(capsys, ["run", "--config", config], phrase)
        assert not (tmp_path / "out").exists()

    # int() would truncate 2.7 to 2 and true to 1
    @pytest.mark.parametrize("value", [2.7, 2.0, True])
    @pytest.mark.parametrize("key", ["seed", "dims"])
    def test_problem_count_must_be_integer(self, tmp_path, capsys, key, value):
        problem = {"seed": value} if key == "seed" else {"dims": [3, value]}
        for command in ("run", "compare"):
            config = run_config(tmp_path, problem=problem)
            assert_config_error(capsys, [command, "--config", config],
                                key, f"{value!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [2.7, 2.0, True])
    def test_brockett_m_must_be_integer(self, tmp_path, capsys, value):
        matrix_path = tmp_path / "a.txt"
        np.savetxt(matrix_path, np.diag([1.0, 2.0, 3.0, 4.0]))
        config = write_config(tmp_path, {
            "problem": {"name": "brockett", "file": str(matrix_path), "m": value},
            "methods": [{"method": "rgd", "max_iters": 2}],
            "output_dir": str(tmp_path / "out"),
        })
        assert_config_error(capsys, ["run", "--config", config], "m must be an integer",
                            f"{value!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("problem,key", [
        ({"name": "brockett", "m": 3}, "m"),
        ({"name": "rayleigh", "m": 3}, "m"),
        ({"name": "procrustes", "file_b": "b.txt"}, "file_b"),
        ({"name": "brockett", "file_b": "b.txt"}, "file_b"),
        ({"name": "procrustes", "conditioning": 3.0}, "conditioning"),
        ({"name": "rayleigh", "file": "sym.txt", "dims": [4]}, "dims"),
        ({"name": "brockett", "file": "sym.txt", "conditioning": 3.0}, "conditioning"),
        ({"name": "rayleigh", "file": "sym.txt", "m": 2}, "m"),
        ({"name": "rayleigh", "file": "sym.txt", "file_b": "b.txt"}, "file_b"),
        ({"name": "brockett", "file": "sym.txt", "file_b": "b.txt"}, "file_b"),
        ({"name": "procrustes", "file": "a.txt", "file_b": "b.txt", "m": 2}, "m"),
        ({"name": "procrustes", "file": "a.txt", "file_b": "b.txt", "dims": [4, 2, 6]},
         "dims"),
    ])
    def test_problem_key_the_input_does_not_read(self, tmp_path, capsys, problem, key):
        # a key that the input would ignore names a different problem than
        # the one that would run
        rng = np.random.default_rng(3)
        sym = rng.standard_normal((6, 6))  # brockett's default m is 5
        for label, matrix in (("sym", sym + sym.T), ("a", rng.standard_normal((6, 4))),
                              ("b", rng.standard_normal((6, 2)))):
            np.savetxt(tmp_path / f"{label}.txt", matrix)
        problem = {k: str(tmp_path / v) if k.startswith("file") else v
                   for k, v in problem.items()}
        for command in ("run", "compare"):
            config = write_config(tmp_path, {
                "problem": problem,
                "methods": [{"method": "rgd", "max_iters": 2},
                            {"method": "el_v1", "max_iters": 2}],
                "output_dir": str(tmp_path / "out"),
            })
            assert_config_error(capsys, [command, "--config", config],
                                f"problem key {key!r} does not apply to {problem['name']}")
        assert not (tmp_path / "out").exists()
        # without the key the block runs
        del problem[key]
        config = write_config(tmp_path, {
            "problem": problem, "methods": [{"method": "rgd", "max_iters": 2}],
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", "--config", config]) == EXIT_OK

    @pytest.mark.parametrize("value", [2.7, 2.0, True])
    @pytest.mark.parametrize("key", ["max_iters"])
    def test_method_count_must_be_integer(self, tmp_path, capsys, key, value):
        config = run_config(tmp_path, method={key: value})
        assert_config_error(capsys, ["run", "--config", config], key, f"{value!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels,bad", [
        (["x", "x"], "'x'"),
        (["rgd_1", None], "'rgd_1'"),  # the second block's default label
        (["../escaped", "y"], "'../escaped'"),
        (["a,b<&", "y"], "'a,b<&'"),
        (["", "y"], "''"),
        ([5, "y"], "5"),
    ])
    def test_bad_label(self, tmp_path, capsys, labels, bad):
        methods = [{"method": "rgd", "max_iters": 2} for _ in labels]
        for block, label in zip(methods, labels):
            if label is not None:
                block["label"] = label
        config = write_config(tmp_path, {
            "problem": {"name": "rayleigh", "dims": [3], "seed": 1},
            "methods": methods,
            "output_dir": str(tmp_path / "out"),
        })
        for command in ("run", "compare"):
            assert_config_error(capsys, [command, "--config", config],
                                f"method label {bad}")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("plot", ["false", 0, None])
    def test_plot_must_be_boolean(self, tmp_path, capsys, plot):
        block = {"method": "rgd", "max_iters": 2}
        config = write_config(tmp_path, {
            "problem": {"name": "rayleigh", "dims": [3], "seed": 1},
            "methods": [dict(block, label="a"), dict(block, label="b")],
            "output_dir": str(tmp_path / "out"),
            "plot": plot,
        })
        assert_config_error(capsys, ["compare", "--config", config], "'plot'")
        assert not (tmp_path / "out").exists()

    def test_output_dir_must_be_a_path(self, tmp_path, capsys):
        config = run_config(tmp_path, output_dir=5)
        assert_config_error(capsys, ["run", "--config", config], "output_dir")
        (tmp_path / "taken").write_text("a file")
        config = run_config(tmp_path, output_dir=str(tmp_path / "taken"))
        assert_config_error(capsys, ["run", "--config", config], "output directory")

    @pytest.mark.parametrize("keys,phrase", [
        ({"duration": "long"}, "long"),
        ({"duration": 0.0}, "duration"),
        ({"h_list": [0.1, 0.2, 0.05]}, "strictly decreasing"),
        ({"h_list": [0.1, 0.05, 0.05]}, "strictly decreasing"),
        ({"h_list": [0.1, 0.05, 0.0]}, "positive"),
        ({"h_list": [0.1, "x", 0.01]}, "bad order-check config"),
        # a number must be a JSON number, not a string or a boolean
        ({"h_list": [True, 0.05, 0.025]}, "must be a number, not True"),
        ({"h_list": [0.1, "0.05", 0.025]}, "must be a number, not '0.05'"),
        ({"duration": "1"}, "must be a number, not '1'"),
        ({"expected_rate": [True, 1.5]}, "must be a number, not True"),
        ({"expected_rate": [0.5, "1.5"]}, "must be a number, not '1.5'"),
        ({"expected_rate": ["lo", 2.0]}, "lo"),
        # an interval that no rate can meet, rejected before the check runs
        ({"expected_rate": [math.nan, 2.2]}, "with lo <= hi"),
        ({"expected_rate": [1.8, math.nan]}, "with lo <= hi"),
        ({"expected_rate": [2.2, 1.8]}, "with lo <= hi"),
    ])
    def test_bad_order_check_value(self, tmp_path, capsys, keys, phrase):
        config = order_check_config(tmp_path, **keys)
        assert_config_error(capsys, ["order-check", "--config", config], phrase)
        assert not (tmp_path / "oc").exists()

    @pytest.mark.parametrize("block,key", [
        ("problem", "sed"),
        ("method", "momentum_projektion"),
        # keys that no longer change a run are reported, not ignored
        ("method", "momentum_projection"),
        ("method", "seed"),
        # the multiplier solve's tolerance and budget are manifold constants
        ("method", "newton_tol"),
        ("method", "newton_max_iter"),
        ("top", "plots"),
    ])
    def test_unknown_run_key_is_named(self, tmp_path, capsys, block, key):
        extra = {key: 1}
        config = run_config(tmp_path, problem=extra if block == "problem" else None,
                            method=extra if block == "method" else None,
                            **(extra if block == "top" else {}))
        assert_config_error(capsys, ["run", "--config", config], f"unknown key {key!r}")
        assert not (tmp_path / "out").exists()

    def test_unknown_order_check_key_is_named(self, tmp_path, capsys):
        config = order_check_config(tmp_path, h_lsit=[0.1, 0.05, 0.025])
        assert_config_error(capsys, ["order-check", "--config", config],
                            "unknown key 'h_lsit'")

    def test_every_documented_key_is_accepted(self, tmp_path):
        method = {"method": "htvi_direct", "label": "all", "p": 4.0, "p_ring": 3.0,
                  "c_const": 1.0, "lambda_conv": 1.0, "h": 1e-2, "coeff_cap": 1e6,
                  "max_iters": 3, "stop_grad_tol": 1e-12, "stop_f_tol": 1e-12}
        assert set(method) == set(METHOD_KEYS)
        config = run_config(tmp_path, problem={"conditioning": 3.0}, method=method,
                            plot=False)
        assert main(["run", "--config", config]) == EXIT_OK
        assert (tmp_path / "out" / "all.csv").exists()


class TestMethodBlockDefaults:
    @pytest.mark.parametrize("method", METHODS)
    def test_bare_block_is_the_dataclass_defaults(self, method):
        # the CLI supplies only p; every other default is the dataclasses'
        assert build_run_config({"method": method}) == RunConfig(method, BregmanParams(p=6.0))


class TestFloatFormatting:
    def test_seventeen_significant_digits(self, tmp_path):
        from bregopt.cli import _fmt

        value = 1.0 / 3.0
        assert _fmt(value) == f"{value:.17g}"
        assert float(_fmt(value)) == value
        assert _fmt(None) == ""
        assert _fmt(7) == "7"
