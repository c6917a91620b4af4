import json
import os
import time
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from splinemg import analysis, build_space, cli, datasets, system
from oracles import dense_tensor_design


def run(argv):
    return cli.main([str(a) for a in argv])


def model_spaces(fit_dir):
    """The spline spaces a fit directory's ``report.json`` records."""
    report = json.loads((fit_dir / "report.json").read_text())
    return [build_space(s["lower"], s["upper"], s["level"], s["degree"])
            for s in report["spaces"]]


# an empty file, comments only, and a header line with comments
NO_DATA_TABLES = ["", "# x1 x2 y\n\n# nothing\n", "# generated\nx1 x2 y\n\n"]

BASE_FIT = ["--dim", 2, "--n", 400, "--noise", 0.1, "--seed", 5,
            "--levels", 3, "--lambda", 0.5, "--tol", "1e-9"]


@pytest.fixture()
def fit_dir(tmp_path):
    out = tmp_path / "fit"
    code = run(["fit", *BASE_FIT, "--output", out])
    assert code == cli.EXIT_OK
    return out


DATA_FLAGS = {"--dim", "--n", "--noise", "--seed"}
HIERARCHY_FLAGS = {"--lambda", "--degree", "--nu1", "--nu2"}
SOLVER_FLAGS = {"--tol", "--max-iter", "--precond"}


class TestFlags:
    def test_each_subcommand_accepts_the_flags_it_reads(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        flags = {name: {a.option_strings[-1] for a in sub._actions if a.dest != "help"}
                 for name, sub in commands.items()}
        source = DATA_FLAGS | {"--input"}
        assert flags == {
            "generate": DATA_FLAGS | {"--output"},
            "fit": source | {"--levels"} | HIERARCHY_FLAGS | SOLVER_FLAGS | {"--output", "--grid"},
            "predict": {"--model", "--input", "--output"},
            "analyze": source | {"--levels"} | HIERARCHY_FLAGS | {"--output"},
            "bench": source | HIERARCHY_FLAGS | SOLVER_FLAGS | {"--g-min", "--g-max", "--output"},
        }
        assert sum(map(len, flags.values())) == 49

    @pytest.mark.parametrize("command,flag", [
        *[("generate", f) for f in ("--levels", "--lambda", "--degree", "--tol", "--max-iter",
                                    "--nu1", "--nu2", "--precond", "--dense-cap")],
        *[("analyze", f) for f in ("--tol", "--max-iter", "--precond", "--skip-ssor")],
        ("bench", "--levels"),
        *[(c, "--dense-cap") for c in ("fit", "analyze", "bench")],
    ])
    def test_unread_flag_is_gone(self, tmp_path, capsys, command, flag):
        value = [] if flag == "--skip-ssor" else ["mg-jacobi" if flag == "--precond" else 2]
        with pytest.raises(SystemExit) as exc:
            run([command, "--dim", 1, "--n", 50, flag, *value, "--output", tmp_path / "x"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestGenerate:
    def test_writes_reproducible_file(self, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["generate", "--dim", 2, "--n", 50, "--seed", 9, "--output", f1]) == 0
        assert run(["generate", "--dim", 2, "--n", 50, "--seed", 9, "--output", f2]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        data = np.loadtxt(f1)
        assert data.shape == (50, 3)

    def test_zero_noise_matches_surface(self, tmp_path):
        from splinemg import sigmoid_target

        f = tmp_path / "clean.txt"
        assert run(["generate", "--dim", 2, "--n", 30, "--noise", 0, "--seed", 1,
                    "--output", f]) == 0
        data = np.loadtxt(f)
        npt.assert_allclose(data[:, 2], sigmoid_target(data[:, :2]), atol=1e-15)

    def test_sigmoid_midpoint_value(self):
        from splinemg import sigmoid_target

        x = np.array([[np.sqrt(0.5), np.sqrt(0.5)]])  # |x|^2 / 2 = 0.5
        assert sigmoid_target(x)[0] == pytest.approx(0.5)
        assert sigmoid_target(np.array([[1.0]]))[0] == pytest.approx(1 / (1 + np.exp(-8.0)))


class TestFit:
    def test_artifacts_and_report(self, fit_dir):
        for name in ("report.json", "coefficients.txt", "residuals.txt"):
            assert (fit_dir / name).exists()
        report = json.loads((fit_dir / "report.json").read_text())
        assert report["solver"]["converged"] is True
        assert report["solver"]["method"] == "mgcg"
        assert 0.0 <= report["solver"]["true_relative_residual"] <= 1e-6
        assert report["memory"]["hierarchy_bytes"] > 0
        assert len(report["scaling"]) == 2

    def test_report_objective_equals_library_objective(self, fit_dir):
        from splinemg import LevelOperator, generate_dataset

        report = json.loads((fit_dir / "report.json").read_text())
        cfg = report["config"]
        data = generate_dataset(2, cfg["n"], cfg["noise"], cfg["seed"])
        op = LevelOperator(data, cfg["levels"], cfg["lam"], cfg["degree"])
        alpha = np.loadtxt(fit_dir / "coefficients.txt")  # %.17e round-trips exactly
        objective = report["objective"]
        assert (objective["least_squares"], objective["roughness"]) == op.objective(alpha)

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["fit", *BASE_FIT, "--output", out]) == 0
            outs.append((out / "coefficients.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_report_lists_level_storage(self, fit_dir):
        # P=2, q=3, n=400: one data pass covers 400 * 16 = 6400 window entries;
        # level 2 has 37**2 = 1369 band nonzeros, so levels 1-2 are CSR
        report = json.loads((fit_dir / "report.json").read_text())
        levels = report["hierarchy"]["levels"]
        assert [lv["level"] for lv in levels] == [1, 2, 3]
        assert [lv["size"] for lv in levels] == [25, 49, 121]
        assert [lv["storage"] for lv in levels] == ["csr", "csr", "windows"]
        assert all(lv["stored_bytes"] > 0 for lv in levels)
        assert sum(lv["stored_bytes"] for lv in levels) < report["memory"]["hierarchy_bytes"]

    def test_report_lists_cached_spectral_bounds(self, fit_dir):
        # mg-jacobi smooths levels 2..G, each on its cached bound; level 1 is
        # solved directly and has none
        from splinemg import build_hierarchy, generate_dataset
        from splinemg.multigrid import jacobi_spectral_bound

        report = json.loads((fit_dir / "report.json").read_text())
        bounds = [lv["spectral_bound"] for lv in report["hierarchy"]["levels"]]
        cfg = report["config"]
        hier = build_hierarchy(generate_dataset(2, cfg["n"], cfg["noise"], cfg["seed"]),
                               cfg["levels"], cfg["lam"])
        assert bounds == [None] + [jacobi_spectral_bound(op) for op in hier.levels[1:]]

    @pytest.mark.parametrize("precond", ["none", "mg-ssor"])
    def test_report_spectral_bounds_null_without_chebyshev(self, tmp_path, precond):
        out = tmp_path / precond
        assert run(["fit", *BASE_FIT, "--precond", precond, "--max-iter", 5000,
                    "--output", out]) == cli.EXIT_OK
        levels = json.loads((out / "report.json").read_text())["hierarchy"]["levels"]
        assert [lv["spectral_bound"] for lv in levels] == [None] * 3

    def test_omega_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", *BASE_FIT, "--omega", "0.8", "--output", tmp_path / "x"])
        assert exc.value.code == 2
        assert "--omega" in capsys.readouterr().err

    def test_deterministic_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", *BASE_FIT, "--deterministic", "--output", tmp_path / "x"])
        assert exc.value.code == 2
        assert "--deterministic" in capsys.readouterr().err

    @pytest.mark.parametrize("rows,rank", [
        ([[0.3, 0.7, 1.0]], 1),
        ([[0.1, 0.2, 1.0], [0.5, 0.6, 2.0], [0.9, 1.0, 0.5]], 2),
    ])
    def test_unidentifiable_points_exit_code(self, tmp_path, capsys, rows, rank):
        data_file = tmp_path / "flat.txt"
        np.savetxt(data_file, rows)
        code = run(["fit", "--input", data_file, "--levels", 2, "--output", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        assert f"[1, X] has rank {rank} < 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_constant_coordinate_column_exit_code(self, tmp_path, capsys):
        gen = np.random.default_rng(4)
        rows = np.column_stack([np.full(50, 0.25), gen.random(50), gen.standard_normal(50)])
        data_file = tmp_path / "const.txt"
        np.savetxt(data_file, rows)
        code = run(["fit", "--input", data_file, "--levels", 2, "--output", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        assert "affine subspace of dimension 1" in capsys.readouterr().err

    def test_artifacts_resave_identically_with_savetxt(self, tmp_path):
        out = tmp_path / "g"
        assert run(["fit", *BASE_FIT, "--grid", 4, "--output", out]) == 0
        queries = tmp_path / "q.txt"
        np.savetxt(queries, [[0.5, 0.25], [1.5, 0.5], [0.0, 1.0]])
        assert run(["predict", "--model", out, "--input", queries,
                    "--output", tmp_path / "pred.txt"]) == 0
        assert run(["generate", "--dim", 2, "--n", 30, "--output", tmp_path / "gen.txt"]) == 0
        artifacts = [(out / "coefficients.txt", "%.17e")] + [
            (path, "%.17g") for path in (out / "residuals.txt", out / "grid.txt",
                                         tmp_path / "pred.txt", tmp_path / "gen.txt")
        ]
        for path, fmt in artifacts:
            text = path.read_text()
            header = text.splitlines()[0][2:] if text.startswith("# ") else ""
            resaved = tmp_path / "resaved.txt"
            np.savetxt(resaved, np.loadtxt(path), fmt=fmt, header=header)
            assert resaved.read_bytes() == path.read_bytes(), path.name

    def test_round_trip_predictions_match_residuals(self, fit_dir, tmp_path):
        report = json.loads((fit_dir / "report.json").read_text())
        resid_table = np.loadtxt(fit_dir / "residuals.txt")
        pts_file = tmp_path / "train_pts.txt"
        np.savetxt(pts_file, resid_table[:, :2], fmt="%.17g")
        preds_file = tmp_path / "preds.txt"
        assert run(["predict", "--model", fit_dir, "--input", pts_file,
                    "--output", preds_file]) == 0
        preds = np.loadtxt(preds_file)[:, 2]
        # fitted value + residual must reconstruct the training response
        from splinemg import generate_dataset

        cfg = report["config"]
        data = generate_dataset(2, cfg["n"], cfg["noise"], cfg["seed"])
        npt.assert_allclose(preds + resid_table[:, 2], data.responses, atol=1e-12)

    def test_file_input_with_scaling(self, tmp_path):
        data_file = tmp_path / "scaled.csv"
        gen = np.random.default_rng(3)
        pts = gen.uniform(-5.0, 7.0, size=(300, 2))
        y = np.sin(pts[:, 0] / 3.0) + pts[:, 1] / 10.0
        np.savetxt(data_file, np.column_stack([pts, y]), delimiter=",", fmt="%.10g")
        out = tmp_path / "fit_scaled"
        assert run(["fit", "--input", data_file, "--levels", 3, "--lambda", "1e-3",
                    "--output", out]) == 0
        report = json.loads((out / "report.json").read_text())
        scale = report["scaling"]
        assert scale[0]["lo"] == pytest.approx(pts[:, 0].min())
        assert scale[0]["hi"] == pytest.approx(pts[:, 0].max())
        # raw-coordinate predictions stay close to the responses
        pred_file = tmp_path / "p.txt"
        np.savetxt(tmp_path / "q.txt", pts[:20], fmt="%.10g")
        assert run(["predict", "--model", out, "--input", tmp_path / "q.txt",
                    "--output", pred_file]) == 0
        preds = np.loadtxt(pred_file)[:, 2]
        assert np.sqrt(np.mean((preds - y[:20]) ** 2)) < 0.2

    def test_malformed_input_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.1 0.2 1.0\n0.3 oops 2.0\n")
        code = run(["fit", "--input", bad, "--output", tmp_path / "o"])
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "2" in err  # offending row named

    def test_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "nc"
        code = run(["fit", *BASE_FIT[:-2], "--tol", "1e-13", "--max-iter", 2,
                    "--precond", "none", "--output", out])
        assert code == cli.EXIT_NO_CONVERGENCE

    def test_tolerance_below_rounding_floor_warns(self, tmp_path, capsys):
        # P=1, G=12: penalty entries near 1e11 put the floor far above 1e-8;
        # the fit still converges by its recursive residual and exits 0
        out = tmp_path / "floor"
        code = run(["fit", "--dim", 1, "--n", 20_000, "--seed", 0, "--levels", 12,
                    "--tol", "1e-8", "--output", out])
        assert code == cli.EXIT_OK
        solver = json.loads((out / "report.json").read_text())["solver"]
        assert solver["rounding_floor"] > 1e-8
        assert solver["true_relative_residual"] <= solver["rounding_floor"]
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "rounding floor" in err

    def test_tolerance_above_rounding_floor_is_quiet(self, fit_dir, capsys):
        solver = json.loads((fit_dir / "report.json").read_text())["solver"]
        assert 0.0 < solver["rounding_floor"] < 1e-9  # BASE_FIT's --tol
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("lam,code,true_residual", [
        ("1e13", cli.EXIT_OK, 0.132),
        ("1e15", cli.EXIT_NO_CONVERGENCE, 2.87),
        ("1e18", cli.EXIT_NO_CONVERGENCE, 10.6),
    ])
    def test_no_convergence_worse_than_zero_vector(self, tmp_path, capsys, lam, code,
                                                   true_residual):
        # lam swamps the data term below the rounding floor; CG's recursive
        # residual still reaches --tol, but at 1e15 and 1e18 the iterate is
        # worse than the zero vector
        out = tmp_path / "l"
        assert run(["fit", "--dim", 2, "--n", 300, "--levels", 3, "--lambda", lam,
                    "--output", out]) == code
        solver = json.loads((out / "report.json").read_text())["solver"]
        assert solver["converged"] is (code == cli.EXIT_OK)
        assert solver["true_relative_residual"] == pytest.approx(true_residual, rel=0.01)
        err = capsys.readouterr().err
        if code == cli.EXIT_OK:
            assert "did not converge" not in err
        else:
            assert f"residual below 1, which is {true_residual:.3g}" in err

    def test_too_many_levels_exit_code_before_allocating(self, tmp_path, capsys):
        start = time.perf_counter()
        code = run(["fit", "--dim", 1, "--n", 300, "--levels", 40, "--output", tmp_path / "g"])
        assert code == cli.EXIT_CAPACITY
        assert time.perf_counter() - start < 10.0
        assert "level 40 has 1099511627779 coefficients" in capsys.readouterr().err

    def test_failed_nested_coarse_solve_exit_code(self, tmp_path, capsys, monkeypatch):
        # level 1 (49 unknowns) has condition number near 1e14: the nested
        # CG that replaces Cholesky under a DENSE_CAP of 1 ends worse than zero
        monkeypatch.setattr(system, "DENSE_CAP", 1)
        code = run(["fit", "--dim", 2, "--n", 3000, "--seed", 3, "--levels", 2,
                    "--lambda", "1e-8", "--degree", 5, "--output", tmp_path / "coarse"])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "level 1 (size 49)" in err and "DENSE_CAP = 1" in err

    def test_overflowing_lambda_exit_code(self, tmp_path, capsys):
        code = run(["fit", "--dim", 2, "--n", 300, "--levels", 3, "--lambda", "1e308",
                    "--output", tmp_path / "l"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("error: smoothing parameter 1e+308 overflows the "
                                           "level-3 operator: lam times the penalty exceeds "
                                           "the double range\n")

    @pytest.mark.parametrize("n,lam,swamped", [
        (300, "1e20", "data term lies below the rounding of the penalty"),
        (300, "1e300", "data term lies below the rounding of the penalty"),
        (20, "1e-30", "penalty lies below the rounding of the data term"),
    ])
    def test_swamping_lambda_exit_code(self, tmp_path, capsys, n, lam, swamped):
        code = run(["fit", "--dim", 2, "--n", n, "--levels", 3, "--lambda", lam,
                    "--output", tmp_path / "l"])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "coarse factorization failed on level 1" in err and swamped in err

    def test_capacity_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(system, "DENSE_CAP", 10)
        code = run(["fit", *BASE_FIT, "--precond", "mg-ssor", "--output", tmp_path / "cap"])
        assert code == cli.EXIT_CAPACITY

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (10**9,)")

        monkeypatch.setattr(cli, "mgcg_solve", exhausted)
        code = run(["fit", *BASE_FIT, "--output", tmp_path / "m"])
        assert code == cli.EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.startswith("capacity error: out of memory.") and err.count("\n") == 1

    def test_smootherless_vcycle_exit_code(self, tmp_path, capsys):
        code = run(["fit", *BASE_FIT, "--nu1", 0, "--nu2", 0, "--output", tmp_path / "s"])
        assert code == cli.EXIT_CONFIG
        assert "needs nu1 + nu2 > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "analyze"])
    @pytest.mark.parametrize("nu1,nu2", [(2, 0), (1, 3)])
    def test_unequal_sweeps_exit_code(self, tmp_path, capsys, command, nu1, nu2):
        out = tmp_path / "u"
        code = run([command, *BASE_FIT[:-2], "--nu1", nu1, "--nu2", nu2, "--output", out])
        assert code == cli.EXIT_CONFIG
        assert f"nu1={nu1} and nu2={nu2}: CG needs a nonsingular, symmetric" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_plain_cg_reads_no_sweep_count(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out, nu2 in zip(outs, (0, 2)):
            assert run(["fit", *BASE_FIT, "--precond", "none", "--max-iter", 1000,
                        "--nu1", 2, "--nu2", nu2, "--output", out]) == cli.EXIT_OK
        assert (outs[0] / "coefficients.txt").read_bytes() == (
            outs[1] / "coefficients.txt").read_bytes()

    def test_config_exit_code(self, tmp_path):
        code = run(["fit", *BASE_FIT[:-4], "--lambda", "-1", "--output", tmp_path / "c"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("text", NO_DATA_TABLES, ids=["empty", "comments", "header"])
    def test_input_without_data_rows_exit_code(self, tmp_path, capsys, text):
        table = tmp_path / "d.txt"
        table.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fit", "--input", table, "--output", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        assert f"{table}: no data rows" in capsys.readouterr().err
        assert not caught

    def test_delimiter_only_first_line_exit_code(self, tmp_path, capsys):
        table = tmp_path / "d.txt"
        table.write_text("# x1,x2,y\n,,\n0.1,0.2,1.0\n")
        code = run(["fit", "--input", table, "--output", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        assert f"{table}: line 2 holds delimiters but no values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "generate", "bench"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, command):
        levels = ["--levels", 2] if command == "fit" else []  # only fit reads --levels
        code = run([command, "--dim", 1, "--n", 50, "--seed", -1, *levels,
                    "--output", tmp_path / "s"])
        assert code == cli.EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "generate"])
    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exit_code(self, tmp_path, capsys, command, noise):
        out = tmp_path / "n"
        levels = ["--levels", 2] if command == "fit" else []  # only fit reads --levels
        code = run([command, "--dim", 1, "--n", 50, *levels, "--noise", noise,
                    "--output", out])
        assert code == cli.EXIT_CONFIG
        assert "--noise must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exit_code(self, tmp_path, capsys, lam):
        code = run(["fit", *BASE_FIT[:-4], "--lambda", lam, "--output", tmp_path / "l"])
        assert code == cli.EXIT_CONFIG
        assert "--lambda must be finite and positive" in capsys.readouterr().err

    def test_linear_degree_rejected_before_data_work(self, tmp_path, monkeypatch, capsys):
        def no_data(cfg):
            raise AssertionError("data loaded before the degree check")

        monkeypatch.setattr(cli, "_load_points", no_data)
        code = run(["fit", *BASE_FIT, "--degree", 1, "--output", tmp_path / "d"])
        assert code == cli.EXIT_CONFIG
        assert "smoothing requires degrees in 2..5" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_help_states_degree_range(self, capsys):
        with pytest.raises(SystemExit):
            run(["fit", "--help"])
        assert "spline degree (2..5)" in capsys.readouterr().out

    def test_plain_cg_precond_none(self, tmp_path):
        out = tmp_path / "plain"
        assert run(["fit", *BASE_FIT, "--precond", "none", "--max-iter", 5000,
                    "--output", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solver"]["method"] == "cg"

    def test_grid_export(self, tmp_path):
        out = tmp_path / "g"
        assert run(["fit", *BASE_FIT, "--grid", 5, "--output", out]) == 0
        grid = np.loadtxt(out / "grid.txt")
        assert grid.shape == (25, 3)
        corners = grid[:, :2]
        assert corners.min() == 0.0 and corners.max() == 1.0
        ref = dense_tensor_design(model_spaces(out), corners) @ np.loadtxt(out / "coefficients.txt")
        npt.assert_allclose(grid[:, 2], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_grid_block_borders_keep_bytes(self, tmp_path, monkeypatch):
        grids = []
        for rows in (datasets.BLOCK_ROWS, 7):
            monkeypatch.setattr(datasets, "BLOCK_ROWS", rows)
            out = tmp_path / f"g{rows}"
            assert run(["fit", *BASE_FIT, "--grid", 6, "--output", out]) == 0
            grids.append((out / "grid.txt").read_bytes())
        assert grids[0] == grids[1]
        axes = np.meshgrid(*[np.linspace(0.0, 1.0, 6)] * 2, indexing="ij")
        points = np.loadtxt(tmp_path / "g7" / "grid.txt")[:, :2]
        npt.assert_array_equal(points, np.stack([a.ravel() for a in axes], axis=1))


class TestPredict:
    def test_block_borders_keep_bytes_and_outside_count(self, fit_dir, tmp_path, capsys,
                                                         monkeypatch):
        queries = np.random.default_rng(8).random((60, 2))
        queries[[3, 17, 40]] = [[1.2, 0.5], [0.5, -0.1], [2.0, 2.0]]  # blocks 0, 2 and 5 at 7
        np.savetxt(tmp_path / "q.txt", queries, fmt="%.17g")
        outputs = []
        for rows in (datasets.BLOCK_ROWS, 7):
            monkeypatch.setattr(datasets, "BLOCK_ROWS", rows)
            out = tmp_path / f"p{rows}.txt"
            assert run(["predict", "--model", fit_dir, "--input", tmp_path / "q.txt",
                        "--output", out]) == cli.EXIT_OK
            outputs.append((out.read_bytes(), capsys.readouterr().err))
        assert outputs[0] == outputs[1]
        assert outputs[1][1] == "3 point(s) outside the fitted box; their predictions are nan\n"

    def test_non_finite_coordinate_in_last_block_writes_nothing(self, fit_dir, tmp_path,
                                                                 capsys, monkeypatch):
        monkeypatch.setattr(datasets, "BLOCK_ROWS", 7)
        queries = np.random.default_rng(9).random((60, 2))
        queries[58, 1] = np.inf
        np.savetxt(tmp_path / "q.txt", queries, fmt="%.17g")
        out = tmp_path / "p.txt"
        assert run(["predict", "--model", fit_dir, "--input", tmp_path / "q.txt",
                    "--output", out]) == cli.EXIT_CONFIG
        assert "1 point(s) with non-finite coordinates, first offending rows [58]" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_memory_does_not_grow_with_the_query_count(self, tmp_path):
        # the query table, its scaled copy and the inside mask are the only
        # whole-table arrays; evaluating and formatting one block at a time
        # needs temporaries that do not grow with the row count, while
        # evaluating every query at once needs about 20 table sizes
        model = tmp_path / "fit"
        assert run(["fit", "--dim", 1, "--n", 2000, "--levels", 5, "--output", model]) == 0
        table = np.random.default_rng(10).random((200_000, 1)) * 1.02 - 0.01
        np.savetxt(tmp_path / "q.txt", table, fmt="%.17g")
        tracemalloc.start()
        try:
            code = run(["predict", "--model", model, "--input", tmp_path / "q.txt",
                        "--output", tmp_path / "p.txt"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert peak < 3 * table.nbytes + 3 * 2**20

    def test_points_outside_fitted_box_get_nan(self, fit_dir, tmp_path, capsys):
        both, alone = tmp_path / "both.txt", tmp_path / "alone.txt"
        np.savetxt(both, [[0.5, 0.5], [1.5, 0.5]])
        np.savetxt(alone, [[0.5, 0.5]])
        for name in ("both", "alone"):
            assert run(["predict", "--model", fit_dir, "--input", tmp_path / f"{name}.txt",
                        "--output", tmp_path / f"{name}_pred.txt"]) == cli.EXIT_OK
        assert "1 point(s) outside" in capsys.readouterr().err
        preds = np.loadtxt(tmp_path / "both_pred.txt")
        npt.assert_array_equal(preds[:, :2], [[0.5, 0.5], [1.5, 0.5]])
        assert preds[0, 2] == np.loadtxt(tmp_path / "alone_pred.txt")[2]
        assert np.isnan(preds[1, 2])

    def test_predictions_match_dense_design_outside_rows_nan(self, fit_dir, tmp_path, capsys):
        queries = np.random.default_rng(7).random((60, 2))
        rows = [3, 17, 40]
        queries[rows] = [[1.2, 0.5], [0.5, -0.1], [2.0, 2.0]]
        queries[5] = 1.0  # on both upper bounds
        queries[6, 1] = 1.0
        np.savetxt(tmp_path / "q.txt", queries, fmt="%.17g")
        assert run(["predict", "--model", fit_dir, "--input", tmp_path / "q.txt",
                    "--output", tmp_path / "p.txt"]) == cli.EXIT_OK
        assert "3 point(s) outside the fitted box" in capsys.readouterr().err
        preds = np.loadtxt(tmp_path / "p.txt")[:, 2]
        outside = np.isin(np.arange(60), rows)
        assert np.isnan(preds[outside]).all() and np.isfinite(preds[~outside]).all()
        alpha = np.loadtxt(fit_dir / "coefficients.txt")
        ref = dense_tensor_design(model_spaces(fit_dir), queries[~outside]) @ alpha
        npt.assert_allclose(preds[~outside], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_query_at_training_maximum_is_finite_beyond_is_nan(self, tmp_path, capsys):
        gen = np.random.default_rng(11)
        pts = gen.uniform(-5.0, 7.0, size=(300, 2))
        data_file = tmp_path / "d.txt"
        np.savetxt(data_file, np.column_stack([pts, np.sin(pts[:, 0]) + pts[:, 1]]))
        out = tmp_path / "fit"
        assert run(["fit", "--input", data_file, "--levels", 3, "--output", out]) == 0
        top = pts.max(axis=0)
        # one ulp past the maximum can round back onto it in the rescaling
        beyond = top[0] + 1e-12 * (top[0] - pts[:, 0].min())
        queries = tmp_path / "q.txt"
        np.savetxt(queries, [top, [beyond, top[1]]], fmt="%.17g")
        preds_file = tmp_path / "p.txt"
        assert run(["predict", "--model", out, "--input", queries,
                    "--output", preds_file]) == cli.EXIT_OK
        preds = np.loadtxt(preds_file)[:, 2]
        assert np.isfinite(preds[0]) and np.isnan(preds[1])
        assert "1 point(s) outside" in capsys.readouterr().err

    @pytest.mark.parametrize("text", NO_DATA_TABLES, ids=["empty", "comments", "header"])
    def test_input_without_data_rows_exit_code(self, fit_dir, tmp_path, capsys, text):
        queries = tmp_path / "q.txt"
        queries.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["predict", "--model", fit_dir, "--input", queries,
                        "--output", tmp_path / "p.txt"])
        assert code == cli.EXIT_CONFIG
        assert f"{queries}: no data rows" in capsys.readouterr().err
        assert not caught

    def test_delimiter_only_first_line_exit_code(self, fit_dir, tmp_path, capsys):
        queries = tmp_path / "q.txt"
        queries.write_text(",,\n0.5,0.5\n")
        code = run(["predict", "--model", fit_dir, "--input", queries,
                    "--output", tmp_path / "p.txt"])
        assert code == cli.EXIT_CONFIG
        assert f"{queries}: line 1 holds delimiters but no values" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,key", [
        (lambda r: {}, "'spaces' is missing"),
        (lambda r: {**r, "spaces": []}, "'spaces' must be a non-empty list"),
        (lambda r: {**r, "spaces": [{**r["spaces"][0], "level": "3"}, r["spaces"][1]]},
         "'spaces[0].level' must be an integer, got '3'"),
        (lambda r: {**r, "spaces": [r["spaces"][0], {**r["spaces"][1], "level": 2.5}]},
         "'spaces[1].level' must be an integer, got 2.5"),
        (lambda r: {**r, "spaces": [{**r["spaces"][0], "degree": 9}, r["spaces"][1]]},
         "'spaces[0]': degree must be in 1..5"),
        (lambda r: {**r, "scaling": [r["scaling"][0], {"lo": 0.0}]},
         "'scaling[1].hi' is missing"),
        (lambda r: {**r, "scaling": r["scaling"][:1]}, "'scaling' has 1 entries for 2 spaces"),
        (lambda r: {**r, "scaling": [r["scaling"][0], {"lo": 0.5, "hi": 0.5}]},
         "'scaling[1]' must be finite with lo < hi, got {'lo': 0.5, 'hi': 0.5}"),
        (lambda r: {**r, "scaling": [{"lo": 1.0, "hi": 0.0}, r["scaling"][1]]},
         "'scaling[0]' must be finite with lo < hi"),
        (lambda r: {**r, "scaling": [{"lo": float("nan"), "hi": 1.0}, r["scaling"][1]]},
         "'scaling[0]' must be finite with lo < hi"),
        (lambda r: {**r, "scaling": [r["scaling"][0], {"lo": 0.0, "hi": float("inf")}]},
         "'scaling[1]' must be finite with lo < hi"),
        # JSON integers beyond the double range
        (lambda r: {**r, "scaling": [{"lo": 0, "hi": 10**400}, r["scaling"][1]]},
         "'scaling[0].hi' must be a finite number"),
        (lambda r: {**r, "spaces": [{**r["spaces"][0], "upper": 10**400}, r["spaces"][1]]},
         "'spaces[0].upper' must be a finite number"),
        # levels that cannot match the 121 coefficients, refused before the
        # 2**level knots are allocated
        (lambda r: {**r, "spaces": [{**r["spaces"][0], "level": 40}, r["spaces"][1]]},
         "'spaces[0].level' is 40"),
        (lambda r: {**r, "spaces": [r["spaces"][0], {**r["spaces"][1], "level": 60}]},
         "'spaces[1].level' is 60"),
    ], ids=["empty", "no-spaces", "str-level", "float-level", "degree", "no-hi", "short",
            "empty-scaling", "reversed-scaling", "nan-scaling", "inf-scaling", "huge-hi",
            "huge-upper", "level-40", "level-60"])
    def test_malformed_model_exit_code(self, fit_dir, tmp_path, capsys, edit, key):
        report = json.loads((fit_dir / "report.json").read_text())
        model = tmp_path / "model"
        model.mkdir()
        (model / "report.json").write_text(json.dumps(edit(report)))
        (model / "coefficients.txt").write_bytes((fit_dir / "coefficients.txt").read_bytes())
        queries = tmp_path / "q.txt"
        queries.write_text("0.5 0.5\n")
        code = run(["predict", "--model", model, "--input", queries,
                    "--output", tmp_path / "p.txt"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err  # one line naming the file and the key
        assert err.startswith(f"error: {model / 'report.json'}: key {key}") and err.count("\n") == 1

    def test_model_report_not_json_exit_code(self, fit_dir, tmp_path):
        (fit_dir / "report.json").write_text('{"spaces": [')
        queries = tmp_path / "q.txt"
        queries.write_text("0.5 0.5\n")
        code = run(["predict", "--model", fit_dir, "--input", queries,
                    "--output", tmp_path / "p.txt"])
        assert code == cli.EXIT_IO

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_exit_code(self, fit_dir, tmp_path, capsys, bad):
        path = fit_dir / "coefficients.txt"
        lines = path.read_text().splitlines()
        lines[3] = bad
        path.write_text("\n".join(lines) + "\n")
        queries = tmp_path / "q.txt"
        queries.write_text("0.5 0.5\n")
        code = run(["predict", "--model", fit_dir, "--input", queries,
                    "--output", tmp_path / "p.txt"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}: data line 4 holds {float(bad)}, not a finite coefficient\n")
        assert not (tmp_path / "p.txt").exists()

    def test_two_column_coefficient_file_exit_code(self, fit_dir, tmp_path, capsys):
        path = fit_dir / "coefficients.txt"
        alpha = np.loadtxt(path)
        np.savetxt(path, np.column_stack([alpha, alpha]), fmt="%.17e")
        queries = tmp_path / "q.txt"
        queries.write_text("0.5 0.5\n")
        code = run(["predict", "--model", fit_dir, "--input", queries,
                    "--output", tmp_path / "p.txt"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}: expected one coefficient per line, got 2 columns\n")

    def test_non_finite_coordinates_exit_code(self, fit_dir, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_text("0.5 0.5\nnan 0.5\n")
        code = run(["predict", "--model", fit_dir, "--input", queries,
                    "--output", tmp_path / "p.txt"])
        assert code == cli.EXIT_CONFIG


class TestAnalyze:
    def test_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run(["analyze", "--dim", 1, "--levels", 3, "--n", 300, "--seed", 2,
                    "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["operators"]["plain"]["condition_number"] > 1.0
        assert payload["spectral_radius"] < 1.0
        assert "mg-jacobi" in payload["operators"]

    def test_config_echoes_the_dimension_of_the_input(self, tmp_path):
        data = tmp_path / "d.txt"
        assert run(["generate", "--dim", 1, "--n", 300, "--seed", 2, "--output", data]) == 0
        out = tmp_path / "a.json"
        assert run(["analyze", "--input", data, "--levels", 3, "--output", out]) == 0
        assert json.loads(out.read_text())["config"]["dim"] == 1

    def test_radius_is_the_propagator_radius(self, tmp_path):
        # read from the mg-jacobi spectrum: I - M^-1 A has the eigenvalues 1 - eig(M^-1 A)
        out = tmp_path / "a.json"
        flags = ["--dim", "2", "--levels", "3", "--n", "300", "--seed", "2"]
        assert run(["analyze", *flags, "--output", out]) == 0
        cfg = cli._config_from_args(cli.build_parser().parse_args(["analyze", *flags]))
        hier = cfg.hierarchy(cli._load_points(cfg)[0])
        rho = analysis.spectral_radius(analysis.iteration_matrix(hier))
        assert json.loads(out.read_text())["spectral_radius"] == pytest.approx(rho, rel=1e-10)


class TestBench:
    def test_emits_iterations_table(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        assert run(["bench", "--dim", 1, "--n", 500, "--seed", 4, "--g-min", 2,
                    "--g-max", 4, "--output", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["G", "K", "cg_iters", "cg_seconds",
                                        "mgcg_iters", "mgcg_seconds"]
        assert len(lines) == 4
        rows = [ln.split("\t") for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == [2, 3, 4]
        for r in rows:
            assert int(r[4]) <= int(r[2])  # mgcg never needs more iterations

    def test_precond_none_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        code = run(["bench", "--dim", 1, "--n", 500, "--g-min", 2, "--g-max", 3,
                    "--precond", "none", "--output", out])
        assert code == cli.EXIT_CONFIG
        assert "choose mg-jacobi or mg-ssor" in capsys.readouterr().err
        assert not out.exists()

    def test_unequal_sweeps_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        code = run(["bench", "--dim", 1, "--n", 500, "--g-min", 2, "--g-max", 3,
                    "--nu1", 2, "--nu2", 0, "--output", out])
        assert code == cli.EXIT_CONFIG
        assert "nu1=2 and nu2=0" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_solves_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        code = run(["bench", "--dim", 1, "--n", 500, "--g-min", 2, "--g-max", 3,
                    "--max-iter", 2, "--output", out])
        assert code == cli.EXIT_NO_CONVERGENCE
        assert len(out.read_text().strip().splitlines()) == 3  # the table is still written
        err = capsys.readouterr().err
        for g in (2, 3):
            for label in ("cg", "mgcg"):
                assert f"G={g}: {label} did not reach the tolerance" in err
