import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse

from splinemg import (
    CapacityError,
    NumericError,
    ParameterError,
    SolverConfig,
    build_hierarchy,
    build_level,
    cg_solve,
    generate_dataset,
    mgcg_solve,
)
from splinemg import multigrid, system
from splinemg.multigrid import preconditioner
from splinemg.solvers import _pcg
from splinemg.system import BandPattern, LevelOperator
from splinemg.tensorops import stored_bytes
from oracles import DenseOperator, dense_jacobi_vcycle, dense_ssor_vcycle


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-8
        assert cfg.resolved_max_iterations(400) == 200
        assert cfg.resolved_max_iterations(10**9) == 50_000

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"tolerance": 1.5},
        {"max_iterations": 0},
        {"preconditioner": "ilu"},
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"max_iterations": np.float64(10.0)},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SolverConfig(**kwargs)


class TestPlainCg:
    def test_clustered_spectrum_converges_immediately(self, rng):
        op = DenseOperator(5.0 * np.eye(30))
        rep = cg_solve(op, rng.standard_normal(30), SolverConfig(preconditioner="none"))
        assert rep.converged and rep.iterations <= 2

    def test_matches_dense_direct_solve(self, small_dataset_1d):
        op = build_level(small_dataset_1d, 3, 1.0)
        b = op.rhs()
        rep = cg_solve(op, b, SolverConfig(tolerance=1e-12, preconditioner="none"))
        ref = np.linalg.solve(op.assemble_dense(), b)
        assert np.linalg.norm(rep.coefficients - ref) <= 1e-7 * np.linalg.norm(ref)
        assert rep.converged

    def test_zero_rhs(self, small_dataset_1d):
        op = build_level(small_dataset_1d, 2, 1.0)
        rep = cg_solve(op, np.zeros(op.size))
        assert rep.iterations == 0 and rep.converged
        npt.assert_array_equal(rep.coefficients, np.zeros(op.size))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_refused_before_any_product(self, small_dataset_2d, bad,
                                                        monkeypatch):
        op = build_level(small_dataset_2d, 3, 1.0)
        b = op.rhs()
        b[4] = bad

        def no_product(*_):
            raise AssertionError("cg_solve took a product")

        monkeypatch.setattr(op, "apply", no_product)
        monkeypatch.setattr(op, "abs_apply", no_product)
        with pytest.raises(ParameterError,
                           match=rf"right-hand side must be finite, b\[4\] is {bad}"):
            cg_solve(op, b)

    def test_monotone_energy_norm_error(self, small_dataset_1d):
        op = build_level(small_dataset_1d, 3, 1.0)
        a = op.assemble_dense()
        b = op.rhs()
        x_star = np.linalg.solve(a, b)
        energies = []
        for k in range(1, 9):
            rep = cg_solve(op, b, SolverConfig(max_iterations=k, preconditioner="none"))
            e = rep.coefficients - x_star
            energies.append(e @ a @ e)
        assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(energies, energies[1:]))

    def test_residual_recurrence_consistency(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 3, 1.0)
        b = op.rhs()
        rep = cg_solve(op, b, SolverConfig(tolerance=1e-9, preconditioner="none", max_iterations=5000))
        true_res = np.linalg.norm(b - op.apply(rep.coefficients))
        assert abs(true_res - rep.residual_history[-1]) <= 1e-6 * np.linalg.norm(b)

    def test_divergence_raises_with_iteration_index(self, rng):
        class BadOperator:
            size = 8

            def apply(self, x, out=None):
                return np.full(8, np.nan)

        with pytest.raises(NumericError) as err:
            cg_solve(BadOperator(), rng.standard_normal(8))
        assert err.value.iteration == 0


class TestTrueResidual:
    @pytest.mark.parametrize("precond,levels", [("none", 5), ("mg-jacobi", 5), ("mg-jacobi", 9)])
    def test_matches_dense_recomputation(self, precond, levels, small_dataset_1d):
        hier = build_hierarchy(small_dataset_1d, levels, 1.0)
        op = hier.finest
        cfg = SolverConfig(tolerance=1e-8, max_iterations=1000, preconditioner=precond)
        rep = (cg_solve(op, op.rhs(), cfg) if precond == "none"
               else mgcg_solve(hier, cfg=cfg))
        assert rep.converged
        a, b, x = op.assemble_dense(), op.rhs(), rep.coefficients
        ref = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        # both sides round A x; they may differ by its rounding floor
        floor = np.finfo(float).eps * np.linalg.norm(np.abs(a) @ np.abs(x)) / np.linalg.norm(b)
        assert abs(rep.true_relative_residual - ref) <= floor
        if levels == 9:
            # penalty entries reach 3.6e8: the recursive residual drifts far
            # below the true one, which only the recomputation shows
            assert rep.true_relative_residual > 10 * rep.final_relative_residual

    def test_zero_rhs(self, small_dataset_1d):
        op = build_level(small_dataset_1d, 3, 1.0)
        assert cg_solve(op, np.zeros(op.size)).true_relative_residual == 0.0


class TestGridIndependence:
    def test_p3_mg_jacobi_counts_stay_flat(self):
        # P=3, n=20k: mg-jacobi MGCG counts over G=3..5 (29, 27 and 29 when
        # measured), held to criterion 04's spread bound
        data = generate_dataset(3, 20_000, 0.1, seed=0)
        cfg = SolverConfig(tolerance=1e-8, preconditioner="mg-jacobi")
        reports = [mgcg_solve(build_hierarchy(data, g, 1.0), cfg=cfg) for g in (3, 4, 5)]
        assert all(r.converged for r in reports)
        counts = [r.iterations for r in reports]
        assert max(counts) - min(counts) <= 3, counts


class TestMgcg:
    def test_agrees_with_plain_cg(self, small_dataset_2d):
        hier = build_hierarchy(small_dataset_2d, 4, 1.0)
        cfg = SolverConfig(tolerance=1e-10, max_iterations=10_000)
        mg = mgcg_solve(hier, cfg=cfg)
        plain = cg_solve(hier.finest, hier.finest.rhs(), cfg)
        assert mg.converged and plain.converged
        diff = np.linalg.norm(mg.coefficients - plain.coefficients)
        assert diff <= 1e-6 * np.linalg.norm(plain.coefficients)
        assert mg.iterations <= plain.iterations

    def test_identity_preconditioner_reproduces_plain_cg(self, small_dataset_2d):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)
        # the preconditioned loop with the identity map ("none") and the
        # preconditioner-free loop take the same steps
        cfg = SolverConfig(tolerance=1e-10, max_iterations=2000, preconditioner="none")
        op = hier.finest
        plain = cg_solve(op, op.rhs(), cfg)
        identity, stored = preconditioner(hier, "none")
        assert stored == 0
        ident = _pcg(op, op.rhs(), lambda r: identity(r).copy(), cfg.tolerance,
                     cfg.max_iterations, aux_bytes=0, label="mgcg")
        assert ident.iterations == plain.iterations
        npt.assert_allclose(ident.coefficients, plain.coefficients, atol=1e-12)
        npt.assert_allclose(ident.residual_history, plain.residual_history, rtol=1e-12)

    def test_precond_none_is_plain_cg(self, small_dataset_2d):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)
        cfg = SolverConfig(tolerance=1e-10, max_iterations=2000, preconditioner="none")
        rep = mgcg_solve(hier, cfg=cfg)
        plain = cg_solve(hier.finest, hier.finest.rhs(), cfg)
        assert rep.label == plain.label == "cg"
        assert rep.iterations == plain.iterations
        assert rep.peak_auxiliary_memory_estimate == plain.peak_auxiliary_memory_estimate
        npt.assert_array_equal(rep.coefficients, plain.coefficients)
        npt.assert_array_equal(rep.residual_history, plain.residual_history)

    def test_precond_mg_ssor_is_dense_reference(self, small_dataset_2d, rng):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)
        r = rng.standard_normal(hier.finest.size)
        ref = dense_ssor_vcycle(hier, r)
        z = preconditioner(hier, "mg-ssor")[0](r)
        npt.assert_allclose(z, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        cfg = SolverConfig(tolerance=1e-10, preconditioner="mg-ssor")
        rep = mgcg_solve(hier, cfg=cfg)
        assert rep.label == "mgcg" and rep.converged
        exact = np.linalg.solve(hier.finest.assemble_dense(), hier.finest.rhs())
        assert np.linalg.norm(rep.coefficients - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_precond_mg_jacobi_is_dense_reference(self, small_dataset_2d, rng):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)
        r = rng.standard_normal(hier.finest.size)
        z = preconditioner(hier, "mg-jacobi")[0](r)  # stores each level's spectral bound
        ref = dense_jacobi_vcycle(hier, r)
        npt.assert_allclose(z, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("precond", ["none", "mg-jacobi", "mg-ssor"])
    def test_zero_rhs_report(self, small_dataset_2d, precond, monkeypatch):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)
        k = hier.finest.size
        _, stored = preconditioner(hier, precond)
        aux = 8 * hier.finest.design.rel.shape[0] if precond == "none" else (
            8 * (hier.workspace_reals() + k) + stored)
        # b = 0 ends before any product with the operator or a V-cycle
        monkeypatch.setattr(LevelOperator, "apply", None)
        rep = mgcg_solve(hier, np.zeros(small_dataset_2d.n), SolverConfig(preconditioner=precond))
        assert (rep.iterations, rep.converged, rep.true_relative_residual,
                rep.rounding_floor, rep.final_relative_residual) == (0, True, 0.0, 0.0, 0.0)
        npt.assert_array_equal(rep.residual_history, [0.0])
        npt.assert_array_equal(rep.coefficients, np.zeros(k))
        # four CG vectors, with or without a preconditioner
        assert rep.peak_auxiliary_memory_estimate == aux + 4 * 8 * k

    @pytest.mark.parametrize("dataset,storage", [("small_dataset_2d", "windows"),
                                                 ("small_dataset_1d", "csr")])
    def test_non_finite_responses_refused_before_the_solve(self, dataset, storage, request):
        data = request.getfixturevalue(dataset)
        hier = build_hierarchy(data, 3, 1.0)
        assert hier.finest.storage == storage
        y = data.responses.copy()
        y[-1] = np.nan
        with pytest.raises(ParameterError, match="responses must be finite"):
            mgcg_solve(hier, y)

    def test_precond_mg_ssor_memory_counts_csr_copies(self, small_dataset_2d):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)
        k = hier.finest.size
        jacobi = mgcg_solve(hier, cfg=SolverConfig(preconditioner="mg-jacobi"))
        ssor = mgcg_solve(hier, cfg=SolverConfig(preconditioner="mg-ssor"))
        # one scaled upper triangle and its square-rooted diagonal per level 2..G
        copies = 0
        for op in hier.levels[1:]:
            a = scipy.sparse.csr_array(op.assemble_dense())
            copies += stored_bytes(scipy.sparse.triu(a, format="csr")) + 8 * op.size
        # workspace, right-hand side and five CG vectors
        assert jacobi.peak_auxiliary_memory_estimate == 8 * (hier.workspace_reals() + 6 * k)
        assert ssor.peak_auxiliary_memory_estimate == (
            jacobi.peak_auxiliary_memory_estimate + copies
        )

    def test_precond_mg_ssor_runs_above_dense_cap(self, small_dataset_2d, monkeypatch):
        # the finest level (K=121) is larger than the cap, its band (4,225
        # entries) within the cap's 100 x 100
        with monkeypatch.context() as patch:
            patch.setattr(system, "DENSE_CAP", 100)
            hier = build_hierarchy(small_dataset_2d, 3, 1.0)
            assert hier.finest.size > system.DENSE_CAP
            rep = mgcg_solve(hier, cfg=SolverConfig(tolerance=1e-10, preconditioner="mg-ssor"))
        assert rep.converged
        reference = build_hierarchy(small_dataset_2d, 3, 1.0)
        exact = np.linalg.solve(reference.finest.assemble_dense(), reference.finest.rhs())
        assert np.linalg.norm(rep.coefficients - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_precond_mg_ssor_band_cap_checked_before_building(self, small_dataset_2d,
                                                              monkeypatch):
        monkeypatch.setattr(system, "DENSE_CAP", 60)
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)

        def forbidden(*args):
            raise AssertionError("built a band CSR or triangle before the cap check")

        monkeypatch.setattr(LevelOperator, "band_csr", forbidden)
        monkeypatch.setattr(multigrid, "scaled_upper_triangle", forbidden)
        # 60 x 60 = 3,600 entries, below the finest band's 4,225
        with pytest.raises(CapacityError, match="level 3: its band holds 4225 entries"):
            mgcg_solve(hier, cfg=SolverConfig(preconditioner="mg-ssor"))

    def test_precond_mg_ssor_band_cap_reads_a_galerkin_level_band(self, monkeypatch):
        # every level of this 1D hierarchy is CSR, all but the finest
        # Galerkin products; the guard counts level 2's band from its spaces
        monkeypatch.setattr(system, "DENSE_CAP", 6)
        hier = build_hierarchy(generate_dataset(1, 20000, 0.1, seed=0), 4, 1.0)
        level = hier.level(2)
        assert level.storage == "csr" and level.matrix.nnz == BandPattern(level.spaces).nnz == 37
        monkeypatch.setattr(LevelOperator, "band_csr", lambda *args: pytest.fail("built"))
        with pytest.raises(CapacityError, match="level 2: its band holds 37 entries"):
            mgcg_solve(hier, cfg=SolverConfig(preconditioner="mg-ssor"))

    @pytest.mark.parametrize("name", ["mg-jacobi", "mg-ssor"])
    def test_smootherless_vcycle_rejected(self, small_dataset_2d, name):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0, nu1=0, nu2=0)
        with pytest.raises(ParameterError, match="nu1 \\+ nu2 > 0"):
            mgcg_solve(hier, cfg=SolverConfig(preconditioner=name))
        # plain CG reads no smoother
        assert mgcg_solve(hier, cfg=SolverConfig(preconditioner="none")).label == "cg"
        # one level is solved directly, with no smoother to miss
        single = build_hierarchy(small_dataset_2d, 1, 1.0, nu1=0, nu2=0)
        assert mgcg_solve(single, cfg=SolverConfig(preconditioner=name)).converged

    @pytest.mark.parametrize("name", ["mg-jacobi", "mg-ssor"])
    @pytest.mark.parametrize("nu1,nu2", [(2, 0), (0, 2), (1, 3)])
    def test_unequal_sweeps_rejected(self, small_dataset_2d, name, nu1, nu2):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0, nu1=nu1, nu2=nu2)
        with pytest.raises(ParameterError, match=f"nu1={nu1} and nu2={nu2}: CG needs a "
                                                 "nonsingular, symmetric preconditioner"):
            preconditioner(hier, name)
        with pytest.raises(ParameterError, match="nu1 == nu2"):
            mgcg_solve(hier, cfg=SolverConfig(preconditioner=name))
        assert mgcg_solve(hier, cfg=SolverConfig(preconditioner="none")).label == "cg"
        single = build_hierarchy(small_dataset_2d, 1, 1.0, nu1=nu1, nu2=nu2)
        assert mgcg_solve(single, cfg=SolverConfig(preconditioner=name)).converged

    def test_explicit_responses_override(self, small_dataset_2d):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)
        rep_default = mgcg_solve(hier)
        rep_explicit = mgcg_solve(hier, small_dataset_2d.responses)
        npt.assert_array_equal(rep_default.coefficients, rep_explicit.coefficients)

    def test_iteration_counts_roughly_level_independent(self, small_dataset_2d):
        counts = []
        for levels in (3, 4, 5):
            hier = build_hierarchy(small_dataset_2d, levels, 1.0)
            counts.append(mgcg_solve(hier, cfg=SolverConfig(tolerance=1e-8)).iterations)
        assert max(counts) - min(counts) <= 3

    def test_report_fields(self, small_dataset_2d):
        hier = build_hierarchy(small_dataset_2d, 3, 1.0)
        rep = mgcg_solve(hier)
        assert rep.label == "mgcg"
        assert rep.wall_time >= 0.0
        assert rep.peak_auxiliary_memory_estimate > 0
        assert len(rep.residual_history) == rep.iterations + 1
        assert rep.final_relative_residual <= 1e-8
