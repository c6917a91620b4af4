import functools
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse

from splinemg import (
    CapacityError,
    Hierarchy,
    NumericError,
    ParameterError,
    ScatteredDataset,
    ShapeError,
    SolverConfig,
    build_hierarchy,
    build_level,
    build_space,
    coarse_solve,
    generate_dataset,
    gram_matrix,
    jacobi_smooth,
    subdivision_matrix,
    transfer,
    v_cycle,
)
from splinemg.multigrid import (
    COARSE_CG_TOL,
    chebyshev_ratio,
    chebyshev_smooth,
    first_assembled_level,
    jacobi_spectral_bound,
    vcycle_smoother,
)
from splinemg.solvers import cg_solve, mgcg_solve
from splinemg import system
from splinemg.system import BandPattern, LevelOperator
from splinemg.tensorops import stored_bytes
from conftest import make_dataset
from oracles import DenseOperator, dense_kron, dense_rhs


def windows_finest(hier):
    """The same hierarchy with a matrix-free finest level built from the data."""
    finest = hier.finest
    levels = hier.levels[:-1] + [build_level(finest.dataset, finest.level, finest.lam,
                                             finest.degrees)]
    return Hierarchy(levels, hier.transfers, hier.nu1, hier.nu2)


@pytest.fixture(scope="module")
def hier_2d(small_dataset_2d):
    return build_hierarchy(small_dataset_2d, 3, 1.0)


class TestBuildHierarchy:
    def test_level_dimensions(self, small_dataset_2d):
        hier = build_hierarchy(small_dataset_2d, 5, 1.0)
        assert [op.size for op in hier.levels] == [25, 49, 121, 361, 1225]

    def test_factors_are_stored_sparse(self):
        # P=1, G=12: dense 1D factors would hold about 2 * sum(dim_g**2)
        # numbers and a 4099 x 4099 Gram on the finest level alone
        data = make_dataset(1, 2000, seed=11)
        tracemalloc.start()
        hier = build_hierarchy(data, 12, 1.0)
        mgcg_solve(hier)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        dims = [op.size for op in hier.levels]
        factors = [f for op in hier.levels for t in op.penalty for f in t.factors]
        factors += [f for axis_factors in hier.transfers for f in axis_factors]
        assert all(scipy.sparse.issparse(f) for f in factors)
        assert sum(f.data.size + f.indices.size + f.indptr.size for f in factors) < 32 * sum(dims)
        assert peak < dims[-1] ** 2  # bytes: an eighth of one dense finest factor

    def test_transfer_shapes_chain(self, hier_2d):
        for i, factors in enumerate(hier_2d.transfers):
            for p, f in enumerate(factors):
                assert f.shape == (
                    hier_2d.levels[i + 1].spaces[p].dim,
                    hier_2d.levels[i].spaces[p].dim,
                )

    @pytest.mark.parametrize("num_axes", [1, 2])
    def test_galerkin_property(self, num_axes):
        data = make_dataset(num_axes, 150, seed=3)
        hier = build_hierarchy(data, 3, 0.5)
        for g in (2, 3):
            a_fine = hier.levels[g - 1].assemble_dense()
            a_coarse = hier.levels[g - 2].assemble_dense()
            prolong = dense_kron(hier.transfers[g - 2])
            err = np.abs(a_coarse - prolong.T @ a_fine @ prolong).max()
            assert err <= 1e-10 * max(1.0, np.abs(a_coarse).max())

    def test_single_level_hierarchy_is_direct_solve(self, small_dataset_2d, rng):
        hier = build_hierarchy(small_dataset_2d, 1, 1.0)
        b = rng.standard_normal(hier.finest.size)
        x = v_cycle(hier, None, b, 1)
        ref = np.linalg.solve(hier.finest.assemble_dense(), b)
        npt.assert_allclose(x, ref, rtol=1e-10)

    def test_validation(self, small_dataset_2d):
        with pytest.raises(ParameterError):
            build_hierarchy(small_dataset_2d, 0, 1.0)
        for num_levels in (2.5, True, "3"):
            with pytest.raises(ParameterError, match="integer number of levels"):
                build_hierarchy(small_dataset_2d, num_levels, 1.0)
        assert build_hierarchy(small_dataset_2d, np.int64(2), 1.0).num_levels == 2
        with pytest.raises(ParameterError):
            build_hierarchy(small_dataset_2d, 2, 1.0, nu1=-1)
        with pytest.raises(TypeError):  # the Jacobi damping setting is gone
            build_hierarchy(small_dataset_2d, 2, 1.0, omega=0.8)

    @pytest.mark.parametrize("counts", [{"nu1": 1.7}, {"nu2": True}, {"nu1": 2.0},
                                        {"nu2": "2"}, {"nu1": np.float64(1.0)}])
    def test_sweep_counts_are_integers(self, small_dataset_2d, counts):
        # int() would truncate 1.7 and turn True into 1 without a word
        label, value = next(iter(counts.items()))
        with pytest.raises(ParameterError, match=re.escape(f"{label} must be a non-negative "
                                                           f"integer sweep count, got {value!r}")):
            build_hierarchy(small_dataset_2d, 2, 1.0, **counts)
        hier = build_hierarchy(small_dataset_2d, 2, 1.0, nu1=np.int64(3), nu2=3)
        assert (hier.nu1, hier.nu2) == (3, 3)


def chebyshev_factor(steps, upper, ratio, eigenvalues):
    """``T_k((theta - x) / delta) / T_k(theta / delta)`` on ``[upper / ratio, upper]``,
    evaluated by numpy's Chebyshev series, not by a three-term recurrence."""
    lower = upper / ratio
    theta, delta = 0.5 * (upper + lower), 0.5 * (upper - lower)
    series = [0.0] * steps + [1.0]
    return (np.polynomial.chebyshev.chebval((theta - eigenvalues) / delta, series)
            / np.polynomial.chebyshev.chebval(theta / delta, series))


class TestJacobiSmooth:
    def test_exact_on_diagonal_system(self):
        # D^-1 A = I: every step scales the whole error alike, and the
        # Chebyshev factor at 1 falls below rounding within 25 steps
        level = DenseOperator(np.diag([2.0, 4.0]))
        b = np.array([2.0, 4.0])
        for steps in (1, 2, 3):
            out = jacobi_smooth(level, np.zeros(2), b, steps)
            assert out[0] == pytest.approx(out[1], rel=1e-14)
            factor = chebyshev_factor(steps, jacobi_spectral_bound(level), 2, np.array([1.0]))
            npt.assert_allclose(1.0 - out, factor[0], rtol=1e-12)
        npt.assert_allclose(jacobi_smooth(level, None, b, 25), [1.0, 1.0], rtol=1e-13)

    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_error_is_the_chebyshev_polynomial(self, steps, start):
        # the error after the steps is p(D^-1 A) times the initial error, with
        # p(D^-1 A) = D^-1/2 Q p(Lambda) Q' D^1/2 from D^-1/2 A D^-1/2 = Q Lambda Q'
        gen = np.random.default_rng(steps)
        m = gen.standard_normal((20, 20))
        a = m @ m.T + np.diag(gen.uniform(1.0, 30.0, 20))
        level = DenseOperator(a, degrees=(3, 3))  # c = (3 - 1) * 2**2 = 8
        x_star = gen.standard_normal(20)
        alpha0 = None if start == "zero" else gen.standard_normal(20)
        out = jacobi_smooth(level, alpha0, a @ x_star, steps)
        root = np.sqrt(np.diag(a))
        eigenvalues, q = np.linalg.eigh(a / np.outer(root, root))
        factor = chebyshev_factor(steps, jacobi_spectral_bound(level), 8, eigenvalues)
        poly = (q * factor / root[:, None]) @ (q.T * root)
        error0 = x_star if alpha0 is None else x_star - alpha0
        npt.assert_allclose(x_star - out, poly @ error0, rtol=0,
                            atol=1e-11 * np.abs(error0).max())

    @pytest.mark.parametrize("degrees,ratio", [
        ((2,), 2), ((3,), 2), ((5,), 4), ((2, 2), 4), ((3, 3), 8), ((5, 2), 16),
        ((3, 3, 3), 18), ((2, 2, 2), 9), ((3,) * 4, 32),
    ])
    def test_interval_ratio_follows_formula(self, degrees, ratio):
        # c = max(2, (q - 1) P^2) for the largest degree q of the P axes
        assert chebyshev_ratio(degrees) == ratio

    def test_spectral_bound_cache_read_makes_no_application(self, hier_2d):
        level = build_level(hier_2d.finest.dataset, 2, 1.0)
        applies, apply = [], level.apply
        level.apply = lambda *args, **kwargs: applies.append(1) or apply(*args, **kwargs)
        assert level.spectral_bound is None
        bound = jacobi_spectral_bound(level)
        assert len(applies) == 20  # the power iteration
        assert level.spectral_bound == bound == jacobi_spectral_bound(level)
        assert len(applies) == 20

    def test_zero_steps_returns_input(self, hier_2d, rng):
        level = hier_2d.finest
        alpha = rng.standard_normal(level.size)
        out = jacobi_smooth(level, alpha, np.zeros(level.size), 0)
        npt.assert_array_equal(out, alpha)
        assert out is not alpha  # caller's vector untouched

    def test_error_decreases_over_sweeps(self, hier_2d):
        level = hier_2d.levels[1]
        b = level.rhs()
        x_star = np.linalg.solve(level.assemble_dense(), b)
        errs = []
        alpha = np.zeros(level.size)
        for _ in range(5):
            alpha = jacobi_smooth(level, alpha, b, 1)
            errs.append(np.linalg.norm(alpha - x_star))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_none_start_equals_zero_start(self, hier_2d, rng):
        level = hier_2d.levels[0]
        b = rng.standard_normal(level.size)
        a = jacobi_smooth(level, None, b, 3)
        z = jacobi_smooth(level, np.zeros(level.size), b, 3)
        npt.assert_allclose(a, z, atol=1e-15)

    def test_validation(self, hier_2d):
        level = hier_2d.levels[0]
        with pytest.raises(ParameterError):
            jacobi_smooth(level, None, np.zeros(level.size), -1)
        with pytest.raises(TypeError):  # the Jacobi damping argument is gone
            jacobi_smooth(level, None, np.zeros(level.size), 1, 0.8)
        with pytest.raises(ShapeError):
            jacobi_smooth(level, None, np.zeros(level.size + 2), 1)
        for steps in (1.5, True, None):  # an integer step count, never a bool
            with pytest.raises(ParameterError, match="step count must be a non-negative"):
                jacobi_smooth(level, None, np.zeros(level.size), steps)


class TestChebyshevSmooth:
    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_error_is_the_chebyshev_polynomial_of_a_block_inverse(self, steps, start):
        # M is the 2x2 block diagonal of A; the error after the steps is
        # p(M^-1 A) times the initial error, with p(M^-1 A) = M^-1/2 Q p(Lambda)
        # Q' M^1/2 from M^-1/2 A M^-1/2 = Q Lambda Q'
        gen = np.random.default_rng(10 + steps)
        m = gen.standard_normal((20, 20))
        a = m @ m.T + np.diag(gen.uniform(1.0, 30.0, 20))
        blocks = np.array([a[i:i + 2, i:i + 2] for i in range(0, 20, 2)])
        w, v = np.linalg.eigh(blocks)
        root = scipy.linalg.block_diag(*(v * np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1))
        inv_root = scipy.linalg.block_diag(*(v / np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1))
        eigenvalues, q = np.linalg.eigh(inv_root @ a @ inv_root)
        upper, ratio = 1.05 * eigenvalues[-1], 6

        def inverse(r):
            r[:] = np.linalg.solve(blocks, r.reshape(10, 2, 1)).ravel()

        x_star = gen.standard_normal(20)
        alpha0 = None if start == "zero" else gen.standard_normal(20)
        out = chebyshev_smooth(DenseOperator(a), alpha0, a @ x_star, steps, inverse,
                               upper, upper / ratio)
        factor = chebyshev_factor(steps, upper, ratio, eigenvalues)
        poly = inv_root @ (q * factor) @ q.T @ root
        error0 = x_star if alpha0 is None else x_star - alpha0
        npt.assert_allclose(x_star - out, poly @ error0, rtol=0,
                            atol=1e-11 * np.abs(error0).max())


@functools.lru_cache(maxsize=1)
def bound_hierarchy(num_axes, levels, degree):
    return build_hierarchy(generate_dataset(num_axes, 20_000, 0.1, seed=1), levels, 1.0,
                           degrees=degree)


# every smoothed level (all but the coarsest) with at most 1,000 unknowns
BOUND_LEVELS = [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="the 20-step power bound lies 9% below lambda_max here "
        "(ratio 0.908); ROADMAP item 3")) if case == (3, 3, 4, 2) else case
    for num_axes, levels, degree in ((2, 4, 3), (2, 4, 5), (3, 3, 3), (3, 3, 4), (3, 3, 5))
    for case in [(num_axes, levels, degree, g) for g in range(2, levels + 1)
                 if (2**g + degree) ** num_axes <= 1000]
]


class TestSpectralBoundSafety:
    @pytest.mark.parametrize("num_axes,levels,degree,level", BOUND_LEVELS)
    def test_bound_is_not_below_largest_eigenvalue(self, num_axes, levels, degree, level):
        # a Chebyshev smoother amplifies the modes above its interval's upper end
        op = bound_hierarchy(num_axes, levels, degree).levels[level - 1]
        scale = 1.0 / np.sqrt(op.diagonal())
        largest = np.linalg.eigvalsh(op.assemble_dense() * np.outer(scale, scale))[-1]
        assert jacobi_spectral_bound(op) >= largest


class TestTransfer:
    def test_prolonged_ones_represent_constant_one(self, hier_2d, rng):
        coarse, fine = hier_2d.levels[0], hier_2d.levels[1]
        beta = transfer(hier_2d, 1, np.ones(coarse.size), "prolong")
        pts = rng.random((40, 2))
        npt.assert_allclose(fine.predict(beta, pts), 1.0, atol=1e-12)

    def test_adjoint_pair(self, hier_2d, rng):
        v = rng.standard_normal(hier_2d.levels[1].size)
        w = rng.standard_normal(hier_2d.levels[2].size)
        lhs = transfer(hier_2d, 2, v, "prolong") @ w
        rhs = v @ transfer(hier_2d, 3, w, "restrict")
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("num_axes", [1, 2, 3])
    def test_matches_dense_subdivision_product(self, num_axes, rng):
        data = make_dataset(num_axes, 80, seed=7)
        hier = build_hierarchy(data, 2, 1.0)
        dense = dense_kron(hier.transfers[0])
        v = rng.standard_normal(hier.levels[0].size)
        w = rng.standard_normal(hier.levels[1].size)
        npt.assert_allclose(transfer(hier, 1, v, "prolong"), dense @ v, atol=1e-12)
        npt.assert_allclose(transfer(hier, 2, w, "restrict"), dense.T @ w, atol=1e-12)

    def test_direction_validation(self, hier_2d):
        with pytest.raises(ParameterError):
            transfer(hier_2d, 3, np.zeros(hier_2d.finest.size), "prolong")
        with pytest.raises(ParameterError):
            transfer(hier_2d, 1, np.zeros(25), "restrict")
        with pytest.raises(ParameterError):
            transfer(hier_2d, 1, np.zeros(25), "sideways")


class TestCoarseSolve:
    def test_direct_residual(self, hier_2d, rng):
        a1 = hier_2d.levels[0].assemble_dense()
        b = rng.standard_normal(hier_2d.levels[0].size)
        x = coarse_solve(hier_2d, b)
        assert np.linalg.norm(a1 @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self, hier_2d):
        npt.assert_array_equal(coarse_solve(hier_2d, np.zeros(25)), np.zeros(25))

    def test_cg_fallback_agrees_with_direct(self, small_dataset_2d, rng, monkeypatch):
        direct = build_hierarchy(small_dataset_2d, 2, 1.0)
        monkeypatch.setattr(system, "DENSE_CAP", 10)
        nested = build_hierarchy(small_dataset_2d, 2, 1.0)
        assert direct._coarse_factor is not None and nested._coarse_factor is None
        b = rng.standard_normal(25)
        xd = coarse_solve(direct, b)
        xc = coarse_solve(nested, b)
        assert np.linalg.norm(xd - xc) <= 1e-8 * np.linalg.norm(xd)

    def test_nested_cg_worse_than_zero_raises(self, rng, monkeypatch):
        # level 1 has 49 unknowns and condition number near 1e14
        monkeypatch.setattr(system, "DENSE_CAP", 1)
        data = generate_dataset(2, 3000, 0.1, seed=3)
        hier = build_hierarchy(data, 2, 1e-8, degrees=5)
        assert hier._coarse_factor is None
        b = rng.standard_normal(hier.levels[0].size)
        with pytest.raises(NumericError, match=r"level 1 \(size 49\).*DENSE_CAP = 1"):
            coarse_solve(hier, b)

    def test_nested_cg_short_of_its_tolerance_still_serves(self, monkeypatch):
        # the nested solve misses COARSE_CG_TOL here but is far better than
        # zero, and MGCG converges with it
        monkeypatch.setattr(system, "DENSE_CAP", 1)
        data = generate_dataset(2, 500, 0.1, seed=0)
        hier = build_hierarchy(data, 4, 1e8, degrees=5)
        report = mgcg_solve(hier, cfg=SolverConfig(max_iterations=2000))
        assert report.converged


class TestNestedCoarseCG:
    def test_is_the_package_cg(self, small_dataset_2d, rng, monkeypatch):
        monkeypatch.setattr(system, "DENSE_CAP", 10)
        hier = build_hierarchy(small_dataset_2d, 2, 1.0)
        b = rng.standard_normal(25)
        cfg = SolverConfig(tolerance=COARSE_CG_TOL, max_iterations=20 * 25, preconditioner="none")
        npt.assert_array_equal(coarse_solve(hier, b), cg_solve(hier.levels[0], b, cfg).coefficients)

    def test_rejects_non_positive_curvature(self, small_dataset_2d, rng, monkeypatch):
        monkeypatch.setattr(system, "DENSE_CAP", 10)
        hier = build_hierarchy(small_dataset_2d, 2, 1.0)
        coarse = hier.levels[0]
        hier.levels[0] = LevelOperator(coarse.dataset, 1, 1.0, matrix=-coarse.matrix)
        with pytest.raises(NumericError, match="curvature"):
            coarse_solve(hier, rng.standard_normal(25))


class TestExtremeLambda:
    def test_overflow_is_a_parameter_error_without_warnings(self):
        data = generate_dataset(2, 300, 0.1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="smoothing parameter 1e\\+308 overflows"):
                build_hierarchy(data, 3, 1e308)

    @pytest.mark.parametrize("n,lam,swamped", [
        (300, 1e20, "data term lies below the rounding of the penalty"),
        (300, 1e300, "data term lies below the rounding of the penalty"),
        (20, 1e-30, "penalty lies below the rounding of the data term"),
    ])
    def test_failed_cholesky_says_why(self, n, lam, swamped):
        # one term lies below the rounding of the other, which vanishes on
        # some splines: level 1 is singular in double precision
        with pytest.raises(NumericError, match=swamped):
            build_hierarchy(generate_dataset(2, n, 0.1, seed=0), 3, lam)


class TestVCycle:
    def test_level_one_is_coarse_solve(self, hier_2d, rng):
        b = rng.standard_normal(25)
        npt.assert_array_equal(v_cycle(hier_2d, None, b, 1), coarse_solve(hier_2d, b))

    def test_zero_fixed_point(self, hier_2d):
        out = v_cycle(hier_2d, np.zeros(hier_2d.finest.size), np.zeros(hier_2d.finest.size))
        npt.assert_array_equal(out, np.zeros(hier_2d.finest.size))

    def test_preconditioner_linearity(self, hier_2d, rng):
        k = hier_2d.finest.size
        b1, b2 = rng.standard_normal((2, k))
        a, c = 1.7, -0.6
        lhs = v_cycle(hier_2d, None, a * b1 + c * b2)
        rhs = a * v_cycle(hier_2d, None, b1) + c * v_cycle(hier_2d, None, b2)
        npt.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))

    def test_preconditioner_symmetry(self, hier_2d):
        k = hier_2d.finest.size
        minv = np.empty((k, k))
        e = np.zeros(k)
        for j in range(k):
            e[j] = 1.0
            minv[:, j] = v_cycle(hier_2d, None, e.copy())
            e[j] = 0.0
        assert np.abs(minv - minv.T).max() <= 1e-8 * np.abs(minv).max()

    def test_stationary_iteration_converges(self, hier_2d):
        op = hier_2d.finest
        b = op.rhs()
        x_star = np.linalg.solve(op.assemble_dense(), b)
        x = np.zeros(op.size)
        errs = [np.linalg.norm(x - x_star)]
        for _ in range(8):
            x = v_cycle(hier_2d, x, b)
            errs.append(np.linalg.norm(x - x_star))
        assert errs[-1] < 1e-2 * errs[0]

    def test_unequal_sweeps_run_as_a_stationary_iteration(self, small_dataset_2d):
        # (2, 0) is refused as a preconditioner, not as an iteration
        hier = build_hierarchy(small_dataset_2d, 3, 1.0, nu1=2, nu2=0)
        op = hier.finest
        b = op.rhs()
        x_star = np.linalg.solve(op.assemble_dense(), b)
        x = np.zeros(op.size)
        for _ in range(8):
            x = v_cycle(hier, x, b)
        assert np.linalg.norm(x - x_star) < 1e-2 * np.linalg.norm(x_star)

    def test_shape_error(self, hier_2d):
        with pytest.raises(ShapeError):
            v_cycle(hier_2d, None, np.zeros(7), 3)

    def test_smoother_is_told_the_phase(self, hier_2d, rng):
        calls, jacobi = [], vcycle_smoother(hier_2d, "mg-jacobi")[0]

        def recording(g, alpha, b, steps, phase):
            calls.append((g, phase))
            return jacobi(g, alpha, b, steps, phase)

        v_cycle(hier_2d, None, rng.standard_normal(hier_2d.finest.size), smoother=recording)
        assert calls == [(3, "pre"), (2, "pre"), (2, "post"), (3, "post")]

    @pytest.mark.parametrize("mirrored", [True, False])
    def test_mirrored_hybrid_keeps_the_cycle_symmetric(self, hier_2d, mirrored):
        # Chebyshev steps, then Gauss-Seidel sweeps: the two do not commute, so
        # the cycle is symmetric only when "post" runs them in reverse order
        steppers = [vcycle_smoother(hier_2d, name)[0] for name in ("mg-jacobi", "mg-ssor")]

        def hybrid(g, alpha, b, steps, phase):
            for stepper in steppers[::-1] if mirrored and phase == "post" else steppers:
                alpha = stepper(g, alpha, b, steps, phase)
            return alpha

        minv = np.column_stack([v_cycle(hier_2d, None, e, smoother=hybrid)
                                for e in np.eye(hier_2d.finest.size)])
        asymmetry = np.abs(minv - minv.T).max() / np.abs(minv).max()
        if mirrored:
            assert asymmetry <= 1e-14
        else:
            assert asymmetry > 1e-6


class TestAssembledLevels:
    @pytest.mark.parametrize("num_axes,levels,n,assembled", [
        (1, 6, 2000, 6),  # q=3: every level, the finest included, is CSR
        (2, 4, 3000, 4),  # the finest band CSR is smaller than its windows
        (3, 3, 3000, 2),
    ])
    def test_match_levels_rediscretized_from_data(self, num_axes, levels, n, assembled):
        data = make_dataset(num_axes, n, seed=30 + num_axes)
        hier = build_hierarchy(data, levels, 0.6)
        storages = [op.storage for op in hier.levels]
        assert storages == ["csr"] * assembled + ["windows"] * (levels - assembled)
        for op in hier.levels[:assembled]:
            ref = build_level(data, op.level, 0.6)
            dense = ref.assemble_dense()
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(op.assemble_dense() - dense).max() <= 1e-12 * scale
            npt.assert_allclose(op.diagonal(), ref.diagonal(), rtol=0, atol=1e-12 * scale)
            npt.assert_allclose(op.rhs(), dense_rhs(op), rtol=1e-12, atol=1e-12)
            alpha = np.linspace(-1.0, 1.0, op.size)
            npt.assert_allclose(op.fitted_values(alpha), ref.fitted_values(alpha), atol=1e-12)

    def test_clustered_points_match(self):
        # 20k points in one coarse cell: the cell spans several kernel chunks
        gen = np.random.default_rng(12)
        pts = np.vstack([0.3 + 0.01 * gen.random((20_000, 2)), gen.random((50, 2))])
        data = ScatteredDataset(pts, gen.standard_normal(pts.shape[0]))
        hier = build_hierarchy(data, 4, 1.0)
        for op in hier.levels:
            assert op.storage == "csr"
            dense = build_level(data, op.level, 1.0).assemble_dense()
            assert np.abs(op.assemble_dense() - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("num_axes,levels,n,expected", [
        # one data pass touches n * 4**P window entries; per axis a level-g
        # space has 2**g + 3 functions and 7 * dim - 12 band entries
        (2, 5, 200, ["csr", "csr", "windows", "windows", "windows"]),  # 37**2 <= 3200 < 65**2
        (3, 5, 20_000, ["csr"] * 3 + ["windows"] * 2),  # 65**3 <= 1.28M < 121**3
        (2, 7, 100_000, ["csr"] * 6 + ["windows"]),  # 457**2 <= 1.6M
        (3, 3, 10, ["windows"] * 3),  # 23**3 = 12167 > 640: nothing pays
        (2, 3, 86, ["csr", "csr", "windows"]),  # 37**2 = 1369 <= 86 * 16 = 1376
        (2, 3, 85, ["csr", "windows", "windows"]),  # 1369 > 1360 >= 23**2
        (2, 1, 200, ["csr"]),  # 2 * 23**2 + 2 * 25 + 1 = 1109 <= 200 * 11
    ])
    def test_size_rule_picks_levels(self, num_axes, levels, n, expected):
        data = make_dataset(num_axes, n, seed=4)
        hier = build_hierarchy(data, levels, 1.0)
        assert [op.storage for op in hier.levels] == expected

    def test_size_rule_admits_equality(self):
        # degree 2 in 1D: level 2 has 6 functions and 5 * 6 - 6 = 24 band
        # entries, exactly the 8 * 3 window entries of one pass
        hier = build_hierarchy(make_dataset(1, 8, seed=2), 3, 1.0, degrees=2)
        assert [op.storage for op in hier.levels] == ["csr", "csr", "windows"]

    @pytest.mark.parametrize("n,expected", [
        # degree 2 in 1D: level 4 has 18 functions and 5 * 18 - 6 = 84 band
        # entries, so its CSR and B'y hold 2 * 84 + 2 * 18 + 1 = 205 numbers,
        # against 5 window numbers (3 values, offset, base) per point
        (41, ["csr"] * 4),
        (40, ["csr"] * 3 + ["windows"]),
    ])
    def test_finest_rule_admits_equality(self, n, expected):
        hier = build_hierarchy(make_dataset(1, n, seed=2), 4, 1.0, degrees=2)
        assert [op.storage for op in hier.levels] == expected

    @pytest.mark.parametrize("num_axes,levels,n,degree", [
        (1, 4, 41, 2),  # at the boundary of the rule
        (1, 6, 2000, 3),
        (1, 12, 20_000, 3),
        (2, 4, 3000, 3),
        (2, 5, 20_000, 3),
    ])
    def test_memory_not_above_windows_finest(self, num_axes, levels, n, degree):
        data = make_dataset(num_axes, n, seed=5)
        hier = build_hierarchy(data, levels, 1.0, degrees=degree)
        assert hier.finest.storage == "csr"
        reference = windows_finest(hier)
        assert reference.finest.storage == "windows"
        assert hier.memory_bytes() <= reference.memory_bytes()

    def test_finest_rule_keeps_the_workload_storages(self):
        # P=1 G=12 n=100k assembles the finest level; P=2 G=7 n=100k and
        # P=3 G=5 n=20k keep it matrix-free (the rule reads only n and spaces)
        def finest_assembled(num_axes, levels, n):
            spaces = [(build_space(0.0, 1.0, g, 3),) * num_axes for g in range(1, levels + 1)]
            return first_assembled_level(spaces, n) == levels

        assert finest_assembled(1, 12, 100_000)
        assert not finest_assembled(2, 7, 100_000)
        assert not finest_assembled(3, 5, 20_000)

    def test_window_assembled_level_holds_the_band_pattern(self):
        data = make_dataset(2, 3000, seed=6)
        hier = build_hierarchy(data, 4, 1.0)
        op = hier.level(4)  # assembled from its windows
        assert op.matrix.nnz == BandPattern(op.spaces).nnz == 121**2
        rows = np.repeat(np.arange(op.size), np.diff(op.matrix.indptr))
        r, c = np.unravel_index(rows, op.dims), np.unravel_index(op.matrix.indices, op.dims)
        assert all(np.abs(rp - cp).max() <= 3 for rp, cp in zip(r, c))

    def test_stores_no_windows_and_counts_csr(self):
        # at P=3 the six penalty terms hold 18 factors but share 9 Grams
        for dim, levels in ((2, 5), (3, 3)):
            data = make_dataset(dim, 3000, seed=6)
            hier = build_hierarchy(data, levels, 1.0)  # the finest level stays windows
            for op in hier.levels[:-1]:
                assert op.design.n_cols == 0 and op.design.values.size == 0
                # one Gram per axis and derivative order, however many terms share it
                penalty = sum(stored_bytes(gram_matrix(s, r)) for s in op.spaces
                              for r in (0, 1, 2))
                helpers = op.design.rel.nbytes + op.design.digits.nbytes
                assert op.memory_bytes() == (stored_bytes(op.matrix) + penalty + helpers
                                             + 8 * op.size)
            finest = hier.finest
            assert finest.storage == "windows" and finest.design.n_cols == data.n
            transfers = sum(stored_bytes(f) for axis in hier.transfers for f in axis)
            coarse_factor = 8 * hier.level(1).size ** 2
            total = sum(op.memory_bytes() for op in hier.levels) + transfers + coarse_factor
            assert hier.memory_bytes() == total == 8 * hier.memory_reals()

    def test_refuses_a_finest_level_beyond_memory_before_building_it(self):
        # 2**40 + 3 coefficients need 72 bytes each for the solve vectors alone
        data = make_dataset(1, 300, seed=1)
        tracemalloc.start()
        with pytest.raises(CapacityError, match="level 40 has 1099511627779 coefficients"):
            build_hierarchy(data, 40, 1.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_memory_counts_the_bytes_of_32_bit_indices(self):
        # 32-bit indices and index pointers count 4 bytes each, not 8
        hier = build_hierarchy(generate_dataset(2, 20_000, 0.1, seed=1), 5, 1.0)
        for g, nbytes in ((3, 51_188), (5, 656_372)):
            m = hier.level(g).matrix
            assert m.indices.dtype == m.indptr.dtype == np.int32
            assert stored_bytes(m) == m.data.nbytes + m.indices.nbytes + m.indptr.nbytes == nbytes

    def test_mgcg_matches_matrix_free_hierarchy(self):
        data = make_dataset(2, 20_000, seed=8)
        hier = build_hierarchy(data, 5, 1.0)
        assert [op.storage for op in hier.levels].count("csr") == 5
        levels = [build_level(data, g, 1.0) for g in range(1, 6)]
        transfers = [
            tuple(subdivision_matrix(c, f) for c, f in zip(levels[i].spaces, levels[i + 1].spaces))
            for i in range(4)
        ]
        reference = Hierarchy(levels, transfers, 2, 2)
        cfg = SolverConfig(tolerance=1e-8)
        new, old = mgcg_solve(hier, cfg=cfg), mgcg_solve(reference, cfg=cfg)
        assert new.converged and old.converged
        assert new.iterations == old.iterations
        gap = np.linalg.norm(new.coefficients - old.coefficients)
        assert gap <= 1e-10 * np.linalg.norm(old.coefficients)

    def test_mgcg_matches_windows_finest_within_rounding_floor(self):
        # P=1, G=12: penalty entries near 1e11 put the rounding floor far
        # above the tolerance, so the two finest storages may differ by it
        data = make_dataset(1, 20_000, seed=9)
        hier = build_hierarchy(data, 12, 1.0)
        assert [op.storage for op in hier.levels].count("csr") == 12
        cfg = SolverConfig(tolerance=1e-8)
        new, old = mgcg_solve(hier, cfg=cfg), mgcg_solve(windows_finest(hier), cfg=cfg)
        assert new.converged and old.converged
        assert new.iterations == old.iterations
        assert new.rounding_floor > 1e-8
        gap = np.linalg.norm(new.coefficients - old.coefficients)
        assert gap <= new.rounding_floor * np.linalg.norm(old.coefficients)


class TestIdentifiability:
    def test_single_point_rejected(self):
        data = ScatteredDataset(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ParameterError, match=r"\[1, X\] has rank 1 < 2"):
            build_hierarchy(data, 2, 1.0)

    def test_collinear_points_rejected(self):
        t = np.array([0.1, 0.5, 0.9])
        data = ScatteredDataset(np.column_stack([t, 0.2 + 0.5 * t]), np.array([1.0, 2.0, 0.5]))
        with pytest.raises(ParameterError, match=r"rank 2 < 3.*affine"):
            build_hierarchy(data, 2, 1.0)

    def test_two_close_points_rejected_in_the_plane(self):
        # centred at their rounded mean, these two points once read as rank 3
        data = ScatteredDataset(np.array([[0.0, 0.5], [0.001, 0.501]]), np.array([1.0, 2.0]))
        with pytest.raises(ParameterError, match=r"rank 2 < 3"):
            build_hierarchy(data, 1, 1.0)

    def test_coplanar_points_rejected_in_3d(self):
        gen = np.random.default_rng(1)
        uv = gen.random((50, 2))
        pts = np.column_stack([uv, 0.5 * uv[:, 0] + 0.25 * uv[:, 1] + 0.1])
        with pytest.raises(ParameterError, match="rank 3 < 4"):
            build_hierarchy(ScatteredDataset(pts, gen.standard_normal(50)), 2, 1.0)

    def test_three_points_spanning_the_plane_accepted(self):
        data = ScatteredDataset(np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.9]]), np.ones(3))
        report = mgcg_solve(build_hierarchy(data, 2, 1.0))
        assert report.converged
