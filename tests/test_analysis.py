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
    generate_dataset,
    mgcg_solve,
    v_cycle,
)
from splinemg import system
from splinemg.analysis import (
    condition_summary,
    iteration_matrix,
    probe_inverse_preconditioner,
    spectral_radius,
    spectrum,
)
from splinemg.multigrid import (
    gauss_seidel_sweep,
    preconditioner,
    scaled_upper_triangle,
    vcycle_smoother,
)


def sweep(a, alpha, b):
    """`gauss_seidel_sweep` on a dense matrix, with its scaled triangle."""
    gauss_seidel_sweep(*scaled_upper_triangle(scipy.sparse.csr_array(a)), alpha, b)


def apply_columns(op):
    """``op.apply`` of every unit vector, as the columns of a dense matrix."""
    return np.column_stack([op.apply(e) for e in np.eye(op.size)])


@pytest.fixture(scope="module")
def hier(small_dataset_2d):
    return build_hierarchy(small_dataset_2d, 3, 1.0)


class TestSpectrum:
    def test_identity(self):
        rep = spectrum(np.eye(6))
        npt.assert_allclose(rep.eigenvalues, 1.0)
        assert rep.condition_number == 1.0

    def test_diagonal(self):
        assert spectrum(np.diag([1.0, 4.0])).condition_number == pytest.approx(4.0)

    def test_similarity_route_matches_general_eigensolver(self, rng):
        k = 25
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        a = q @ np.diag(rng.uniform(0.5, 3.0, k)) @ q.T
        m = q @ np.diag(rng.uniform(0.5, 3.0, k)) @ q.T
        target = np.linalg.inv(m) @ a
        rep = spectrum(target, similarity=a)
        ref = np.sort(np.linalg.eigvals(target).real)
        npt.assert_allclose(rep.eigenvalues, ref, rtol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_similarity_route_refuses_a_nonsymmetric_similar_form(self):
        # L' M L'^-1 is [[1, 2], [-2, 1]] @ diag(2, 1) with L' = diag(sqrt 2, 1):
        # not symmetric, and M's eigenvalues are 1.5 +- 2.78i, not real
        s = np.diag([2.0, 1.0])
        m = np.array([[1.0, 2.0], [-2.0, 1.0]]) @ s
        assert np.abs(np.linalg.eigvals(m).imag).max() > 2.7
        with pytest.raises(NumericError, match="not similar to a symmetric"):
            spectrum(m, similarity=s)


class TestProbe:
    def test_identity_preconditioner_probe_is_dense_operator(self, hier):
        probe = apply_columns(hier.finest)
        a = hier.finest.assemble_dense()
        # the probe sums the data term in point order, the assembly cell by cell
        npt.assert_allclose(probe, a, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max()))

    def test_probe_self_consistency(self, hier, rng):
        probe = probe_inverse_preconditioner(hier, "mg-jacobi") @ hier.finest.assemble_dense()
        k = hier.finest.size
        j = int(rng.integers(0, k))
        e = np.zeros(k)
        e[j] = 1.0
        direct = v_cycle(hier, None, hier.finest.apply(e))
        npt.assert_allclose(probe[:, j], direct, atol=1e-12 * max(1.0, np.abs(direct).max()))

    def test_jacobi_probe_eigenvalues_clustered(self, hier):
        a = hier.finest.assemble_dense()
        probe = probe_inverse_preconditioner(hier, "mg-jacobi") @ a
        rep = spectrum(probe, similarity=a)
        assert rep.eigenvalues.min() > 0.0
        assert rep.eigenvalues.max() < 2.0
        assert np.median(np.abs(rep.eigenvalues - 1.0)) < 0.5

    def test_capacity_guard(self, small_dataset_2d, monkeypatch):
        monkeypatch.setattr(system, "DENSE_CAP", 100)
        big = build_hierarchy(small_dataset_2d, 4, 1.0)
        with pytest.raises(CapacityError):
            probe_inverse_preconditioner(big)


class TestConditionImprovement:
    def test_summary_and_ratios(self, small_dataset_2d):
        hier4 = build_hierarchy(small_dataset_2d, 4, 1.0)
        reports = condition_summary(hier4)
        assert list(reports) == ["plain", "mg-jacobi", "mg-ssor"]
        plain = reports["plain"].condition_number
        jac = reports["mg-jacobi"].condition_number
        ssor = reports["mg-ssor"].condition_number
        assert plain / jac >= 20.0
        assert ssor <= jac
        for key in ("mg-jacobi", "mg-ssor"):
            eigs = reports[key].eigenvalues
            assert eigs.min() > 0.0 and eigs.max() < 2.0
        assert reports["plain"].eigenvalues.min() > 0.0

    def test_identity_probe_spectrum_equals_dense_spectrum(self, hier):
        probe = apply_columns(hier.finest)
        a = hier.finest.assemble_dense()
        npt.assert_allclose(
            spectrum(probe).eigenvalues,
            spectrum(a).eigenvalues,
            rtol=1e-8,
            atol=1e-8 * np.abs(a).max(),
        )


class TestIterationMatrix:
    @pytest.mark.parametrize("smoother", ["jacobi", "ssor"])
    def test_matches_preconditioner_probe(self, hier, smoother, rng):
        # one cycle from e with a zero right-hand side maps the error e to E e
        name = f"mg-{smoother}"
        e = rng.standard_normal(hier.finest.size)
        cycled = v_cycle(hier, e, np.zeros(e.size), smoother=vcycle_smoother(hier, name)[0])
        assert np.abs(cycled - iteration_matrix(hier, name) @ e).max() <= 1e-8

    def test_contraction_at_default_parameters(self, small_dataset_1d, small_dataset_2d):
        for data in (small_dataset_1d, small_dataset_2d):
            for lam in (0.1, 1.0, 10.0):
                h = build_hierarchy(data, 3, lam)
                assert spectral_radius(iteration_matrix(h)) < 1.0

    @pytest.mark.parametrize("build", [lambda h: iteration_matrix(h, name="none"),
                                       lambda h: preconditioner(h, "bogus")])
    def test_unknown_smoother_names_the_valid_ones(self, hier, build):
        with pytest.raises(ParameterError, match=r"expected one of \('mg-jacobi', 'mg-ssor'\)"):
            build(hier)

    def test_single_level_propagator_is_zero(self, small_dataset_2d):
        h = build_hierarchy(small_dataset_2d, 1, 1.0)
        npt.assert_array_equal(iteration_matrix(h), np.zeros((25, 25)))


def triu_reference(matrix):
    """The scaled triangle cut by `scipy.sparse.triu`, scaled by ``root[r] *
    root[c]`` and given its unit diagonal by ``setdiag``."""
    root = np.sqrt(matrix.diagonal())
    upper = scipy.sparse.triu(matrix, format="csr")
    upper.data /= np.repeat(root, np.diff(upper.indptr)) * root[upper.indices]
    upper.setdiag(1.0)
    return upper, root


class TestScaledUpperTriangle:
    @pytest.mark.parametrize("dim,levels", [(1, 5), (2, 3), (3, 3)])
    def test_row_mask_cut_equals_triu_bit_for_bit(self, dim, levels):
        data = generate_dataset(dim, 600, 0.1, seed=dim)
        stored = build_hierarchy(data, levels, 0.7).levels[0]
        windows = build_level(data, levels, 0.7)
        assert (stored.storage, windows.storage) == ("csr", "windows")
        for m in (stored.band_csr(), windows.band_csr()):
            upper, root = scaled_upper_triangle(m)
            expected, expected_root = triu_reference(m)
            for got, want in ((upper.data, expected.data), (upper.indices, expected.indices),
                              (upper.indptr, expected.indptr), (root, expected_root)):
                npt.assert_array_equal(got, want)
            assert upper.indices.dtype == upper.indptr.dtype == m.indices.dtype == np.intc


class TestSsorReference:
    def test_mgcg_ssor_needs_no_more_iterations_than_jacobi(self, small_dataset_2d):
        hier4 = build_hierarchy(small_dataset_2d, 4, 1.0)
        cfg = SolverConfig(tolerance=1e-8)
        jac = mgcg_solve(hier4, cfg=cfg)
        ssor = mgcg_solve(hier4, cfg=SolverConfig(tolerance=1e-8, preconditioner="mg-ssor"))
        assert ssor.converged and jac.converged
        assert ssor.iterations <= jac.iterations

    def test_zero_sweeps_collapse_to_smootherless_cycle(self, small_dataset_2d, rng):
        hier0 = build_hierarchy(small_dataset_2d, 3, 1.0, nu1=0, nu2=0)
        b = rng.standard_normal(hier0.finest.size)
        jacobi_result = v_cycle(hier0, None, b)
        ssor_result = v_cycle(hier0, None, b, smoother=vcycle_smoother(hier0, "mg-ssor")[0])
        npt.assert_allclose(jacobi_result, ssor_result, atol=1e-12 * max(1.0, np.abs(b).max()))

    def test_sweep_matches_gauss_seidel_loop(self, rng):
        k = 40
        m = rng.standard_normal((k, k))
        a = m @ m.T + k * np.eye(k)
        b = rng.standard_normal(k)
        start = rng.standard_normal(k)
        expected = start.copy()
        for order in (range(k), range(k - 1, -1, -1)):
            for i in order:
                expected[i] += (b[i] - a[i] @ expected) / a[i, i]
        alpha = start.copy()
        sweep(a, alpha, b)
        npt.assert_allclose(alpha, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    def test_sweep_leaves_the_stored_triangles_unchanged(self, hier, rng):
        m = hier.finest.band_csr()
        upper, root = scaled_upper_triangle(m)
        lower = upper.T
        assert lower.format == "csc" and np.shares_memory(lower.data, upper.data)
        assert upper.indices.dtype == upper.indptr.dtype == np.intc  # SuperLU's index type
        npt.assert_array_equal(upper.diagonal(), 1.0)
        npt.assert_array_equal(root, np.sqrt(m.diagonal()))
        saved = [a.copy() for a in (upper.data, upper.indices, upper.indptr, root)]
        k = m.shape[0]
        gauss_seidel_sweep(upper, root, rng.standard_normal(k), rng.standard_normal(k))
        for t in (upper, lower):
            for now, before in zip((t.data, t.indices, t.indptr, root), saved):
                npt.assert_array_equal(now, before)

    def test_sweep_exact_on_diagonal_matrix(self, rng):
        d = np.diag(rng.uniform(1.0, 3.0, 12))
        b = rng.standard_normal(12)
        alpha = np.zeros(12)
        sweep(d, alpha, b)
        npt.assert_allclose(alpha, b / np.diag(d), atol=1e-14)
