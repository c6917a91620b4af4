from math import comb

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemg import bsplines
from splinemg import (
    DomainError,
    ParameterError,
    build_space,
    eval_basis_batch,
    gram_matrix,
    greville_points,
    subdivision_matrix,
)
from oracles import dense_basis_matrix, quad_gram_entry, scipy_basis_column


class TestBuildSpace:
    def test_dimension_at_level_five(self):
        assert build_space(0.0, 1.0, 5, 3).dim == 35

    def test_level_one_cubic(self):
        sp = build_space(0.0, 1.0, 1, 3)
        assert sp.dim == 5
        npt.assert_allclose(sp.knots[sp.degree + 1 : -(sp.degree + 1)], [0.5])

    def test_linear_on_wider_interval(self):
        sp = build_space(0.0, 2.0, 2, 1)
        assert sp.mesh_width == 0.5
        assert sp.dim == 5
        npt.assert_allclose(sp.knots, [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])

    def test_knots_uniform_and_extended(self):
        sp = build_space(-1.0, 3.0, 3, 4)
        npt.assert_allclose(np.diff(sp.knots), sp.mesh_width)
        assert sp.knots[0] == pytest.approx(-1.0 - 4 * sp.mesh_width)
        assert sp.knots[-1] == pytest.approx(3.0 + 4 * sp.mesh_width)
        assert sp.knots[sp.degree] == pytest.approx(-1.0)
        assert sp.dim == 2**3 + 4

    @pytest.mark.parametrize(
        "args", [(1.0, 0.0, 2, 3), (0.0, 1.0, 0, 3), (0.0, 1.0, 2, 0), (0.0, 1.0, 2, 6),
                 # non-integers, which int() would truncate or turn into 1
                 (0.0, 1.0, 2.5, 3), (0.0, 1.0, True, 3), (0.0, 1.0, "3", 3),
                 (0.0, 1.0, 3, 2.5), (0.0, 1.0, 3, True), (0.0, 1.0, 3, np.float64(3.0))]
    )
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ParameterError):
            build_space(*args)

    def test_accepts_numpy_integers(self):
        sp = build_space(0.0, 1.0, np.int64(3), np.int32(3))
        assert (sp.level, sp.degree, sp.dim) == (3, 3, 11)
        assert type(sp.level) is int and type(sp.degree) is int


class TestEvalBasis:
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity(self, x, degree):
        sp = build_space(0.0, 1.0, 3, degree)
        _, values = eval_basis_batch(sp, [x], 0)
        assert values.shape == (1, degree + 1)
        assert values.min() >= -1e-15
        assert abs(values.sum() - 1.0) <= 1e-12

    def test_hat_function_at_interior_knot(self):
        sp = build_space(0.0, 1.0, 2, 1)
        _, values = eval_basis_batch(sp, [0.5], 0)
        assert sorted(np.round(values[0], 12)) == [0.0, 1.0]

    def test_cardinal_cubic_values_at_knot(self):
        # Cardinal cubic B-spline takes 1/6, 4/6, 1/6 at its interior knots.
        sp = build_space(0.0, 1.0, 3, 3)
        _, values = eval_basis_batch(sp, [0.5], 0)
        npt.assert_allclose(np.sort(values[0]), [0.0, 1 / 6, 1 / 6, 4 / 6], atol=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_matches_scipy_all_derivative_orders(self, degree, rng):
        sp = build_space(0.25, 1.75, 2, degree)
        x = np.concatenate([rng.uniform(0.25, 1.75, 40), sp.knots[degree : sp.dim + 1]])
        for r in range(degree + 1):
            offsets, values = eval_basis_batch(sp, x, r)
            dense = np.zeros((x.size, sp.dim))
            cols = offsets[:, None] + np.arange(degree + 1)[None, :]
            dense[np.arange(x.size)[:, None], cols] = values
            ref = dense_basis_matrix(sp, x, r)
            npt.assert_allclose(dense, ref, atol=1e-10 * max(1.0, np.abs(ref).max()))

    def test_first_derivative_matches_finite_differences(self, rng):
        sp = build_space(0.0, 1.0, 3, 3)
        x = rng.uniform(0.1, 0.9, 25)
        step = 1e-6
        _, d1 = eval_basis_batch(sp, x, 1)
        off_p, vp = eval_basis_batch(sp, x + step, 0)
        off_m, vm = eval_basis_batch(sp, x - step, 0)
        keep = off_p == off_m  # same activation window on both sides
        fd = (vp[keep] - vm[keep]) / (2 * step)
        npt.assert_allclose(d1[keep], fd, rtol=1e-5, atol=1e-5)

    def test_right_endpoint_belongs_to_last_interval(self):
        sp = build_space(0.0, 1.0, 2, 3)
        offsets, values = eval_basis_batch(sp, [1.0], 0)
        assert offsets[0] == sp.dim - sp.degree - 1
        assert values.sum() == pytest.approx(1.0)

    def test_rejects_out_of_domain(self):
        sp = build_space(0.0, 1.0, 2, 3)
        with pytest.raises(DomainError):
            eval_basis_batch(sp, [1.0 + 1e-9], 0)
        with pytest.raises(DomainError):
            eval_basis_batch(sp, [-0.1], 0)

    def test_rejects_bad_derivative_order(self):
        sp = build_space(0.0, 1.0, 2, 3)
        with pytest.raises(ParameterError):
            eval_basis_batch(sp, [0.5], 4)


class TestGramMatrix:
    def test_linear_mass_stencil(self):
        sp = build_space(0.0, 1.0, 3, 1)
        g = gram_matrix(sp, 0)
        h = sp.mesh_width
        npt.assert_allclose(g.diagonal(0)[1:-1], 2 * h / 3, rtol=1e-13)
        npt.assert_allclose(g.diagonal(1)[1:-1], h / 6, rtol=1e-13)

    def test_linear_stiffness_stencil(self):
        sp = build_space(0.0, 1.0, 3, 1)
        g = gram_matrix(sp, 1)
        h = sp.mesh_width
        npt.assert_allclose(g.diagonal(0)[1:-1], 2 / h, rtol=1e-13)
        npt.assert_allclose(g.diagonal(1)[1:-1], -1 / h, rtol=1e-13)

    @pytest.mark.parametrize("degree,deriv", [(2, 0), (3, 0), (3, 1), (3, 2), (4, 2), (5, 3)])
    def test_matches_quadrature_oracle(self, degree, deriv):
        sp = build_space(0.0, 1.0, 2, degree)
        dense = gram_matrix(sp, deriv).toarray()
        for j, l in [(0, 0), (1, 2), (2, 2), (3, 1), (sp.dim - 1, sp.dim - 1)]:
            ref = quad_gram_entry(sp, j, l, deriv)
            assert dense[j, l] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_band_structure_symmetry_and_psd(self, degree):
        sp = build_space(0.0, 1.0, 3, degree)
        for deriv in range(degree + 1):
            dense = gram_matrix(sp, deriv).toarray()
            npt.assert_array_equal(dense, dense.T)
            i, j = np.indices(dense.shape)
            assert np.all(dense[np.abs(i - j) > degree] == 0.0)
            floor = -1e-12 * max(1.0, np.abs(dense).max())
            assert np.linalg.eigvalsh(dense).min() >= floor

    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_csr_holds_the_bands(self, degree):
        for level in (1, 4):
            sp = build_space(0.0, 1.0, level, degree)
            for deriv in range(degree + 1):
                g = gram_matrix(sp, deriv)
                assert isinstance(g, scipy.sparse.csr_array) and g.has_canonical_format
                # the 2q + 1 diagonals, less the q(q + 1) corner entries
                assert g.nnz == (2 * degree + 1) * sp.dim - degree * (degree + 1)

    def test_rejects_order_above_degree(self):
        with pytest.raises(ParameterError):
            gram_matrix(build_space(0.0, 1.0, 2, 2), 3)

    @pytest.mark.parametrize("lower,upper,level", [
        (0.0, 1.0, 1), (0.0, 1.0, 4), (0.0, 1.0, 9), (-2.5, 7.0, 9),
    ])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_equals_per_interval_loop(self, lower, upper, level, degree):
        sp = build_space(lower, upper, level, degree)
        for deriv in range(degree + 1):
            g, ref = gram_matrix(sp, deriv), loop_gram_bands(sp, deriv)
            for d in range(degree + 1):
                npt.assert_array_equal(g.diagonal(d), ref[d, : sp.dim - d])
                npt.assert_array_equal(g.diagonal(-d), ref[d, : sp.dim - d])
                assert (ref[d, sp.dim - d:] == 0.0).all()

    def test_one_basis_evaluation_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return eval_basis_batch(*args, **kwargs)

        monkeypatch.setattr(bsplines, "eval_basis_batch", counted)
        sp = build_space(0.0, 1.0, 6, 3)
        gram_matrix(sp, 2)
        assert calls == [(sp.num_intervals * 2,)]


def loop_gram_bands(space, deriv):
    """Gram bands by one quadrature per knot interval, added interval by
    interval: the reference that `gram_matrix` must reproduce exactly."""
    q = space.degree
    nodes, weights = np.polynomial.legendre.leggauss(q - deriv + 1)
    h = space.mesh_width
    bands = np.zeros((q + 1, space.dim))
    for t in range(space.num_intervals):
        xg = (space.lower + t * h) + 0.5 * h * (nodes + 1.0)
        wg = 0.5 * h * weights
        offsets, vals = eval_basis_batch(space, xg, deriv)
        assert (offsets == t).all()
        local = (vals * wg[:, None]).T @ vals
        for d in range(q + 1):
            for i in range(q + 1 - d):
                bands[d, t + i] += local[i, i + d]
    return bands


class TestIndexType:
    def test_builders_use_32_bit_indices(self):
        coarse, fine = build_space(0.0, 1.0, 3, 3), build_space(0.0, 1.0, 4, 3)
        for m in (gram_matrix(fine, 2), subdivision_matrix(coarse, fine)):
            assert m.indices.dtype == m.indptr.dtype == np.intc

    def test_64_bit_beyond_the_32_bit_range(self):
        top = int(np.iinfo(np.intc).max)
        assert bsplines.csr_index_dtype(top) is np.intc
        assert bsplines.csr_index_dtype(top + 1) is np.int64


class TestSubdivision:
    def test_cubic_weight_pattern(self):
        coarse, fine = build_space(0.0, 1.0, 3, 3), build_space(0.0, 1.0, 4, 3)
        arr = subdivision_matrix(coarse, fine).toarray()
        j = coarse.dim // 2  # interior column, full pattern
        col = arr[:, j]
        nz = np.flatnonzero(col)
        npt.assert_allclose(col[nz], np.array([1, 4, 6, 4, 1]) / 8)

    def test_linear_weight_pattern(self):
        coarse, fine = build_space(0.0, 1.0, 3, 1), build_space(0.0, 1.0, 4, 1)
        arr = subdivision_matrix(coarse, fine).toarray()
        col = arr[:, coarse.dim // 2]
        npt.assert_allclose(col[np.flatnonzero(col)], np.array([1, 2, 1]) / 2)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_csr_equals_binomial_pattern(self, degree):
        for level in (1, 2, 5):
            coarse = build_space(0.0, 1.0, level, degree)
            fine = build_space(0.0, 1.0, level + 1, degree)
            sub = subdivision_matrix(coarse, fine)
            ref = np.zeros((fine.dim, coarse.dim))
            for j in range(coarse.dim):
                for k in range(degree + 2):
                    if 0 <= 2 * j + k - degree < fine.dim:
                        ref[2 * j + k - degree, j] = comb(degree + 1, k) / 2**degree
            assert scipy.sparse.issparse(sub) and sub.has_canonical_format
            assert sub.shape == (fine.dim, coarse.dim)
            assert sub.nnz == np.count_nonzero(ref)
            npt.assert_array_equal(sub.toarray(), ref)

    def test_interior_columns_sum_to_two_and_rows_to_one(self):
        for q in (1, 2, 3, 4, 5):
            coarse, fine = build_space(0.0, 1.0, 2, q), build_space(0.0, 1.0, 3, q)
            arr = subdivision_matrix(coarse, fine).toarray()
            sums = arr.sum(axis=0)
            interior = (np.arange(coarse.dim) * 2 - q >= 0) & (
                np.arange(coarse.dim) * 2 + 1 < fine.dim
            )
            npt.assert_allclose(sums[interior], 2.0)
            npt.assert_allclose(arr.sum(axis=1), 1.0, atol=1e-14)

    @given(
        st.integers(min_value=1, max_value=3),
        st.sampled_from([1, 2, 3, 4, 5]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_refinement_reproduces_coarse_spline(self, level, degree, seed):
        coarse = build_space(0.0, 1.0, level, degree)
        fine = build_space(0.0, 1.0, level + 1, degree)
        sub = subdivision_matrix(coarse, fine)
        gen = np.random.default_rng(seed)
        alpha = gen.standard_normal(coarse.dim)
        beta = sub.toarray() @ alpha
        x = gen.random(50)
        s_coarse = dense_basis_matrix(coarse, x) @ alpha
        s_fine = dense_basis_matrix(fine, x) @ beta
        npt.assert_allclose(s_fine, s_coarse, atol=1e-12)

    def test_rejects_mismatched_spaces(self):
        with pytest.raises(ParameterError):
            subdivision_matrix(build_space(0.0, 1.0, 2, 3), build_space(0.0, 1.0, 3, 2))
        with pytest.raises(ParameterError):
            subdivision_matrix(build_space(0.0, 1.0, 2, 3), build_space(0.0, 2.0, 3, 3))
        with pytest.raises(ParameterError):
            subdivision_matrix(build_space(0.0, 1.0, 2, 3), build_space(0.0, 1.0, 4, 3))


def test_greville_coefficients_reproduce_affine_function(rng):
    sp = build_space(0.0, 1.0, 3, 3)
    coeffs = 0.7 + 1.9 * greville_points(sp)
    x = rng.random(40)
    values = dense_basis_matrix(sp, x) @ coeffs
    npt.assert_allclose(values, 0.7 + 1.9 * x, atol=1e-12)


def test_basis_column_matches_scipy_single_function(rng):
    sp = build_space(0.0, 1.0, 2, 3)
    x = rng.random(30)
    offsets, values = eval_basis_batch(sp, x, 0)
    j = 3
    mine = np.where(
        (offsets <= j) & (j <= offsets + sp.degree),
        values[np.arange(x.size), np.clip(j - offsets, 0, sp.degree)],
        0.0,
    )
    npt.assert_allclose(mine, scipy_basis_column(sp, j)(x), atol=1e-13)
