import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemg import (
    KhatriRaoFactors,
    ShapeError,
    build_space,
    gram_matrix,
    khatri_rao_gram_diag,
    khatri_rao_gram_matvec,
    khatri_rao_matvec,
    khatri_rao_tmatvec,
    kron_diagonal,
    kron_matvec,
    kron_matvec_transposed,
    subdivision_matrix,
)
from splinemg import kernels
from splinemg.system import design_factors
from oracles import dense_khatri_rao, dense_kron


def random_kron_factors(gen, max_axes=4, max_dim=4):
    num = gen.integers(1, max_axes + 1)
    return [
        gen.standard_normal((gen.integers(1, max_dim + 1), gen.integers(1, max_dim + 1)))
        for _ in range(num)
    ]


def random_kr_factors(gen, max_axes=4, max_dim=4):
    num = gen.integers(1, max_axes + 1)
    n = int(gen.integers(1, 7))
    return [gen.standard_normal((gen.integers(1, max_dim + 1), n)) for _ in range(num)], n


class TestKronMatvec:
    def test_two_factor_example(self):
        a1 = np.array([[2.0, 0.0], [0.0, 3.0]])
        a2 = np.array([[1.0, 1.0], [0.0, 1.0]])
        npt.assert_allclose(kron_matvec([a1, a2], np.ones(4)), [4.0, 2.0, 6.0, 3.0])

    def test_identity_factors(self, rng):
        x = rng.standard_normal(12)
        factors = [np.eye(3), np.eye(2), np.eye(2)]
        npt.assert_array_equal(kron_matvec(factors, x), x)

    def test_single_factor_is_plain_matvec(self, rng):
        a = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        npt.assert_allclose(kron_matvec([a], x), a @ x, atol=1e-14)

    def test_transposed_example(self):
        a1 = np.array([[2.0, 0.0], [0.0, 3.0]])
        a2 = np.array([[1.0, 1.0], [0.0, 1.0]])
        y = np.array([1.0, 0.0, 0.0, 0.0])
        npt.assert_allclose(kron_matvec_transposed([a1, a2], y), [2.0, 2.0, 0.0, 0.0])

    def test_transpose_identity_and_algebraic_consistency(self, rng):
        factors = random_kron_factors(rng)
        m = int(np.prod([f.shape[0] for f in factors]))
        y = rng.standard_normal(m)
        npt.assert_array_equal(
            kron_matvec_transposed([np.eye(3), np.eye(4)], np.arange(12.0)), np.arange(12.0)
        )
        direct = kron_matvec([f.T for f in factors], y)
        npt.assert_allclose(kron_matvec_transposed(factors, y), direct, atol=1e-13)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_oracle(self, seed):
        gen = np.random.default_rng(seed)
        factors = random_kron_factors(gen)
        dense = dense_kron(factors)
        x = gen.standard_normal(dense.shape[1])
        y = gen.standard_normal(dense.shape[0])
        scale = max(1.0, np.abs(dense).max())
        npt.assert_allclose(kron_matvec(factors, x), dense @ x, atol=1e-12 * scale)
        npt.assert_allclose(kron_matvec_transposed(factors, y), dense.T @ y, atol=1e-12 * scale)

    def test_linearity_and_adjoint(self, rng):
        factors = random_kron_factors(rng)
        n = int(np.prod([f.shape[1] for f in factors]))
        m = int(np.prod([f.shape[0] for f in factors]))
        x, z = rng.standard_normal((2, n))
        y = rng.standard_normal(m)
        a, b = rng.standard_normal(2)
        lhs = kron_matvec(factors, a * x + b * z)
        rhs = a * kron_matvec(factors, x) + b * kron_matvec(factors, z)
        npt.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))
        inner_left = kron_matvec(factors, x) @ y
        inner_right = x @ kron_matvec_transposed(factors, y)
        assert inner_left == pytest.approx(inner_right, rel=1e-12, abs=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            kron_matvec([np.eye(2), np.eye(2)], np.ones(5))
        with pytest.raises(ShapeError):
            kron_matvec_transposed([np.eye(2)], np.ones(3))

    def test_linearization_convention_first_factor_slowest(self):
        # Column (i1, i2) of the product must land at the C-order flat index.
        dims = (3, 4)
        a1, a2 = np.eye(dims[0]), np.eye(dims[1])
        x = np.zeros(np.prod(dims))
        flat = np.ravel_multi_index((1, 2), dims, order="C")
        x[flat] = 1.0
        out = kron_matvec([a1, a2], x)
        assert out[flat] == 1.0 and out.sum() == 1.0

    def test_peak_scratch_is_two_work_buffers(self, rng):
        factors = [rng.standard_normal((20, 20)) for _ in range(3)]
        x = rng.standard_normal(20**3)
        kron_matvec(factors, x)  # warm-up
        tracemalloc.start()
        kron_matvec(factors, x)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        buf = 20**3 * 8
        assert peak <= 2 * buf + 65536  # two buffers plus small overhead
        assert peak < (20**3) ** 2 * 8 / 100  # nowhere near the dense product


def random_mixed_factors(gen, max_axes=4, max_dim=6):
    """Random factors, each dense, CSR with random zeros, or a rectangular
    refinement matrix between two spline levels."""
    factors = []
    for _ in range(int(gen.integers(1, max_axes + 1))):
        kind = gen.integers(0, 3)
        if kind == 2:
            q, g = int(gen.integers(1, 6)), int(gen.integers(1, 3))
            factors.append(subdivision_matrix(build_space(0.0, 1.0, g, q),
                                              build_space(0.0, 1.0, g + 1, q)))
            continue
        m = gen.standard_normal((gen.integers(1, max_dim + 1), gen.integers(1, max_dim + 1)))
        if kind == 1:
            m[gen.random(m.shape) < 0.5] = 0.0
            m = scipy.sparse.csr_array(m)
        factors.append(m)
    return factors


class TestSparseFactors:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mixed_factors_match_dense_oracle(self, seed):
        gen = np.random.default_rng(seed)
        factors = random_mixed_factors(gen)
        dense = dense_kron(factors)
        x = gen.standard_normal(dense.shape[1])
        y = gen.standard_normal(dense.shape[0])
        scale = max(1.0, np.abs(dense).max())
        npt.assert_allclose(kron_matvec(factors, x), dense @ x, atol=1e-12 * scale)
        npt.assert_allclose(kron_matvec_transposed(factors, y), dense.T @ y, atol=1e-12 * scale)

    @pytest.mark.parametrize("layout", ["csr", "dense", "mixed"])
    def test_refinement_factors_in_every_layout(self, layout, rng):
        subs = [subdivision_matrix(build_space(0.0, 1.0, 2, q), build_space(0.0, 1.0, 3, q))
                for q in (3, 2, 4)]
        if layout == "dense":
            subs = [s.toarray() for s in subs]
        elif layout == "mixed":
            subs[1] = subs[1].toarray()
        dense = dense_kron(subs)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        npt.assert_allclose(kron_matvec(subs, x), dense @ x, atol=1e-13)
        npt.assert_allclose(kron_matvec_transposed(subs, y), dense.T @ y, atol=1e-13)

    def test_diagonal_of_sparse_gram_factors(self):
        grams = [gram_matrix(build_space(0.0, 1.0, 2, q), r) for q, r in ((3, 2), (2, 0))]
        npt.assert_array_equal(kron_diagonal(grams), np.diag(dense_kron(grams)))

    def test_rejects_factor_that_is_neither_array_nor_sparse(self):
        with pytest.raises(ShapeError):
            kron_matvec([object()], np.ones(4))
        with pytest.raises(ShapeError):
            kron_diagonal([object()])

    def test_peak_scratch_stays_vector_sized(self, rng):
        factors = [gram_matrix(build_space(0.0, 1.0, 5, 3), 2) for _ in range(3)]
        n = factors[0].shape[0] ** 3
        x = rng.standard_normal(n)
        kron_matvec(factors, x)  # warm-up
        tracemalloc.start()
        kron_matvec(factors, x)
        kron_matvec_transposed(factors, x)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 3 * n * 8 + 65536  # three work buffers, never the product


class TestKronDiagonal:
    def test_matches_dense(self, rng):
        factors = [rng.standard_normal((k, k)) for k in (2, 3, 2)]
        npt.assert_allclose(kron_diagonal(factors), np.diag(dense_kron(factors)), atol=1e-13)

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            kron_diagonal([rng.standard_normal((2, 3))])


class TestKhatriRao:
    @pytest.fixture()
    def example(self):
        return KhatriRaoFactors.from_dense(
            [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0], [5.0, 6.0]])]
        )

    def test_matvec_example(self, example):
        npt.assert_allclose(khatri_rao_matvec(example, np.ones(2)), [11.0, 17.0])

    def test_unit_vector_gives_column(self, rng):
        factors, n = random_kr_factors(rng)
        f = KhatriRaoFactors.from_dense(factors)
        dense = dense_khatri_rao(factors)
        i = int(rng.integers(0, n))
        e = np.zeros(n)
        e[i] = 1.0
        npt.assert_allclose(khatri_rao_matvec(f, e), dense[:, i], atol=1e-13)

    def test_zero_input(self, example):
        npt.assert_array_equal(khatri_rao_matvec(example, np.zeros(2)), np.zeros(2))
        npt.assert_array_equal(khatri_rao_tmatvec(example, np.zeros(2)), np.zeros(2))

    def test_tmatvec_example(self, example):
        npt.assert_allclose(khatri_rao_tmatvec(example, np.array([1.0, 0.0])), [3.0, 8.0])

    def test_round_trip_matches_dense_normal_matrix(self, rng):
        factors, n = random_kr_factors(rng)
        f = KhatriRaoFactors.from_dense(factors)
        dense = dense_khatri_rao(factors)
        x = rng.standard_normal(n)
        ref = dense.T @ (dense @ x)
        got = khatri_rao_tmatvec(f, khatri_rao_matvec(f, x))
        npt.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_gram_diag_example(self, example):
        npt.assert_allclose(khatri_rao_gram_diag(example), [73.0, 169.0])

    def test_gram_diag_all_ones_column(self):
        f = KhatriRaoFactors.from_dense([np.ones((2, 1)), np.ones((3, 1))])
        npt.assert_array_equal(khatri_rao_gram_diag(f), np.ones(6))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_oracle(self, seed):
        gen = np.random.default_rng(seed)
        factors, n = random_kr_factors(gen)
        f = KhatriRaoFactors.from_dense(factors)
        dense = dense_khatri_rao(factors)
        scale = max(1.0, np.abs(dense).max() ** 2)
        x = gen.standard_normal(n)
        y = gen.standard_normal(dense.shape[0])
        npt.assert_allclose(khatri_rao_matvec(f, x), dense @ x, atol=1e-12 * scale)
        npt.assert_allclose(khatri_rao_tmatvec(f, y), dense.T @ y, atol=1e-12 * scale)
        npt.assert_allclose(
            khatri_rao_gram_diag(f), np.diag(dense @ dense.T), atol=1e-12 * scale
        )
        npt.assert_allclose(
            khatri_rao_gram_matvec(f, y), dense @ (dense.T @ y), atol=1e-12 * scale
        )

    def test_adjoint_consistency(self, rng):
        factors, n = random_kr_factors(rng)
        f = KhatriRaoFactors.from_dense(factors)
        x = rng.standard_normal(n)
        y = rng.standard_normal(f.n_rows)
        assert khatri_rao_matvec(f, x) @ y == pytest.approx(
            x @ khatri_rao_tmatvec(f, y), rel=1e-12, abs=1e-12
        )

    def test_window_and_dense_representations_agree(self, rng):
        # Compressed windows must represent the same operator as dense
        # factors whose rows vanish outside the windows.
        n, dims, width = 30, (7, 6), 3
        offsets = np.column_stack(
            [rng.integers(0, d - width + 1, size=n) for d in dims]
        ).astype(np.int64)
        windows = [rng.standard_normal((n, width)) for _ in dims]
        f = KhatriRaoFactors.from_windows(dims, offsets, windows)
        dense_factors = []
        for p, d in enumerate(dims):
            m = np.zeros((d, n))
            for i in range(n):
                m[offsets[i, p] : offsets[i, p] + width, i] = windows[p][i]
            dense_factors.append(m)
        dense = dense_khatri_rao(dense_factors)
        x = rng.standard_normal(n)
        y = rng.standard_normal(f.n_rows)
        npt.assert_allclose(khatri_rao_matvec(f, x), dense @ x, atol=1e-12)
        npt.assert_allclose(khatri_rao_tmatvec(f, y), dense.T @ y, atol=1e-12)
        npt.assert_allclose(f.toarray(), dense, atol=1e-14)

    def test_shape_errors(self, example):
        with pytest.raises(ShapeError):
            khatri_rao_matvec(example, np.ones(3))
        with pytest.raises(ShapeError):
            khatri_rao_tmatvec(example, np.ones(3))
        with pytest.raises(ShapeError):
            KhatriRaoFactors.from_dense([np.ones((2, 2)), np.ones((2, 3))])


class TestKernels:
    """The window kernels against the densified operator, across several
    chunk boundaries."""

    @pytest.fixture(scope="class")
    def windows(self, rng):
        dims, width = (9, 8), 4
        n = 3 * (kernels.CHUNK_ENTRIES // width ** len(dims)) + 17
        offsets = np.column_stack(
            [rng.integers(0, d - width + 1, size=n) for d in dims]
        ).astype(np.int64)
        windows = [rng.standard_normal((n, width)) for _ in dims]
        f = KhatriRaoFactors.from_windows(dims, offsets, windows)
        dense_factors = []
        for p, d in enumerate(dims):
            m = np.zeros((d, n))
            m[offsets[:, p, None] + np.arange(width), np.arange(n)[:, None]] = windows[p]
            dense_factors.append(m)
        dense = f.toarray()
        npt.assert_allclose(dense, dense_khatri_rao(dense_factors), atol=1e-14)
        return f, dense

    @pytest.mark.parametrize(
        "name", ["scatter", "gather", "scatter_squares", "gram_matvec"]
    )
    def test_kernel_matches_dense(self, name, windows, rng):
        f, dense = windows
        x_cols = rng.standard_normal(f.n_cols)
        x_rows = rng.standard_normal(f.n_rows)
        args = (f.axis_windows(), f.base, f.rel)
        if name == "scatter":
            out, ref = kernels.scatter(*args, x_cols, np.zeros(f.n_rows)), dense @ x_cols
        elif name == "gather":
            out = kernels.gather(f.axis_windows(), f.base, f.rel, x_rows, np.empty(f.n_cols))
            ref = dense.T @ x_rows
        elif name == "scatter_squares":
            out, ref = kernels.scatter_squares(*args, np.zeros(f.n_rows)), (dense**2).sum(axis=1)
        else:
            out = kernels.gram_matvec(*args, x_rows, np.zeros(f.n_rows))
            ref = dense @ (dense.T @ x_rows)
        npt.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class TestWindowKernelsAcrossDimensions:
    """The pass kernels and `KhatriRaoFactors.toarray` for P = 1..4 and
    unequal window widths, over several chunks of window entries."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_kernels_match_dense_factors(self, data):
        num_axes = data.draw(st.integers(1, 4), label="P")
        degrees = data.draw(st.lists(st.integers(1, 4), min_size=num_axes,
                                     max_size=num_axes), label="degrees")
        level = data.draw(st.integers(1, 2 if num_axes <= 2 else 1), label="level")
        one_cell = data.draw(st.booleans(), label="one_cell")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
        ncomb = int(np.prod([q + 1 for q in degrees]))
        step = max(1, kernels.CHUNK_ENTRIES // ncomb)
        n = 3 * step + int(gen.integers(1, step + 1))
        spaces = tuple(build_space(0.0, 1.0, level, q) for q in degrees)
        points = gen.random((n, num_axes))
        if one_cell:
            # every point in the top cell of each axis
            points = 1.0 - 0.5**level * points
        # points on the upper boundary, on one axis and on all of them
        points[::7, int(gen.integers(num_axes))] = 1.0
        points[-1] = 1.0
        f = design_factors(spaces, points)
        # dense factors straight from the windows, then their columnwise
        # Kronecker product without the window odometer
        dense, cols = np.ones((1, n)), np.arange(n)[:, None]
        for p, s in enumerate(spaces):
            m = np.zeros((s.dim, n))
            m[f.offsets[:, p, None] + np.arange(f.counts[p]), cols] = f.values[:, p, : f.counts[p]]
            dense = (dense[:, None, :] * m[None, :, :]).reshape(-1, n)
        x_cols = gen.standard_normal(n)
        x_rows = gen.standard_normal(f.n_rows)
        args = (f.axis_windows(), f.base, f.rel)
        checks = {
            "scatter": (kernels.scatter(*args, x_cols, np.zeros(f.n_rows)), dense @ x_cols),
            "gather": (kernels.gather(f.axis_windows(), f.base, f.rel, x_rows, np.empty(n)),
                       dense.T @ x_rows),
            "scatter_squares": (kernels.scatter_squares(*args, np.zeros(f.n_rows)),
                                (dense**2).sum(axis=1)),
            "gram_matvec": (kernels.gram_matvec(*args, x_rows, np.zeros(f.n_rows)),
                            dense @ (dense.T @ x_rows)),
        }
        for name, (out, ref) in checks.items():
            npt.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(),
                                err_msg=name)
        npt.assert_allclose(f.toarray(), dense, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("counts", [(4,), (4, 3), (4, 3, 5), (2, 5, 3, 4)])
    def test_window_weights_are_the_odometer_products(self, counts, rng):
        n = 50
        vals = rng.standard_normal((n, len(counts), max(counts)))
        digits = np.stack(np.unravel_index(np.arange(int(np.prod(counts))), counts), axis=1)
        lo, hi = 7, 41
        ref = vals[lo:hi, 0, digits[:, 0]]
        for p in range(1, len(counts)):
            ref = ref * vals[lo:hi, p, digits[:, p]]
        values = [vals[:, p, :c] for p, c in enumerate(counts)]
        npt.assert_array_equal(kernels._window_weights(values, lo, hi), ref)

    @pytest.mark.parametrize("num_axes", [1, 2, 3, 4])
    def test_gram_matvec_scratch_is_bounded_by_chunk_entries(self, num_axes, rng):
        dims, width = (10,) * num_axes, 4
        n = 4 * (kernels.CHUNK_ENTRIES // width**num_axes) + 3
        offsets = np.column_stack(
            [rng.integers(0, d - width + 1, size=n) for d in dims]
        ).astype(np.int64)
        f = KhatriRaoFactors.from_windows(
            dims, offsets, [rng.standard_normal((n, width)) for _ in dims]
        )
        x = rng.standard_normal(f.n_rows)
        out = np.zeros(f.n_rows)
        tracemalloc.start()
        kernels.gram_matvec(f.axis_windows(), f.base, f.rel, x, out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 6 * kernels.CHUNK_ENTRIES * 8 + 2 * out.nbytes
