import os
import re
import subprocess
import sys
from functools import reduce

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse

from splinemg import (
    CapacityError,
    DomainError,
    ParameterError,
    ScatteredDataset,
    ShapeError,
    build_hierarchy,
    build_level,
    build_space,
    generate_dataset,
    gram_matrix,
    greville_points,
    penalty_terms,
)
from splinemg import kernels, system
from splinemg.bsplines import eval_basis_batch
from splinemg.system import LevelOperator, design_factors, evaluate_spline
from splinemg.tensorops import stored_bytes
from conftest import make_dataset
from oracles import dense_rhs, dense_system_matrix, dense_tensor_design


def assembled_level(data, level, lam, degrees=3, with_rhs=False):
    """The CSR level built from the `band_csr` (and, with ``with_rhs``, the
    `rhs`) of a windows level, as `build_hierarchy` builds one."""
    windows = LevelOperator(data, level, lam, degrees)
    return LevelOperator(data, level, lam, degrees, matrix=windows.band_csr(),
                         rhs=windows.rhs() if with_rhs else None)


class TestConstruction:
    def test_system_dimension_2d_level5(self, small_dataset_2d):
        assert build_level(small_dataset_2d, 5, 1.0).size == 1225

    def test_system_dimension_3d_level5(self):
        data = make_dataset(3, 50, seed=0)
        assert build_level(data, 5, 1.0).size == 42875

    def test_penalty_term_count_and_weights_2d(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 2, 1.0)
        weights = sorted(t.weight for t in op.penalty)
        assert weights == [1.0, 1.0, 2.0]
        orders = {t.orders for t in op.penalty}
        assert orders == {(2, 0), (0, 2), (1, 1)}

    def test_penalty_term_count_3d(self):
        terms = penalty_terms(build_level(make_dataset(3, 20, seed=1), 1, 1.0).spaces)
        assert len(terms) == 3 + 3  # pure plus mixed pairs

    def test_penalty_factors_are_csr_grams(self):
        spaces = tuple(build_space(0.0, 1.0, 3, q) for q in (3, 2, 4))
        terms = penalty_terms(spaces)
        for term in terms:
            for space, order, factor in zip(spaces, term.orders, term.factors):
                assert isinstance(factor, scipy.sparse.csr_array)
                npt.assert_array_equal(factor.toarray(), gram_matrix(space, order).toarray())

    def test_rejects_nonpositive_lambda(self, small_dataset_2d):
        with pytest.raises(ParameterError):
            build_level(small_dataset_2d, 2, 0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_rejects_non_finite_lambda(self, small_dataset_2d, lam):
        with pytest.raises(ParameterError, match="finite and positive"):
            build_level(small_dataset_2d, 2, lam)
        with pytest.raises(ParameterError, match="finite and positive"):
            build_hierarchy(small_dataset_2d, 3, lam)

    @pytest.mark.parametrize("shape", [(300, 0), (300, 2, 2)], ids=["no-axes", "3-d"])
    def test_rejects_points_that_are_not_1d_or_2d_with_axes(self, shape):
        points = np.random.default_rng(0).random(shape)
        with pytest.raises(ShapeError, match=re.escape(f"got {shape}")):
            ScatteredDataset(points, np.zeros(300))

    def test_rejects_out_of_domain_points(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, -0.2]])
        with pytest.raises(DomainError) as err:
            ScatteredDataset(pts, np.zeros(3))
        assert "1" in str(err.value) and "2" in str(err.value)  # offending indices

    @pytest.mark.parametrize("bounds,axis", [
        ([[np.nan, 1.0], [0.0, 1.0]], 0),
        ([[-np.inf, 1.0], [0.0, 1.0]], 0),
        ([[0.0, np.inf], [0.0, 1.0]], 0),
        ([[1.0, 0.0], [0.0, 1.0]], 0),
        ([[0.0, 1.0], [0.5, 0.5]], 1),
    ], ids=["nan", "minus-inf", "inf", "reversed", "empty"])
    def test_rejects_invalid_bounds(self, bounds, axis):
        points = np.random.default_rng(0).random((300, 2))
        with pytest.raises(ParameterError, match=f"axis {axis} bounds .* must be finite "
                                                 "with lower < upper"):
            ScatteredDataset(points, np.zeros(300), bounds)

    @pytest.mark.parametrize("degrees", [2.5, 3.9, True, (3, 2.7), (3, np.float64(3.0))])
    def test_rejects_non_integer_degrees(self, small_dataset_2d, degrees):
        with pytest.raises(ParameterError, match="degree must be an integer"):
            system.normalize_degrees(degrees, 2)
        with pytest.raises(ParameterError, match="degree must be an integer"):
            build_hierarchy(small_dataset_2d, 3, 1.0, degrees=degrees)

    def test_accepts_numpy_integer_degrees(self):
        assert system.normalize_degrees(np.int64(3), 2) == (3, 3)
        assert system.normalize_degrees(np.array([3, 4]), 2) == (3, 4)

    @pytest.mark.parametrize("level", [2.5, True, 2.0])
    def test_level_operator_rejects_non_integer_level(self, small_dataset_2d, level):
        with pytest.raises(ParameterError, match="level must be an integer"):
            LevelOperator(small_dataset_2d, level, 1.0)

    def test_design_rows_sum_to_one(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 3, 1.0)
        for p in range(2):
            w = op.design.values[:, p, : op.spaces[p].degree + 1]
            npt.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("num_axes,level", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)])
class TestAgainstDenseOracle:
    def test_apply_rhs_diagonal(self, num_axes, level, rng):
        data = make_dataset(num_axes, 200, seed=level)
        op = build_level(data, level, 0.7)
        dense = dense_system_matrix(op)
        scale = np.abs(dense).max()
        for _ in range(10):
            alpha = rng.standard_normal(op.size)
            ref = dense @ alpha
            npt.assert_allclose(op.apply(alpha), ref, atol=1e-10 * max(scale, 1.0))
        npt.assert_allclose(op.rhs(), dense_rhs(op), rtol=1e-12, atol=1e-12)
        npt.assert_allclose(op.diagonal(), np.diag(dense), rtol=1e-12, atol=1e-12 * scale)

    def test_assemble_dense_matches_oracle(self, num_axes, level):
        # the larger input spans several kernel chunks (degree 3: 4**P
        # window entries per point)
        for n in (60, kernels.CHUNK_ENTRIES // 4**num_axes + 500):
            data = make_dataset(num_axes, n, seed=level + 10)
            op = build_level(data, level, 0.7)
            a = op.assemble_dense()
            ref = dense_system_matrix(op)
            npt.assert_allclose(a, ref, atol=1e-10 * max(1.0, np.abs(ref).max()))


class TestApply:
    def test_zero_maps_to_zero(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 3, 1.0)
        npt.assert_array_equal(op.apply(np.zeros(op.size)), np.zeros(op.size))

    def test_symmetry(self, small_dataset_2d, rng):
        op = build_level(small_dataset_2d, 3, 1.0)
        a, b = rng.standard_normal((2, op.size))
        assert op.apply(a) @ b == pytest.approx(a @ op.apply(b), rel=1e-10)

    def test_affine_in_lambda(self, small_dataset_2d, rng):
        op1 = build_level(small_dataset_2d, 2, 1.0)
        op2 = build_level(small_dataset_2d, 2, 2.0)
        op7 = build_level(small_dataset_2d, 2, 7.5)
        x = rng.standard_normal(op1.size)
        data_part = 2 * op1.apply(x) - op2.apply(x)  # eliminates the penalty
        penalty_part = op2.apply(x) - op1.apply(x)
        npt.assert_allclose(
            op7.apply(x),
            data_part + 7.5 * penalty_part,
            rtol=1e-12,
            atol=1e-12 * np.abs(op7.apply(x)).max(),
        )

    def test_shape_error(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 2, 1.0)
        with pytest.raises(ShapeError):
            op.apply(np.ones(op.size + 1))


class TestRhs:
    def test_zero_responses(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 3, 1.0)
        npt.assert_array_equal(op.rhs(np.zeros(small_dataset_2d.n)), np.zeros(op.size))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_responses_refused(self, small_dataset_2d, bad):
        y = small_dataset_2d.responses.copy()
        y[7] = bad
        for op in (build_level(small_dataset_2d, 3, 1.0),
                   assembled_level(small_dataset_2d, 3, 1.0, with_rhs=True)):
            with pytest.raises(ParameterError, match=r"responses must be finite, y\[7\]"):
                op.rhs(y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_objective_refuses_non_finite_responses_as_rhs_does(self, small_dataset_2d, bad):
        y = small_dataset_2d.responses.copy()
        y[7] = bad
        for op in (build_level(small_dataset_2d, 3, 1.0),
                   assembled_level(small_dataset_2d, 3, 1.0, with_rhs=True)):
            with pytest.raises(ParameterError) as from_rhs:
                op.rhs(y)
            with pytest.raises(ParameterError) as from_objective:
                op.objective(np.zeros(op.size), y)
            assert str(from_objective.value) == str(from_rhs.value) == (
                f"responses must be finite, y[7] is {bad}")

    def test_kept_rhs_is_shape_checked(self, small_dataset_2d):
        windows = build_level(small_dataset_2d, 3, 1.0)
        with pytest.raises(ShapeError, match="expected vector of length 121"):
            LevelOperator(small_dataset_2d, 3, 1.0, matrix=windows.band_csr(),
                          rhs=windows.rhs()[:-1])

    def test_single_point_scatters_activation(self):
        # Definition check of B'y for one observation: with linear splines the
        # hat-function weights land verbatim at the active offset.  (Degree 1
        # carries no second-order penalty, so this exercises the design
        # factors directly.)
        from splinemg import build_space, khatri_rao_matvec
        from splinemg.system import design_factors

        space = build_space(0.0, 1.0, 2, 1)
        factors = design_factors((space,), np.array([[0.5]]))
        r = khatri_rao_matvec(factors, np.array([1.0]))
        off = int(factors.offsets[0, 0])
        expected = np.zeros(space.dim)
        expected[off : off + 2] = factors.values[0, 0, :2]
        npt.assert_allclose(r, expected, atol=1e-14)
        assert expected.sum() == pytest.approx(1.0)

    def test_single_point_rhs_through_operator(self):
        data = ScatteredDataset(np.array([[0.5]]), np.array([1.0]))
        op = build_level(data, 2, 1.0)
        expected = np.zeros(op.size)
        off = int(op.design.offsets[0, 0])
        expected[off : off + 4] = op.design.values[0, 0, :4]
        npt.assert_allclose(op.rhs(), expected, atol=1e-14)


    def test_assembled_level_keeps_rhs_of_training_responses(self, monkeypatch, rng):
        data = make_dataset(2, 300, seed=12)
        op = assembled_level(data, 3, 1.0, with_rhs=True)
        kept = op.rhs()
        npt.assert_allclose(kept, dense_rhs(op), rtol=1e-12, atol=1e-12)
        penalty = sum(stored_bytes(g) for t in op.penalty for g in t.factors)
        helpers = op.design.rel.nbytes
        # CSR, penalty factors, window offsets rel, diagonal and the kept B'y
        assert op.memory_bytes() == stored_bytes(op.matrix) + penalty + helpers + 16 * op.size
        y = rng.standard_normal(data.n)
        npt.assert_allclose(op.rhs(y), dense_rhs(op, y), rtol=1e-12, atol=1e-12)
        # the default right-hand side is a copy of the kept vector, formed
        # without evaluating the basis again
        monkeypatch.setattr("splinemg.system.design_factors", None)
        kept[:] = 0.0
        npt.assert_allclose(op.rhs(), dense_rhs(op), rtol=1e-12, atol=1e-12)


class TestAbsApply:
    @pytest.mark.parametrize("num_axes", [1, 2])
    def test_matches_dense_absolute_operators(self, num_axes, rng):
        data = make_dataset(num_axes, 150, seed=num_axes)
        op = build_level(data, 2, 0.7)
        v = np.abs(rng.standard_normal(op.size))
        design = dense_tensor_design(op.spaces, data.points)
        penalty_bound = sum(
            (op.lam * t.weight) * reduce(np.kron, [np.abs(g.toarray()) for g in t.factors])
            for t in op.penalty)
        windows = op.abs_apply(v)
        npt.assert_allclose(windows, (design.T @ design + penalty_bound) @ v, rtol=1e-12)
        assembled = assembled_level(data, 2, 0.7).abs_apply(v)
        npt.assert_allclose(assembled, np.abs(dense_system_matrix(op)) @ v, rtol=1e-12)
        assert np.all(assembled <= windows * (1 + 1e-12))


class TestDiagonal:
    def test_strictly_positive_small_lambda(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 3, 1e-6)
        assert op.diagonal().min() > 0.0

    def test_cached(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 2, 1.0)
        assert op.diagonal() is op.diagonal()

    def test_large_lambda_dominated_by_penalty(self, small_dataset_2d):
        from splinemg import kron_diagonal

        big = build_level(small_dataset_2d, 2, 1e9)
        penalty_diag = sum(
            t.weight * kron_diagonal(t.factors) for t in big.penalty
        )
        npt.assert_allclose(big.diagonal(), 1e9 * penalty_diag, rtol=1e-6)

    @pytest.mark.parametrize("lam", [1e308, 1e306])
    def test_overflowing_lambda_names_it(self, small_dataset_2d, lam):
        message = re.escape(f"smoothing parameter {lam:g} overflows")
        for make in (build_level, assembled_level):
            with pytest.raises(ParameterError, match=message):
                with np.errstate(over="ignore", invalid="ignore"):
                    make(small_dataset_2d, 3, lam).diagonal()


class TestBandCsr:
    def test_assembled_level_returns_its_stored_matrix(self, small_dataset_2d):
        op = assembled_level(small_dataset_2d, 3, 1.0)
        assert op.band_csr() is op.matrix

    def test_windows_level_builds_one_and_stays_matrix_free(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 3, 1.0)
        m = op.band_csr()
        assert op.storage == "windows" and op.size == 121
        assert m.indices.dtype == m.indptr.dtype == np.intc

    def test_every_assembled_level_has_32_bit_indices(self):
        hier = build_hierarchy(generate_dataset(1, 20000, 0.1, seed=0), 8, 1.0)
        assert [op.storage for op in hier.levels] == ["csr"] * 8
        for op in hier.levels:
            assert op.matrix.indices.dtype == op.matrix.indptr.dtype == np.intc


class TestAssembleDense:
    def test_columns_equal_operator_action(self, small_dataset_1d):
        op = build_level(small_dataset_1d, 2, 1.0)
        a = op.assemble_dense()
        scale = max(1.0, np.abs(a).max())
        for j in range(op.size):
            e = np.zeros(op.size)
            e[j] = 1.0
            npt.assert_allclose(a[:, j], op.apply(e), atol=1e-12 * scale)
        assert np.abs(a - a.T).max() <= 1e-12 * scale

    def test_smallest_size(self, small_dataset_1d):
        op = build_level(small_dataset_1d, 1, 1.0)
        assert op.assemble_dense().shape == (5, 5)

    def test_positive_definite(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 2, 1.0)
        assert np.linalg.eigvalsh(op.assemble_dense()).min() > 0.0

    def test_capacity_error(self, small_dataset_2d, monkeypatch):
        op = build_level(small_dataset_2d, 5, 1.0)
        monkeypatch.setattr(system, "DENSE_CAP", 100)
        with pytest.raises(CapacityError):
            op.assemble_dense()

    @pytest.mark.parametrize("level,degrees", [
        (3, (3,)), (3, (3, 3)), (2, (3, 3, 3)), (2, (3, 2, 4)),
    ])
    def test_windows_level_densifies_its_band_csr(self, level, degrees):
        # one builder for both storages: bit-identical, on an input that
        # spans more than one cell_gram chunk
        ncomb = int(np.prod([q + 1 for q in degrees]))
        n = kernels.CHUNK_ENTRIES * 64 // ncomb**2 + 500
        data = make_dataset(len(degrees), n, seed=level)
        op = build_level(data, level, 0.7, degrees)
        dense = op.assemble_dense()
        assert op.storage == "windows"
        csr = assembled_level(data, level, 0.7, degrees).matrix
        npt.assert_array_equal(dense, csr.toarray())


class TestObjectiveAndPredict:
    def test_zero_coefficients(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 3, 1.0)
        ls, rough = op.objective(np.zeros(op.size))
        assert ls == pytest.approx(small_dataset_2d.responses @ small_dataset_2d.responses)
        assert rough == 0.0

    def test_affine_spline_has_zero_roughness(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 3, 1.0)
        g0 = greville_points(op.spaces[0])
        g1 = greville_points(op.spaces[1])
        alpha = (0.3 + 1.2 * g0[:, None] - 0.8 * g1[None, :]).ravel()
        ls, rough = op.objective(alpha)
        assert abs(rough) <= 1e-9
        x = small_dataset_2d.points
        expected = 0.3 + 1.2 * x[:, 0] - 0.8 * x[:, 1]
        npt.assert_allclose(op.fitted_values(alpha), expected, atol=1e-11)

    def test_solution_minimizes_objective(self, small_dataset_2d, rng):
        op = build_level(small_dataset_2d, 2, 1.0)
        a = op.assemble_dense()
        alpha = np.linalg.solve(a, op.rhs())

        def total(v):
            ls, rough = op.objective(v)
            return ls + op.lam * rough

        best = total(alpha)
        assert best <= total(np.zeros(op.size)) + 1e-12
        for _ in range(20):
            assert best <= total(alpha + 0.1 * rng.standard_normal(op.size)) + 1e-12

    def test_predict_partition_of_unity(self, small_dataset_2d, rng):
        op = build_level(small_dataset_2d, 3, 1.0)
        pts = rng.random((50, 2))
        npt.assert_allclose(op.predict(np.ones(op.size), pts), 1.0, atol=1e-12)

    def test_predict_matches_dense_design(self, small_dataset_2d, rng):
        op = build_level(small_dataset_2d, 2, 1.0)
        alpha = rng.standard_normal(op.size)
        ref = dense_tensor_design(op.spaces, small_dataset_2d.points) @ alpha
        npt.assert_allclose(op.predict(alpha, small_dataset_2d.points), ref, atol=1e-12)

    def test_predict_single_basis_function(self, small_dataset_2d, rng):
        op = build_level(small_dataset_2d, 2, 1.0)
        e = np.zeros(op.size)
        e[op.size // 2] = 1.0
        vals = op.predict(e, rng.random((100, 2)))
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_predict_rejects_outside_domain(self, small_dataset_2d):
        op = build_level(small_dataset_2d, 2, 1.0)
        with pytest.raises(DomainError):
            op.predict(np.ones(op.size), np.array([[0.5, 1.2]]))


class TestDesignFactors:
    """The windows evaluated slice by slice hold the bits of one whole-array
    evaluation per axis."""

    @pytest.mark.parametrize("degrees", [(5,), (2, 4), (3, 2, 5)])
    def test_equals_whole_array_evaluation(self, degrees, rng):
        spaces = tuple(build_space(-1.0, 2.0, 2, q) for q in degrees)
        n = 3 * (kernels.CHUNK_ENTRIES // (max(degrees) + 1)) + 5  # four slices
        points = -1.0 + 3.0 * rng.random((n, len(degrees)))
        for p in range(len(degrees)):
            points[p::5, p] = 2.0  # on each axis's upper bound
        points[-1] = 2.0
        f = design_factors(spaces, points)
        base, stride = np.zeros(n, dtype=np.int64), 1
        for p in range(len(spaces) - 1, -1, -1):
            off, vals = eval_basis_batch(spaces[p], points[:, p], 0)
            assert np.array_equal(f.values[:, p, : degrees[p] + 1], vals)
            assert not f.values[:, p, degrees[p] + 1 :].any()
            base += stride * off
            stride *= spaces[p].dim
        assert np.array_equal(f.base, base)
        assert f.rel.size == np.prod([q + 1 for q in degrees])

    @pytest.mark.parametrize("degrees", [(3,), (2, 4), (3, 2, 5)])
    def test_windows_level_fits_as_evaluate_spline(self, degrees, rng):
        data = make_dataset(len(degrees), 3000, seed=4)
        op = build_level(data, 2, 1.0, degrees)
        assert op.storage == "windows"
        alpha = rng.standard_normal(op.size)
        assert np.array_equal(op.fitted_values(alpha),
                              evaluate_spline(op.spaces, alpha, data.points))


class TestEvaluateSpline:
    """`evaluate_spline`, the one evaluation at arbitrary points, and the
    sum-factorized `kernels.gather` it calls, against the dense design."""

    @pytest.mark.parametrize("degrees, level", [
        ((3,), 2), ((2, 4), 2), ((2, 3, 5), 1), ((3, 2, 4, 3), 1),
    ])
    def test_matches_dense_design(self, degrees, level, rng):
        spaces = tuple(build_space(-1.0, 2.0, level, q) for q in degrees)
        ncomb = int(np.prod([q + 1 for q in degrees]))
        n = 3 * (kernels.CHUNK_ENTRIES // ncomb) + 5  # several gather chunks
        points = -1.0 + 3.0 * rng.random((n, len(degrees)))
        for p in range(len(degrees)):
            points[p::5, p] = 2.0  # on each axis's upper bound
        points[-1] = 2.0  # on every axis's upper bound at once
        points[-2] = -1.0
        alpha = rng.standard_normal(int(np.prod([s.dim for s in spaces])))
        ref = dense_tensor_design(spaces, points) @ alpha
        npt.assert_allclose(evaluate_spline(spaces, alpha, points), ref,
                            rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("num_axes", [1, 3])
    def test_zero_points(self, num_axes):
        spaces = tuple(build_space(0.0, 1.0, 2, 3) for _ in range(num_axes))
        alpha = np.ones(int(np.prod([s.dim for s in spaces])))
        out = evaluate_spline(spaces, alpha, np.empty((0, num_axes)))
        assert out.shape == (0,)
        empty = kernels.gather([np.empty((0, 4))] * num_axes, np.empty(0, dtype=np.int64),
                               np.arange(4**num_axes), alpha, np.empty(0))
        assert empty.shape == (0,)

    def test_assembled_level_evaluates_at_the_training_points(self, rng):
        data = make_dataset(3, 400, seed=3)
        windows = build_level(data, 2, 1.0)
        alpha = rng.standard_normal(windows.size)
        ref = dense_tensor_design(windows.spaces, data.points) @ alpha
        assembled = assembled_level(data, 2, 1.0)
        for op in (windows, assembled):
            npt.assert_allclose(op.fitted_values(alpha), ref, rtol=1e-12,
                                atol=1e-12 * np.abs(ref).max())

    def test_builds_no_window_factors_for_the_queries(self, small_dataset_2d, monkeypatch, rng):
        op = assembled_level(small_dataset_2d, 3, 1.0)
        alpha = rng.standard_normal(op.size)
        expected = dense_tensor_design(op.spaces, small_dataset_2d.points) @ alpha

        def refuse(*_args, **_kwargs):
            raise AssertionError("design windows formed for an evaluation")

        monkeypatch.setattr(system, "design_factors", refuse)
        monkeypatch.setattr(system, "KhatriRaoFactors", refuse)
        for values in (op.predict(alpha, small_dataset_2d.points), op.fitted_values(alpha)):
            npt.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_shapes(self):
        spaces = (build_space(0.0, 1.0, 2, 3),) * 2
        with pytest.raises(ShapeError, match="2 columns"):
            evaluate_spline(spaces, np.ones(49), np.zeros((3, 3)))
        with pytest.raises(ShapeError, match="length 49"):
            evaluate_spline(spaces, np.ones(48), np.zeros((3, 2)))


def test_level_operator_rejects_degree_mismatch(small_dataset_2d):
    with pytest.raises(ParameterError):
        LevelOperator(small_dataset_2d, 2, 1.0, degrees=(3, 3, 3))


class TestExports:
    def test_every_exported_name_resolves_once(self):
        import splinemg

        assert len(splinemg.__all__) == len(set(splinemg.__all__))
        for name in splinemg.__all__:
            assert hasattr(splinemg, name), name

    def test_cli_import_leaves_sparse_linalg_out(self):
        # the mg-ssor smoother imports scipy.sparse.linalg (about 1.4 MiB of
        # resident memory) when it first sweeps; a plain import must not
        import splinemg

        src = os.path.dirname(os.path.dirname(os.path.abspath(splinemg.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, splinemg.cli; print('scipy.sparse.linalg' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
