import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splinemg import ParameterError, generate_dataset, read_dataset, sigmoid_target, write_dataset
from splinemg import datasets
from splinemg.datasets import (
    BLOCK_ROWS,
    FORMAT_DIGITS,
    read_table,
    write_blocks,
    write_table,
)


class TestSigmoidTarget:
    def test_midpoint_is_half(self):
        for num_axes in (1, 2, 3):
            x = np.full((1, num_axes), np.sqrt(0.5))  # |x|^2 / P = 0.5
            assert sigmoid_target(x)[0] == pytest.approx(0.5)

    def test_scalar_endpoint_value(self):
        assert sigmoid_target(np.array([[1.0]]))[0] == pytest.approx(
            1.0 / (1.0 + np.exp(-8.0)), abs=1e-12
        )
        assert sigmoid_target(np.array([[1.0]]))[0] == pytest.approx(0.99966, abs=5e-6)

    def test_range_is_unit_interval(self, rng):
        vals = sigmoid_target(rng.random((1000, 4)))
        assert vals.min() > 0.0 and vals.max() < 1.0


class TestGenerateDataset:
    def test_deterministic_under_seed(self):
        a = generate_dataset(3, 100, 0.1, seed=42)
        b = generate_dataset(3, 100, 0.1, seed=42)
        npt.assert_array_equal(a.points, b.points)
        npt.assert_array_equal(a.responses, b.responses)

    def test_zero_noise_is_exact_surface(self):
        data = generate_dataset(2, 50, 0.0, seed=3)
        npt.assert_array_equal(data.responses, sigmoid_target(data.points))

    def test_points_inside_unit_cube(self):
        data = generate_dataset(2, 500, 0.1, seed=0)
        assert data.points.min() >= 0.0 and data.points.max() <= 1.0
        npt.assert_array_equal(data.bounds, [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("kwargs", [
        {"num_axes": 0, "n": 5},
        {"num_axes": 2, "n": 0},
        {"num_axes": 2, "n": 5, "noise": -0.1},
        {"num_axes": 2, "n": 5, "seed": -1},
        {"num_axes": 2, "n": 5, "noise": float("nan")},
        {"num_axes": 2, "n": 5, "noise": float("inf")},
        # integers only, never a bool
        {"num_axes": 2, "n": 300.5},
        {"num_axes": 2.0, "n": 300},
        {"num_axes": True, "n": 300},
        {"num_axes": 2, "n": 300, "seed": 1.5},
        {"num_axes": 2, "n": 300, "seed": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            generate_dataset(**kwargs)


class TestDatasetIo:
    def test_round_trip(self, tmp_path, rng):
        pts = rng.random((40, 3))
        y = rng.standard_normal(40)
        path = tmp_path / "d.txt"
        write_dataset(path, pts, y)
        pts2, y2 = read_dataset(path)
        npt.assert_allclose(pts2, pts, atol=1e-16)
        npt.assert_allclose(y2, y, atol=1e-16)

    def test_reads_comma_separated(self, tmp_path):
        for header in ("", "x1,x2,y\n"):
            path = tmp_path / "d.csv"
            path.write_text(header + "0.1,0.2,1.5\n0.3,0.4,2.5\n")
            pts, y = read_dataset(path)
            npt.assert_allclose(pts, [[0.1, 0.2], [0.3, 0.4]])
            npt.assert_allclose(y, [1.5, 2.5])

    def test_skips_header_and_comments(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# generated\nx1 x2 y\n0.1 0.2 1.5\n0.3 0.4 2.5\n")
        pts, y = read_dataset(path)
        assert pts.shape == (2, 2)
        npt.assert_allclose(y, [1.5, 2.5])

    def test_single_row_file(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0.5 0.5 1.0\n")
        pts, y = read_dataset(path)
        assert pts.shape == (1, 2) and y.shape == (1,)

    def test_rejects_single_column(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ParameterError):
            read_dataset(path)

    def test_read_table_shape(self, tmp_path):
        path = tmp_path / "t.txt"
        np.savetxt(path, np.arange(12.0).reshape(4, 3))
        assert read_table(path).shape == (4, 3)


SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-309,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3, 1e22]


class TestWriteTable:
    """`write_table` must write exactly the bytes of `np.savetxt`."""

    @staticmethod
    def assert_same_bytes(tmp_path, table, fmt="%.17g", header=None):
        ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
        write_table(ours, table, fmt=fmt, header=header)
        np.savetxt(ref, table, fmt=fmt, header="" if header is None else header)
        assert ours.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("fmt", ["%.17g", "%.17e"])
    @pytest.mark.parametrize("header", [None, "", "x1 x2 y", "first\nsecond"])
    def test_special_values_2d(self, tmp_path, rng, fmt, header):
        table = rng.standard_normal((len(SPECIAL_VALUES), 3))
        table[:, 1] = SPECIAL_VALUES
        table[::2, 2] = SPECIAL_VALUES[::-2]
        self.assert_same_bytes(tmp_path, table, fmt, header)

    @pytest.mark.parametrize("fmt", ["%.17g", "%.17e"])
    def test_special_values_1d(self, tmp_path, fmt):
        self.assert_same_bytes(tmp_path, np.array(SPECIAL_VALUES), fmt)
        self.assert_same_bytes(tmp_path, np.array(SPECIAL_VALUES), fmt, header="value")

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 5])
    def test_row_counts_around_the_block_size(self, tmp_path, rng, rows):
        self.assert_same_bytes(tmp_path, rng.standard_normal((rows, 2)), header="x1 y")
        self.assert_same_bytes(tmp_path, rng.standard_normal(rows), fmt="%.17e")

    @given(st.sampled_from(sorted(FORMAT_DIGITS)),
           arrays(np.uint64, st.tuples(st.integers(1, 20), st.integers(1, 3))))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bit_patterns(self, tmp_path_factory, fmt, bits):
        # every float64: nan payloads, subnormals, both zeros, infinities
        self.assert_same_bytes(tmp_path_factory.mktemp("bits"), bits.view(np.float64), fmt)

    @staticmethod
    def hard_values(rng):
        """Entries at the kernel's edges: decimal ties, decades and their
        neighbours, the fixed/scientific switch and the fast-path range."""
        ties = (rng.integers(4 * 10**15, 9 * 10**15, 400) | 1) / 4.0  # 17-digit ties
        # odd multiples of 2**-j include 17- and 18-digit ties whose scale
        # 10**s is not a double, e.g. 2**-25 = 2.98023223876953125e-08
        small_ties = np.ldexp(np.arange(1.0, 100.0, 2.0)[:, None], -np.arange(20, 90)).ravel()
        decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
        upper = np.array([float(f"9.9999999999999999{d}e{k}")  # round up to the next decade
                          for k in range(-300, 301) for d in ("", "5")])
        switch = np.concatenate([rng.uniform(1, 10, 50) * 10.0**k for k in (-5, -4, 16, 17)])
        three_digit = rng.uniform(1, 10, 50) * 10.0 ** rng.integers(100, 300, 50)
        edges = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308,
                          2.2250738585072014e-308, 1.7976931348623157e308, 1e-250, 1e250])
        values = np.concatenate([ties, small_ties, decades, upper, switch, three_digit,
                                 1 / three_digit, edges])
        with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
            values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
        return np.concatenate([values, -values])

    @pytest.mark.parametrize("fmt", ["%.17g", "%.17e"])
    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_hard_values(self, tmp_path, rng, fmt, columns):
        values = self.hard_values(rng)
        table = values[: values.size // columns * columns].reshape(-1, columns)
        self.assert_same_bytes(tmp_path, table, fmt)

    @pytest.mark.parametrize("fmt", ["%.17g", "%.17e"])
    def test_random_blocks_take_no_fallback(self, rng, fmt):
        # the kernel, not Python's `%`, must format ordinary data
        for block in (rng.random((BLOCK_ROWS, 2)), rng.standard_normal((BLOCK_ROWS, 2))):
            proven = datasets._significand(block.ravel(), FORMAT_DIGITS[fmt])[2]
            assert proven.all()

    @pytest.mark.parametrize("fmt", ["%.17g", "%.17e"])
    def test_any_block_sizes_write_the_same_bytes(self, tmp_path, rng, fmt):
        table = self.hard_values(rng)[:3000].reshape(-1, 3)
        cuts = [0, 1, 1, 2, 9, 700, 701, 1000]  # empty, one-row and uneven blocks
        write_blocks(tmp_path / "blocks.txt",
                     (table[a:b] for a, b in zip(cuts, cuts[1:])), fmt, "x1 x2 y")
        write_table(tmp_path / "whole.txt", table, fmt, "x1 x2 y")
        assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()

    @pytest.mark.parametrize("fmt", ["%.16g", "%.17f", "%.17g ", "%s", "%r"])
    def test_other_formats_are_refused(self, tmp_path, fmt):
        with pytest.raises(ParameterError, match="table format"):
            write_table(tmp_path / "t.txt", np.ones(3), fmt=fmt)
        with pytest.raises(ParameterError, match="table format"):
            write_blocks(tmp_path / "t.txt", iter([np.ones((3, 1))]), fmt)
        assert not (tmp_path / "t.txt").exists()
