import numpy as np
import numpy.testing as npt
import pytest

from splinemg import ParameterError, generate_dataset, read_dataset, sigmoid_target, write_dataset
from splinemg.datasets import BLOCK_ROWS, read_table, write_table


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
