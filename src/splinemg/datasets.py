"""Synthetic test data and delimited-text table I/O.

Tables are written by `write_table` in `np.savetxt`'s exact format (one
space between columns, an optional ``# `` header line), but formatted a
block of ``BLOCK_ROWS`` rows at a time instead of one row per call.  They
are read back by `read_table`, which also takes comma-separated files.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError, check_integer
from .system import ScatteredDataset

BLOCK_ROWS = 8192


def sigmoid_target(points: np.ndarray) -> np.ndarray:
    """Radial logistic test surface on the unit cube.

    ``f(x) = 1 / (1 + exp(-16 * (|x|^2 / P - 0.5)))``; equals one half on
    the sphere ``|x|^2 = P / 2`` and approaches 0/1 toward the corners.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    t = (points**2).sum(axis=1) / points.shape[1] - 0.5
    return 1.0 / (1.0 + np.exp(-16.0 * t))


def generate_dataset(num_axes: int, n: int, noise: float = 0.1, seed: int = 0) -> ScatteredDataset:
    """Uniform points on the unit cube with noisy sigmoid responses.

    Fully reproducible for a fixed seed; ``noise=0`` returns exact surface
    values.
    """
    num_axes = check_integer(num_axes, "dimension must be >= 1 and an integer", 1)
    n = check_integer(n, "sample count must be >= 1 and an integer", 1)
    seed = check_integer(seed, "seed must be >= 0 and an integer", 0)
    if not (np.isfinite(noise) and noise >= 0):
        raise ParameterError(f"noise level must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    points = rng.random((n, num_axes))
    responses = sigmoid_target(points)
    if noise > 0:
        responses = responses + rng.normal(0.0, noise, size=n)
    return ScatteredDataset(points, responses)


def write_dataset(path, points, responses) -> None:
    """Write observations as text: one row per point, coordinate columns
    followed by the response column."""
    points = np.asarray(points, dtype=np.float64)
    data = np.column_stack([points, np.asarray(responses, dtype=np.float64)])
    cols = [f"x{p + 1}" for p in range(points.shape[1])] + ["y"]
    write_table(path, data, header=" ".join(cols))


def write_table(path, table, fmt="%.17g", header=None) -> None:
    """Write a 1D (one column) or 2D array as text, byte for byte as
    ``np.savetxt(path, table, fmt=fmt, header=header or "")`` would.

    ``fmt`` is one ``%`` conversion applied to every entry; columns are
    separated by one space.  A non-empty ``header`` is written first as a
    ``# `` comment line.  Each block of ``BLOCK_ROWS`` rows is formatted by
    a single ``%`` over the block's entries.
    """
    table = np.asarray(table)
    if table.ndim == 1:
        table = table[:, None]
    line = " ".join([fmt] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write("# " + header.replace("\n", "\n# ") + "\n")
        for start in range(0, table.shape[0], BLOCK_ROWS):
            block = table[start : start + BLOCK_ROWS]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def read_table(path) -> np.ndarray:
    """Read a delimited text table (comma or whitespace separated, ``#``
    comments and an optional non-numeric header line allowed)."""
    # Only the leading lines are read here: comments and blank lines, at most
    # one header, and the first data line, which decides the delimiter.
    skip = 0
    first = ""
    header_checked = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                skip += 1
                continue
            fields = stripped.replace(",", " ").split()
            if not fields:
                raise ParameterError(f"{path}: line {lineno} holds delimiters but no values")
            if not header_checked:
                header_checked = True
                try:
                    float(fields[0])
                except ValueError:
                    skip += 1
                    continue
            first = line
            break
    if not first:
        raise ParameterError(f"{path}: no data rows")
    delimiter = "," if "," in first else None
    return np.loadtxt(path, delimiter=delimiter, skiprows=skip, ndmin=2)


def read_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Split a data table into points and responses (last column)."""
    data = read_table(path)
    if data.shape[1] < 2:
        raise ParameterError(
            f"{path}: need at least one coordinate column and one response column"
        )
    return data[:, :-1], data[:, -1]
