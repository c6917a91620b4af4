"""Matrix-free kernels for Kronecker- and columnwise-Kronecker operators.

Linearization convention (shared by every module and asserted in tests):
axis 1 is the slowest-varying index, i.e. a coefficient tensor of shape
``(n_1, ..., n_P)`` is flattened in C order, and the factor list
``[A_1, ..., A_P]`` of a Kronecker product is ordered accordingly.
`window_index` forms the flat window bases and offsets the window kernels
read; `KhatriRaoFactors` stores them with its window values only and hands
the kernels per-axis value views (`KhatriRaoFactors.axis_windows`).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.sparse

from . import kernels
from .errors import ShapeError


def _as_matrix(a):
    """A Kronecker factor as a scipy sparse matrix (kept as is) or a float64
    ndarray (no copy when it already is one, so transposed views stay
    views)."""
    if scipy.sparse.issparse(a):
        m = a
    else:
        try:
            m = np.asarray(a, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"factor must be an array or a sparse matrix: {exc}") from exc
    if m.ndim != 2:
        raise ShapeError(f"factor must be 2-dimensional, got shape {m.shape}")
    return m


def kron_matvec(factors, x: np.ndarray) -> np.ndarray:
    """Product of ``A_1 (x) ... (x) A_P`` with a vector, factor by factor.

    Processes factors from last to first; before step ``p`` the work vector
    is a ``(l_p, n_p, r_p)`` tensor with ``l_p`` the product of unprocessed
    leading input dims and ``r_p`` the product of processed trailing output
    dims, and step ``p`` contracts ``A_p`` over the middle axis.  A dense
    factor is applied by a batched ``matmul``; a sparse one by a single
    sparse product with the middle axis moved to the front.  Peak scratch is
    two work buffers (dense factor) or three (sparse factor); the product
    matrix is never formed.
    """
    mats = [_as_matrix(a) for a in factors]
    n_in = prod(m.shape[1] for m in mats)
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != n_in:
        raise ShapeError(f"expected vector of length {n_in}, got shape {np.shape(x)}")
    r = 1
    for p in range(len(mats) - 1, -1, -1):
        a = mats[p]
        m_p, n_p = a.shape
        lead = v.size // (n_p * r)
        if not scipy.sparse.issparse(a):
            v = np.matmul(a, v.reshape(lead, n_p, r)).reshape(-1)
        else:  # both transposes are free views when lead == 1
            w = v.reshape(lead, n_p, r).transpose(1, 0, 2).reshape(n_p, lead * r)
            v = a @ w  # rebinding frees the previous work vector early
            v = v.reshape(m_p, lead, r).transpose(1, 0, 2).reshape(-1)
        r *= m_p
    return v


def kron_matvec_transposed(factors, y: np.ndarray) -> np.ndarray:
    """Product of the transposed Kronecker matrix with a vector.

    Uses that transposition distributes over the Kronecker product, so this
    is `kron_matvec` with each factor transposed (views, never copies).
    """
    return kron_matvec([_as_matrix(a).T for a in factors], y)


def kron_diagonal(factors) -> np.ndarray:
    """Diagonal of a Kronecker product of square factors (outer product of
    the factor diagonals, flattened in the shared linearization order)."""
    diag = None
    for a in factors:
        m = _as_matrix(a)
        if m.shape[0] != m.shape[1]:
            raise ShapeError("diagonal requires square factors")
        d = m.diagonal()
        diag = d if diag is None else np.multiply.outer(diag, d)
    return np.ravel(diag)


def stored_bytes(factor) -> int:
    """Bytes of a compressed sparse factor's arrays: values, indices and index
    pointers, each at its own item size."""
    return int(factor.data.nbytes + factor.indices.nbytes + factor.indptr.nbytes)


def window_index(row_dims, counts, axis_offsets):
    """``(base, rel)`` of windows of ``counts[p]`` rows starting at
    ``axis_offsets[p]`` (``P`` equal-length integer arrays): each point's
    flat first row, and the flat offsets of the ``prod(counts)`` window
    positions in C order.  A window that leaves its axis raises `ShapeError`.
    """
    if not len(axis_offsets) == len(counts) == len(row_dims):
        raise ShapeError("offsets, counts and row_dims disagree on axis count")
    base = np.zeros(len(axis_offsets[0]), dtype=np.int64)
    rel = np.zeros(1, dtype=np.int64)
    stride = 1
    for p in range(len(row_dims) - 1, -1, -1):
        off, count, dim = np.asarray(axis_offsets[p], dtype=np.int64), counts[p], row_dims[p]
        if off.size and (off.min() < 0 or off.max() + count > dim):
            raise ShapeError(f"axis {p}: windows of width {count} must lie within its "
                             f"{dim} rows, got first rows {off.min()}..{off.max()}")
        base += stride * off
        rel = (stride * np.arange(count)[:, None] + rel[None, :]).ravel()
        stride *= int(dim)
    return base, rel


@dataclass
class KhatriRaoFactors:
    """Columnwise Kronecker product held as per-column windows.

    The represented matrix has shape ``(prod(row_dims), n_cols)`` with column
    ``i`` equal to the Kronecker product of the factor columns ``A_p[:, i]``.
    Each factor column is stored as a contiguous window of values
    ``values[i, p, :counts[p]]``; rows outside the window are zero.  Dense
    factors are the special case of full-height windows.  The windows'
    positions are stored as their `window_index` only.
    """

    row_dims: tuple
    n_cols: int
    counts: np.ndarray
    values: np.ndarray  # (n_cols, P, max(counts)) float64
    base: np.ndarray  # (n_cols,) int64
    rel: np.ndarray  # (prod(counts),) int64

    @property
    def offsets(self) -> np.ndarray:
        """First window row per column and axis, ``(n_cols, P)`` (derived)."""
        return np.stack(np.unravel_index(self.base, self.row_dims), axis=1)

    @property
    def digits(self) -> np.ndarray:
        """Window odometer, ``(prod(counts), P)`` positions in ``rel``'s order (derived)."""
        return np.stack(np.unravel_index(np.arange(self.rel.size), self.counts.tolist()), axis=1)

    @property
    def n_rows(self) -> int:
        return int(np.prod(self.row_dims))

    @classmethod
    def from_dense(cls, factors) -> "KhatriRaoFactors":
        """`from_windows` of dense ``(m_p, n)`` factors: zero offsets and
        full-height windows."""
        mats = [_as_matrix(a) for a in factors]
        return cls.from_windows(row_dims=[m.shape[0] for m in mats],
                                offsets=np.zeros((mats[0].shape[1], len(mats))),
                                window_values=[m.T for m in mats])

    @classmethod
    def from_windows(cls, row_dims, offsets, window_values) -> "KhatriRaoFactors":
        """Build from per-axis windows: ``row_dims``, the row count per axis,
        ``offsets`` ``(n, P)``, the first window row per column and axis, and
        ``window_values``, ``P`` arrays ``(n, w_p)`` of window values."""
        offsets = np.asarray(offsets)
        n_cols, num_axes = offsets.shape
        counts = np.array([w.shape[1] for w in window_values], dtype=np.int64)
        base, rel = window_index(row_dims, counts, offsets.T)
        values = np.zeros((n_cols, num_axes, int(counts.max())))
        for p, w in enumerate(window_values):
            if w.shape[0] != n_cols:
                raise ShapeError("window value arrays must share the column count")
            values[:, p, : w.shape[1]] = w
        return cls(row_dims=tuple(int(d) for d in row_dims), n_cols=n_cols, counts=counts,
                   values=values, base=base, rel=rel)

    def axis_windows(self) -> tuple:
        """Per-axis window values, ``(n_cols, counts[p])`` views of ``values``."""
        return tuple(self.values[:, p, :c] for p, c in enumerate(self.counts.tolist()))

    def toarray(self) -> np.ndarray:
        """Densify (small instances only: oracles and debugging)."""
        out = np.zeros((self.n_rows, self.n_cols))
        w = kernels._window_weights(self.axis_windows(), 0, self.n_cols)
        out[self.base[:, None] + self.rel[None, :], np.arange(self.n_cols)[:, None]] = w
        return out


def khatri_rao_matvec(factors: KhatriRaoFactors, x: np.ndarray) -> np.ndarray:
    """Accumulate the columnwise rank-one terms ``sum_i x[i] * column_i``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (factors.n_cols,):
        raise ShapeError(f"expected vector of length {factors.n_cols}, got {x.shape}")
    out = np.zeros(factors.n_rows)
    kernels.scatter(factors.axis_windows(), factors.base, factors.rel, x, out)
    return out


def khatri_rao_tmatvec(factors: KhatriRaoFactors, y: np.ndarray) -> np.ndarray:
    """Per-column dot products ``column_i . y`` (the transposed product)."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape != (factors.n_rows,):
        raise ShapeError(f"expected vector of length {factors.n_rows}, got {y.shape}")
    out = np.empty(factors.n_cols)
    kernels.gather(factors.axis_windows(), factors.base, factors.rel, y, out)
    return out


def khatri_rao_gram_diag(factors: KhatriRaoFactors) -> np.ndarray:
    """Diagonal of ``A A'``: squared row norms accumulated column by column."""
    out = np.zeros(factors.n_rows)
    kernels.scatter_squares(factors.axis_windows(), factors.base, factors.rel, out)
    return out


def khatri_rao_gram_matvec(
    factors: KhatriRaoFactors, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Fused product ``A (A' x)`` accumulated into ``out`` without an
    intermediate column-count-length vector."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (factors.n_rows,):
        raise ShapeError(f"expected vector of length {factors.n_rows}, got {x.shape}")
    if out is None:
        out = np.zeros(factors.n_rows)
    kernels.gram_matvec(factors.axis_windows(), factors.base, factors.rel, x, out)
    return out
