"""Univariate B-spline machinery on dyadically refined uniform knot grids.

A 1D space of degree ``q`` at refinement level ``g`` lives on ``[a, b]`` with
``2**g - 1`` interior knots and a uniform (cardinal) extension of ``q`` extra
knots beyond each end, so that every basis function is a translate of the
cardinal B-spline and the dyadic two-scale relation holds exactly.  The module
provides basis/derivative evaluation (`eval_basis_batch`: window offsets and
``(n, degree + 1)`` window values), Gram matrices of derivatives, and the
refinement (subdivision) matrix between consecutive levels.  Both matrices
are banded and are returned only as CSR matrices built straight from their
bands, O(dim * degree) entries each, with the indices of `csr_index_dtype`.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse

from .errors import DomainError, ParameterError, check_integer

MAX_DEGREE = 5


def csr_index_dtype(nnz: int):
    """CSR index type for ``nnz`` entries (at least one per row and column):
    ``np.intc``, SuperLU's 32-bit type, where it holds ``nnz``, else ``int64``."""
    return np.intc if nnz <= np.iinfo(np.intc).max else np.int64


@dataclass(frozen=True)
class SplineSpace1D:
    """Uniform B-spline space of one covariate axis.

    Attributes
    ----------
    degree : int
        Polynomial degree ``q`` (1..5).
    lower, upper : float
        Domain interval ``[a, b]``.
    level : int
        Dyadic refinement level ``g >= 1``.
    interior_knot_count : int
        ``2**g - 1`` interior knots.
    mesh_width : float
        Knot spacing ``(b - a) / 2**g``.
    dim : int
        Number of basis functions, ``2**g + q``.
    knots : numpy.ndarray
        Full extended knot vector of length ``dim + degree + 1``; uniformly
        spaced, ``q`` knots beyond each end of ``[a, b]``.
    """

    degree: int
    lower: float
    upper: float
    level: int
    interior_knot_count: int
    mesh_width: float
    dim: int
    knots: np.ndarray

    @property
    def num_intervals(self) -> int:
        """Number of knot intervals inside ``[a, b]``."""
        return self.interior_knot_count + 1


def build_space(lower: float, upper: float, level: int, degree: int = 3) -> SplineSpace1D:
    """Construct the uniform spline space of one axis.

    Parameters
    ----------
    lower, upper : float
        Domain bounds, ``lower < upper``.
    level : int
        Refinement level ``g >= 1``; the space has ``2**g - 1`` interior knots.
    degree : int
        B-spline degree, between 1 and 5.
    """
    if not np.isfinite(lower) or not np.isfinite(upper) or lower >= upper:
        raise ParameterError(f"invalid interval [{lower}, {upper}]")
    level = check_integer(level, "level must be an integer >= 1", 1)
    degree = check_integer(degree, "degree must be an integer")
    if not 1 <= degree <= MAX_DEGREE:
        raise ParameterError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    segments = 2**level
    h = (upper - lower) / segments
    dim = segments + degree
    # knots[t] = lower + (t - degree) * h; knots[degree] = lower, knots[dim] = upper
    knots = lower + (np.arange(dim + degree + 1) - degree) * h
    return SplineSpace1D(
        degree=degree,
        lower=float(lower),
        upper=float(upper),
        level=level,
        interior_knot_count=segments - 1,
        mesh_width=h,
        dim=dim,
        knots=knots,
    )


def _find_intervals(space: SplineSpace1D, x: np.ndarray) -> np.ndarray:
    """Knot-interval index in ``0 .. 2**g - 1`` for each in-domain point.

    Intervals are half-open with a closed last one, so ``x == upper`` belongs
    to the final interval.
    """
    t = np.floor((x - space.lower) / space.mesh_width).astype(np.int64)
    return np.clip(t, 0, space.num_intervals - 1)


def eval_basis_batch(space: SplineSpace1D, x: np.ndarray, deriv: int = 0):
    """Evaluate the active basis functions (or a derivative) at many points.

    Parameters
    ----------
    space : SplineSpace1D
    x : array_like
        Points inside ``[lower, upper]``.
    deriv : int
        Derivative order ``r`` with ``0 <= r <= degree``.

    Returns
    -------
    offsets : numpy.ndarray of int64, shape (n,)
        Index of the first active basis function per point.
    values : numpy.ndarray, shape (n, degree + 1)
        ``values[i, k]`` is the r-th derivative of basis function
        ``offsets[i] + k`` at ``x[i]``.
    """
    q = space.degree
    if not 0 <= deriv <= q:
        raise ParameterError(f"derivative order must be in 0..{q}, got {deriv}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        x = x.reshape(-1)
    bad = (x < space.lower) | (x > space.upper) | ~np.isfinite(x)
    if bad.any():
        idx = np.flatnonzero(bad)[:10]
        raise DomainError(
            f"{int(bad.sum())} point(s) outside [{space.lower}, {space.upper}], "
            f"first offending indices {idx.tolist()}"
        )
    knots = space.knots
    t = _find_intervals(space, x)
    s = t + q  # global knot index with knots[s] <= x < knots[s+1]

    # Triangular recursion up to degree q - deriv: values[:, k] holds basis
    # function s - d + k of degree d at each point.
    base_deg = q - deriv
    n = x.shape[0]
    values = np.zeros((n, base_deg + 1))
    values[:, 0] = 1.0
    left = np.empty((n, base_deg + 1))
    right = np.empty((n, base_deg + 1))
    for d in range(1, base_deg + 1):
        left[:, d] = x - knots[s + 1 - d]
        right[:, d] = knots[s + d] - x
        saved = np.zeros(n)
        for k in range(d):
            tmp = values[:, k] / (right[:, k + 1] + left[:, d - k])
            values[:, k] = saved + right[:, k + 1] * tmp
            saved = left[:, d - k] * tmp
        values[:, d] = saved

    # Differentiation passes: each lifts degree e -> e+1 while taking one
    # derivative, widening the active window by one basis function.
    for e in range(base_deg, q):
        scaled = np.empty((n, e + 1))
        for k in range(e + 1):
            scaled[:, k] = values[:, k] / (knots[s + k + 1] - knots[s - e + k])
        new = np.zeros((n, e + 2))
        new[:, 0] = -(e + 1) * scaled[:, 0]
        new[:, 1 : e + 1] = (e + 1) * (scaled[:, : e] - scaled[:, 1 : e + 1])
        new[:, e + 1] = (e + 1) * scaled[:, e]
        values = new

    return t, values


def gram_matrix(space: SplineSpace1D, deriv: int) -> scipy.sparse.csr_array:
    """Gram matrix of r-th basis derivatives over the domain interval.

    Entry ``(j, l)`` is the integral of the product of the r-th derivatives
    of basis functions ``j`` and ``l`` over ``[lower, upper]``.  Computed by
    per-knot-interval Gauss-Legendre quadrature with ``degree - deriv + 1``
    nodes, which is exact for the piecewise-polynomial integrand of degree
    ``2 * (degree - deriv)``.

    The Gauss nodes of all intervals are evaluated in one `eval_basis_batch`
    call and all local ``(q+1) x (q+1)`` Grams come from one batched product.
    Each band entry sums its intervals' contributions in ascending interval
    order, so the bands equal those of a loop over the intervals bit for bit.

    Returns the symmetric ``dim x dim`` matrix as CSR, built straight from
    those band sums: the ``2 * degree + 1`` diagonals, clipped at the
    corners, stored row by row in column order.
    """
    q = space.degree
    if not 0 <= deriv <= q:
        raise ParameterError(f"derivative order must be in 0..{q}, got {deriv}")
    nodes, weights = np.polynomial.legendre.leggauss(q - deriv + 1)
    h = space.mesh_width
    intervals = space.num_intervals
    x0 = space.lower + np.arange(intervals) * h
    xg = x0[:, None] + 0.5 * h * (nodes + 1.0)
    wg = 0.5 * h * weights
    offsets, vals = eval_basis_batch(space, xg.reshape(-1), deriv)
    # every node must lie in its own knot interval (one knot span per interval)
    assert (offsets.reshape(intervals, -1) == np.arange(intervals)[:, None]).all()
    vals = vals.reshape(intervals, nodes.size, q + 1)
    local = np.matmul((vals * wg[:, None]).transpose(0, 2, 1), vals)  # (T, q+1, q+1)
    bands = np.zeros((q + 1, space.dim))
    for d in range(q + 1):
        # entry (d, j) takes interval t = j - i from local row i: descending i
        # adds the intervals in ascending order
        for i in range(q - d, -1, -1):
            bands[d, i : i + intervals] += local[:, i, i + d]
    rows = np.repeat(np.arange(space.dim), 2 * q + 1)
    cols = rows + np.tile(np.arange(-q, q + 1), space.dim)
    keep = (cols >= 0) & (cols < space.dim)
    rows, cols = rows[keep], cols[keep]
    data = bands[np.abs(cols - rows), np.minimum(rows, cols)]
    return _csr(data, rows, cols, (space.dim, space.dim))


def subdivision_matrix(coarse: SplineSpace1D, fine: SplineSpace1D) -> scipy.sparse.csr_array:
    """Two-scale refinement matrix from ``coarse`` (level g) to ``fine``
    (level g+1), as a ``fine.dim x coarse.dim`` CSR matrix.

    Maps coarse-level coefficients to fine-level coefficients of the same
    spline.  Column ``j`` carries the binomial weights
    ``comb(q+1, i - 2j + q) / 2**q`` on up to ``q + 2`` consecutive rows;
    rows falling outside the fine index range are dropped, which is exact
    because the corresponding fine basis functions vanish on ``[a, b]``.
    """
    if coarse.degree != fine.degree:
        raise ParameterError("subdivision requires equal degrees")
    if (coarse.lower, coarse.upper) != (fine.lower, fine.upper):
        raise ParameterError("subdivision requires the same interval")
    if fine.level != coarse.level + 1:
        raise ParameterError(
            f"fine level must be coarse level + 1, got {coarse.level} -> {fine.level}"
        )
    q = coarse.degree
    weights = np.array([comb(q + 1, k) for k in range(q + 2)]) * 0.5**q
    # fine row i couples to coarse column j = (i + q - k) / 2 for every k of
    # the parity of i + q; list those k in descending order so that the
    # columns of each row come out ascending
    rows = np.repeat(np.arange(fine.dim), q + 2)
    k = np.tile(np.arange(q + 1, -1, -1), fine.dim)
    cols2 = rows + q - k
    keep = (cols2 % 2 == 0) & (cols2 >= 0) & (cols2 < 2 * coarse.dim)
    return _csr(weights[k[keep]], rows[keep], cols2[keep] // 2, (fine.dim, coarse.dim))


def _csr(data, rows, cols, shape) -> scipy.sparse.csr_array:
    """CSR matrix of entries listed row by row with ascending columns."""
    index = csr_index_dtype(data.size)
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).astype(index)
    return scipy.sparse.csr_array((data, cols.astype(index), indptr), shape=shape)


def greville_points(space: SplineSpace1D) -> np.ndarray:
    """Knot averages at which B-spline coefficients reproduce affine data.

    Setting coefficient ``j`` to ``c0 + c1 * greville[j]`` represents the
    affine function ``c0 + c1 * x`` exactly on the domain.
    """
    q = space.degree
    pts = np.empty(space.dim)
    for j in range(space.dim):
        pts[j] = space.knots[j + 1 : j + q + 1].mean()
    return pts
