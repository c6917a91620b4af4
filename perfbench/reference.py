"""Independent checks of a fit and its predictions.

None of this calls splinemg: the design matrix comes from
`scipy.interpolate.BSpline.design_matrix`, the penalty Grams from
Gauss-Legendre quadrature of scipy's cardinal B-spline, and predictions from
`scipy.interpolate.NdBSpline`.  The knots are the extended uniform ones the
method is defined on: ``2**G`` intervals on ``[lower, upper]`` and ``degree``
further knots of the same spacing beyond each end.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.interpolate import BSpline, NdBSpline


def uniform_knots(lower, upper, level, degree):
    h = (upper - lower) / 2**level
    return lower + h * (np.arange(2**level + 2 * degree + 1) - degree)


def design_matrix(points, knot_vectors, degree):
    """Tensor-product design matrix (n x K, CSR), first axis slowest.

    Each row is the row-wise Kronecker product of the per-axis rows of
    `BSpline.design_matrix`.
    """
    n = points.shape[0]
    width = degree + 1
    cols = np.zeros((n, 1), dtype=np.int64)
    vals = np.ones((n, 1))
    for p, knots in enumerate(knot_vectors):
        axis = BSpline.design_matrix(points[:, p], knots, degree).tocsr()
        if not np.array_equal(np.diff(axis.indptr), np.full(n, width)):
            raise AssertionError("reference design rows do not hold degree + 1 entries")
        dim = knots.size - degree - 1
        idx = axis.indices.reshape(n, width).astype(np.int64)
        val = axis.data.reshape(n, width)
        cols = (cols[:, :, None] * dim + idx[:, None, :]).reshape(n, -1)
        vals = (vals[:, :, None] * val[:, None, :]).reshape(n, -1)
    size = int(np.prod([k.size - degree - 1 for k in knot_vectors]))
    indptr = np.arange(n + 1, dtype=np.int64) * cols.shape[1]
    return scipy.sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n, size))


def derivative_gram(knots, degree, deriv):
    """Gram matrix of the ``deriv``-th basis derivatives over the domain
    ``[knots[degree], knots[-degree - 1]]`` by per-interval Gauss-Legendre
    quadrature (``degree + 1`` nodes: exact for these polynomials)."""
    dim = knots.size - degree - 1
    h = knots[1] - knots[0]
    intervals = dim - degree
    width = degree + 1
    shape = BSpline.basis_element(np.arange(degree + 2.0), extrapolate=False)
    if deriv:
        shape = shape.derivative(deriv)
    nodes, weights = np.polynomial.legendre.leggauss(degree + 1)
    x = knots[degree] + h * (np.arange(intervals)[:, None] + 0.5 * (nodes + 1.0))
    # On interval i the nonzero basis functions are j = i .. i + degree, and
    # each is the cardinal B-spline shifted to knots[j] and scaled by h.
    j = np.arange(intervals)[:, None] + np.arange(width)[None, :]
    vals = shape((x[:, :, None] - knots[j][:, None, :]) / h) / h**deriv
    local = np.einsum("q,iqa,iqb->iab", 0.5 * h * weights, vals, vals)
    rows = np.broadcast_to(j[:, :, None], (intervals, width, width))
    cols = np.broadcast_to(j[:, None, :], (intervals, width, width))
    return scipy.sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(dim, dim)
    ).tocsr()


def penalty_matvec(alpha, knot_vectors, degree, absolute=False):
    """Thin-plate roughness operator times ``alpha``: the integral of every
    squared second-order partial derivative, pure terms weighted 1 and mixed
    terms 2, as Kronecker products of the per-axis Grams.  ``absolute``
    uses the entrywise absolute values of the Grams instead."""
    num_axes = len(knot_vectors)
    dims = [k.size - degree - 1 for k in knot_vectors]
    grams = {(p, r): derivative_gram(k, degree, r)
             for p, k in enumerate(knot_vectors) for r in (0, 1, 2)}
    if absolute:
        grams = {key: abs(g) for key, g in grams.items()}
    terms = [(tuple(2 if t == p else 0 for t in range(num_axes)), 1.0) for p in range(num_axes)]
    terms += [(tuple(1 if t in (p, s) else 0 for t in range(num_axes)), 2.0)
              for p in range(num_axes) for s in range(p + 1, num_axes)]
    out = np.zeros(alpha.size)
    for orders, weight in terms:
        v = alpha.reshape(dims)
        for p, r in enumerate(orders):
            moved = np.moveaxis(v, p, 0)
            v = np.moveaxis((grams[(p, r)] @ moved.reshape(dims[p], -1)).reshape(moved.shape), 0, p)
        out += weight * v.ravel()
    return out


def normal_equation_residual(points, responses, alpha, lam, knot_vectors, degree):
    """``||(B'B + lam R) alpha - B'y|| / ||B'y||`` from the reference operators,
    and the rounding floor below which no double-precision evaluation of it
    is meaningful.

    The floor is ``gamma_m || |B'||B||alpha| + lam |R||alpha| || / ||B'y||``
    with ``gamma_m = m u / (1 - m u)``, ``u = 2**-53`` and ``m = (2 degree +
    1)**P`` the number of terms summed in a penalty row: the standard bound
    on the rounding error of a matrix-vector product.  It matters where the
    penalty's entries dwarf the data term's, as for fine 1D grids.
    """
    b_mat = design_matrix(points, knot_vectors, degree)
    rhs = b_mat.T @ responses
    lhs = b_mat.T @ (b_mat @ alpha) + lam * penalty_matvec(alpha, knot_vectors, degree)
    abs_b = abs(b_mat)
    size = (abs_b.T @ (abs_b @ np.abs(alpha))
            + lam * penalty_matvec(np.abs(alpha), knot_vectors, degree, absolute=True))
    mu = (2 * degree + 1) ** len(knot_vectors) * 2.0**-53
    norm_rhs = np.linalg.norm(rhs)
    return (float(np.linalg.norm(lhs - rhs) / norm_rhs),
            float(mu / (1 - mu) * np.linalg.norm(size) / norm_rhs))


def evaluate(points, alpha, knot_vectors, degree):
    """Spline values at ``points`` by scipy's tensor-product evaluator."""
    dims = [k.size - degree - 1 for k in knot_vectors]
    spline = NdBSpline(tuple(knot_vectors), alpha.reshape(dims), degree)
    return spline(points)


def sigmoid(points):
    """The noiseless surface the workloads sample:
    ``1 / (1 + exp(-16 (|x|^2 / P - 1/2)))``."""
    t = (points**2).sum(axis=1) / points.shape[1] - 0.5
    return 1.0 / (1.0 + np.exp(-16.0 * t))
