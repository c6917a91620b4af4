"""Independent dense reference implementations used across the test suite.

Everything here takes the brute-force route on purpose: scipy B-splines for
basis values, adaptive quadrature for Gram entries, and explicit dense
Kronecker / columnwise-Kronecker assembly.  None of it shares code with the
matrix-free production path it checks.
"""
from functools import reduce

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.integrate import quad
from scipy.interpolate import BSpline
from scipy.linalg import solve_triangular


def scipy_basis_column(space, j, deriv=0):
    """Basis function ``j`` of a 1D space as a scipy BSpline callable."""
    coeffs = np.zeros(space.dim)
    coeffs[j] = 1.0
    b = BSpline(space.knots, coeffs, space.degree, extrapolate=True)
    return b.derivative(deriv) if deriv else b


def dense_basis_matrix(space, x, deriv=0):
    """All basis (derivative) values at points ``x``: shape (len(x), dim)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((x.size, space.dim))
    for j in range(space.dim):
        out[:, j] = scipy_basis_column(space, j, deriv)(x)
    return out


def dense_tensor_design(spaces, points):
    """Dense multi-axis design matrix, row-wise tensor products."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    out = dense_basis_matrix(spaces[0], points[:, 0])
    for p in range(1, len(spaces)):
        nxt = dense_basis_matrix(spaces[p], points[:, p])
        out = (out[:, :, None] * nxt[:, None, :]).reshape(points.shape[0], -1)
    return out


def quad_gram_entry(space, j, l, deriv):
    """Gram entry by adaptive quadrature over every knot interval."""
    bj = scipy_basis_column(space, j, deriv)
    bl = scipy_basis_column(space, l, deriv)
    total = 0.0
    for t in range(space.num_intervals):
        x0 = space.lower + t * space.mesh_width
        val, _ = quad(lambda x: bj(x) * bl(x), x0, x0 + space.mesh_width, limit=200)
        total += val
    return total


def dense_kron(factors):
    """Explicit Kronecker product; sparse factors are densified first."""
    mats = [f.toarray() if hasattr(f, "toarray") else f for f in factors]
    return reduce(np.kron, [np.asarray(m, dtype=np.float64) for m in mats])


def dense_khatri_rao(factors):
    """Dense columnwise Kronecker product of (m_p, n) factors."""
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    n = mats[0].shape[1]
    cols = [reduce(np.kron, [m[:, i] for m in mats]) for i in range(n)]
    return np.column_stack(cols)


def dense_system_matrix(op):
    """Dense normal-equations matrix from the scipy design oracle and the
    operator's (independently tested) penalty factors."""
    phi = dense_tensor_design(op.spaces, op.dataset.points)
    a = phi.T @ phi
    for term in op.penalty:
        a = a + (op.lam * term.weight) * dense_kron(term.factors)
    return a


def dense_rhs(op, y=None):
    phi = dense_tensor_design(op.spaces, op.dataset.points)
    y = op.dataset.responses if y is None else np.asarray(y, dtype=np.float64)
    return phi.T @ y


def dense_ssor_vcycle(hier, b):
    """One V-cycle from zero with dense symmetric Gauss-Seidel sweeps.

    Every level is rediscretized densely from the data
    (`dense_system_matrix`), each sweep is two dense triangular solves, the
    transfers are explicit Kronecker products and level 1 is solved directly.
    """
    mats = [dense_system_matrix(op) for op in hier.levels]

    def sweep(a, x, rhs):
        x += solve_triangular(a, rhs - a @ x, lower=True)
        x += solve_triangular(a, rhs - a @ x, lower=False)

    def cycle(g, rhs):
        a = mats[g - 1]
        if g == 1:
            return np.linalg.solve(a, rhs)
        x = np.zeros_like(rhs)
        for _ in range(hier.nu1):
            sweep(a, x, rhs)
        prolong = dense_kron(hier.transfers[g - 2])
        x -= prolong @ cycle(g - 1, prolong.T @ (a @ x - rhs))
        for _ in range(hier.nu2):
            sweep(a, x, rhs)
        return x

    return cycle(hier.num_levels, np.asarray(b, dtype=np.float64))


def dense_jacobi_vcycle(hier, b):
    """One V-cycle from zero with dense Chebyshev smoothing on ``D^-1 A``.

    Every level is rediscretized densely from the data (`dense_system_matrix`).
    A smoothing of ``nu`` steps maps the error by the explicit polynomial
    ``T_nu((theta - t) / delta) / T_nu(theta / delta)`` of ``t = D^-1 A``,
    formed through the eigendecomposition of ``D^-1/2 A D^-1/2``, where
    ``theta`` and ``delta`` are the centre and half-width of ``[lambda_max /
    c, lambda_max]``: ``lambda_max`` is the level's stored ``spectral_bound``
    (set by a V-cycle of the package) and ``c = max(2, (q - 1) P^2)``.  The
    transfers are explicit Kronecker products and level 1 is solved directly.
    """
    mats = [dense_system_matrix(op) for op in hier.levels]

    def smoothing(op, a, steps):
        upper = op.spectral_bound
        lower = upper / max(2, (max(op.degrees) - 1) * len(op.degrees) ** 2)
        theta, delta = 0.5 * (upper + lower), 0.5 * (upper - lower)
        root = np.sqrt(np.diag(a))
        eigenvalues, q = np.linalg.eigh(a / np.outer(root, root))
        series = [0.0] * steps + [1.0]
        factor = chebval((theta - eigenvalues) / delta, series) / chebval(theta / delta, series)
        return (q * factor / root[:, None]) @ (q.T * root)

    def cycle(g, rhs):
        a = mats[g - 1]
        exact = np.linalg.solve(a, rhs)
        if g == 1:
            return exact
        op = hier.levels[g - 1]
        x = exact - smoothing(op, a, hier.nu1) @ exact  # from the zero start
        prolong = dense_kron(hier.transfers[g - 2])
        x -= prolong @ cycle(g - 1, prolong.T @ (a @ x - rhs))
        return exact + smoothing(op, a, hier.nu2) @ (x - exact)

    return cycle(hier.num_levels, np.asarray(b, dtype=np.float64))


class DenseOperator:
    """Duck-typed stand-in for a level operator backed by an explicit
    symmetric matrix; used to exercise solver/smoother algorithms on
    hand-picked spectra.  ``degrees`` stands in for the per-axis spline
    degrees that the Chebyshev smoother reads."""

    def __init__(self, matrix, degrees=(3,)):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.size = self.matrix.shape[0]
        self.degrees = tuple(degrees)
        self.spectral_bound = None

    def apply(self, alpha, out=None):
        res = self.matrix @ alpha
        if out is not None:
            out[:] = res
            return out
        return res

    def abs_apply(self, alpha):
        return np.abs(self.matrix) @ alpha

    def diagonal(self):
        return np.diagonal(self.matrix).copy()
