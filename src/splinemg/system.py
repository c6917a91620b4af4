"""Penalized least-squares operator per grid level.

For scattered observations and a tensor-product spline space, the normal
equations read ``(B'B + lam * R) alpha = B'y`` where ``B`` holds the tensor
basis evaluated at the data and ``R`` is the thin-plate style roughness
penalty built from all pure and mixed second-order derivative Gram matrices.

`LevelOperator` holds the left-hand side in one of two storages, fixed at
construction.  The matrix-free one (``storage == "windows"``) keeps the
per-point design windows and applies the data term with the window kernels
and the penalty by Kronecker contractions, so its coefficient matrix is
never formed.  The assembled one (``"csr"``) holds ``B'B + lam * R`` as one
CSR matrix in the Kronecker band pattern (per axis the ``2q + 1`` diagonals
of a degree-``q`` space, `BandPattern`, with 32-bit indices where they fit)
and keeps no per-point data.  `LevelOperator.band_csr` is a level's one
source of that matrix: the stored one, or one built from the windows
(cell-grouped data products plus the penalty bands).  An assembled level is
constructed from it (and, for a finest level, keeps ``B'y``), `assemble_dense`
densifies it, and the multigrid hierarchy derives coarser levels by Galerkin
products and cuts its ``mg-ssor`` triangles from it.  Which levels are
assembled, the finest one included, is the multigrid hierarchy's size rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import factorial, prod

import numpy as np
import scipy.sparse

from . import kernels
from .bsplines import MAX_DEGREE, build_space, csr_index_dtype, eval_basis_batch, gram_matrix
from .errors import (
    CapacityError,
    DomainError,
    ParameterError,
    ShapeError,
    check_finite,
    check_integer,
)
from .tensorops import (
    KhatriRaoFactors,
    khatri_rao_gram_diag,
    khatri_rao_gram_matvec,
    khatri_rao_matvec,
    khatri_rao_tmatvec,
    kron_diagonal,
    kron_matvec,
    stored_bytes,
)

# largest dense dimension (squared: largest mg-ssor band); read here at each use
DENSE_CAP = 20_000


@dataclass(frozen=True)
class ScatteredDataset:
    """Scattered observation pairs on a box domain.

    Attributes
    ----------
    points : (n, P) array, P >= 1, or (n,) for one axis
        Covariates; every coordinate must lie inside its axis interval.
    responses : (n,) array
    bounds : (P, 2) array
        Per-axis domain intervals, finite with ``lower < upper``; defaults to
        the unit cube.
    """

    points: np.ndarray
    responses: np.ndarray
    bounds: np.ndarray

    def __init__(self, points, responses, bounds=None):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[1] < 1:
            raise ShapeError(f"points must have shape (n,) or (n, P) with P >= 1, "
                             f"got {points.shape}")
        responses = np.ascontiguousarray(responses, dtype=np.float64).reshape(-1)
        if points.shape[0] != responses.shape[0]:
            raise ShapeError(
                f"{points.shape[0]} points but {responses.shape[0]} responses"
            )
        if points.shape[0] < 1:
            raise ParameterError("dataset must contain at least one observation")
        if bounds is None:
            bounds = np.tile(np.array([0.0, 1.0]), (points.shape[1], 1))
        bounds = np.ascontiguousarray(bounds, dtype=np.float64).reshape(-1, 2)
        if bounds.shape[0] != points.shape[1]:
            raise ShapeError("bounds must provide one interval per covariate axis")
        bad = np.flatnonzero(~(np.isfinite(bounds).all(axis=1) & (bounds[:, 0] < bounds[:, 1])))
        if bad.size:
            raise ParameterError(f"axis {bad[0]} bounds {bounds[bad[0]].tolist()} must be "
                                 "finite with lower < upper")
        if not np.isfinite(points).all() or not np.isfinite(responses).all():
            raise ParameterError("dataset contains non-finite values")
        outside = (points < bounds[:, 0]) | (points > bounds[:, 1])
        if outside.any():
            idx = np.flatnonzero(outside.any(axis=1))[:10]
            raise DomainError(
                f"{int(outside.any(axis=1).sum())} point(s) outside the domain, "
                f"first offending indices {idx.tolist()}"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def num_axes(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class PenaltyTerm:
    """One second-order roughness term: derivative orders per axis, its
    multinomial weight, and the per-axis Gram factors as returned by
    `gram_matrix` (banded CSR, shared between terms of equal axis order)."""

    orders: tuple
    weight: float
    factors: tuple


def penalty_terms(spaces) -> list[PenaltyTerm]:
    """All second-order derivative terms for the given axis spaces.

    There are P pure terms (weight 1) and P*(P-1)/2 mixed terms (weight 2);
    the weight of a term with orders ``r`` is ``2 / prod(r_p!)``.
    """
    num_axes = len(spaces)
    grams = {}

    def gram(p, r):
        if (p, r) not in grams:
            grams[(p, r)] = gram_matrix(spaces[p], r)
        return grams[(p, r)]

    terms = []
    for p in range(num_axes):
        orders = tuple(2 if t == p else 0 for t in range(num_axes))
        factors = tuple(gram(t, orders[t]) for t in range(num_axes))
        terms.append(PenaltyTerm(orders, 2.0 / factorial(2), factors))
    for p1 in range(num_axes):
        for p2 in range(p1 + 1, num_axes):
            orders = tuple(1 if t in (p1, p2) else 0 for t in range(num_axes))
            factors = tuple(gram(t, orders[t]) for t in range(num_axes))
            terms.append(PenaltyTerm(orders, 2.0, factors))
    return terms


def normalize_degrees(degrees, num_axes) -> tuple:
    """Per-axis spline degrees, each in ``2..MAX_DEGREE``."""
    if np.isscalar(degrees):
        degrees = (degrees,) * num_axes
    degrees = tuple(check_integer(q, "degree must be an integer") for q in degrees)
    if len(degrees) != num_axes:
        raise ParameterError(f"need {num_axes} degrees, got {len(degrees)}")
    if min(degrees) < 2 or max(degrees) > MAX_DEGREE:
        # second-derivative Gram factors require square-integrable second
        # derivatives, so linear splines cannot carry the penalty
        raise ParameterError(
            f"smoothing requires degrees in 2..{MAX_DEGREE}, got {degrees}"
        )
    return degrees


def design_factors(spaces, points) -> KhatriRaoFactors:
    """Per-point basis activations of all axes as window factors.

    Row ``i`` of the implied per-axis design matrix has exactly
    ``degree + 1`` contiguous nonzeros summing to one.
    """
    offsets = np.empty((points.shape[0], len(spaces)), dtype=np.int64)
    windows = []
    for p, space in enumerate(spaces):
        off, vals = eval_basis_batch(space, points[:, p], 0)
        offsets[:, p] = off
        windows.append(vals)
    return KhatriRaoFactors.from_windows(
        row_dims=tuple(s.dim for s in spaces), offsets=offsets, window_values=windows
    )


def evaluate_spline(spaces, alpha, points) -> np.ndarray:
    """Values at ``points`` ``(n, P)`` of the tensor spline with coefficients
    ``alpha`` on ``spaces``: the one evaluation of a fit at arbitrary points.

    Each axis's basis is evaluated once at all points (`eval_basis_batch`),
    and `kernels.gather` contracts every point's coefficient window with
    those ``(n, degree + 1)`` arrays one axis at a time.  Only the flat
    window base of each point is formed besides them: no `KhatriRaoFactors`,
    no ``(n, P, degree + 1)`` copy of the values and no per-axis offsets.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != len(spaces):
        raise ShapeError(f"points must have {len(spaces)} columns")
    alpha = np.ascontiguousarray(alpha, dtype=np.float64)
    size = prod(s.dim for s in spaces)
    if alpha.shape != (size,):
        raise ShapeError(f"expected vector of length {size}, got {alpha.shape}")
    base = np.zeros(points.shape[0], dtype=np.int64)
    rel = np.zeros(1, dtype=np.int64)
    values = [None] * len(spaces)
    stride = 1
    for p in range(len(spaces) - 1, -1, -1):
        off, values[p] = eval_basis_batch(spaces[p], points[:, p], 0)
        base += stride * off
        rel = (stride * np.arange(values[p].shape[1])[:, None] + rel[None, :]).ravel()
        stride *= spaces[p].dim
    return kernels.gather(values, base, rel, alpha, np.empty(points.shape[0]))


def level_spaces(dataset: ScatteredDataset, level: int, degrees) -> tuple:
    """The per-axis spline spaces of one grid level on the dataset's box."""
    return tuple(
        build_space(lo, hi, level, q) for (lo, hi), q in zip(dataset.bounds, degrees)
    )


class BandPattern:
    """CSR layout of a level's Kronecker band pattern.

    Per axis, row ``r`` of a degree-``q`` space couples the columns
    ``lo[r] .. lo[r] + width[r] - 1`` with ``lo[r] = max(r - q, 0)``, and a
    level row couples the C-order product of its axes' column ranges.  So
    entry ``(R, C)`` is stored at ``indptr[R] + sum_p (c_p - lo_p[r_p]) *
    prod_{t > p} width_t[r_t]``, with columns sorted within each row, in
    indices of the `csr_index_dtype` of ``nnz`` (`positions` sums in 64 bits).
    """

    def __init__(self, spaces):
        self.degrees = tuple(s.degree for s in spaces)
        self.dims = tuple(s.dim for s in spaces)
        self.size = prod(self.dims)
        self.strides = [prod(self.dims[p + 1:]) for p in range(len(self.dims))]
        self.lo, self.width, self.valid = [], [], []
        for d, q in zip(self.dims, self.degrees):
            r = np.arange(d)
            self.lo.append(np.maximum(r - q, 0))
            self.width.append(np.minimum(r + q, d - 1) - self.lo[-1] + 1)
            # band codes 0..2q per row: column r + code - q, kept when in range
            cols = r[:, None] + np.arange(-q, q + 1)[None, :]
            self.valid.append((cols >= 0) & (cols < d))
        row_nnz = reduce(np.multiply.outer, self.width).reshape(-1)
        self.nnz = int(row_nnz.sum())
        self.indptr = np.concatenate(([0], np.cumsum(row_nnz))).astype(csr_index_dtype(self.nnz))

    def positions(self, rows, cols) -> np.ndarray:
        """Storage positions of the entries ``(rows, cols)`` (flat indices,
        broadcast against each other)."""
        pos = self.indptr[rows]
        stride = 1
        for p in range(len(self.dims) - 1, -1, -1):
            r = rows // self.strides[p] % self.dims[p]
            c = cols // self.strides[p] % self.dims[p]
            pos = pos + (c - self.lo[p][r]) * stride
            stride = stride * self.width[p][r]
        return pos

    def axis_band(self, factor, p: int) -> np.ndarray:
        """Band array ``(dim, 2q + 1)`` of a 1D CSR factor of axis ``p``:
        entry ``(r, code)`` holds the factor at column ``r + code - q``."""
        q = self.degrees[p]
        rows = np.repeat(np.arange(factor.shape[0]), np.diff(factor.indptr))
        out = np.zeros((factor.shape[0], 2 * q + 1))
        out[rows, factor.indices - rows + q] = factor.data
        return out

    def tocsr(self, data, kron_terms) -> scipy.sparse.csr_array:
        """CSR matrix of the stored entries ``data`` plus the sum of the
        Kronecker products of ``kron_terms`` (lists of per-axis band arrays).

        A block of first-axis rows at a time, the products are formed as
        ``(rows, prod(2q + 1))`` band arrays, which are ``np.kron`` of the
        per-axis ones, and their in-range entries are read out in storage
        order; the blocks hold about ``CHUNK_ENTRIES * 4`` numbers.
        """
        band_width = prod(2 * q + 1 for q in self.degrees)
        colshift = np.zeros(1, dtype=np.int64)
        for q, stride in zip(self.degrees, self.strides):
            colshift = (colshift[:, None] + stride * np.arange(-q, q + 1)[None, :]).ravel()
        one = np.ones((1, 1))
        rest_valid = reduce(np.kron, self.valid[1:], one) > 0
        rests = [reduce(np.kron, axes[1:], one) for axes in kron_terms]
        rest_rows = self.strides[0]
        step = max(1, kernels.CHUNK_ENTRIES * 4 // (rest_rows * band_width))
        indices = np.empty(self.nnz, dtype=self.indptr.dtype)
        for s in range(0, self.dims[0], step):
            e = min(s + step, self.dims[0])
            keep = np.flatnonzero(np.kron(self.valid[0][s:e], rest_valid))
            band = sum(np.kron(axes[0][s:e], rest) for axes, rest in zip(kron_terms, rests))
            lo, hi = self.indptr[s * rest_rows], self.indptr[e * rest_rows]
            data[lo:hi] += band.reshape(-1)[keep]
            indices[lo:hi] = s * rest_rows + keep // band_width + colshift[keep % band_width]
        return scipy.sparse.csr_array((data, indices, self.indptr), shape=(self.size, self.size))


class LevelOperator:
    """Normal-equations operator ``B'B + lam * R`` on one grid level.

    ``matrix=None`` builds the matrix-free level, which stores the design
    windows of every data point.  Otherwise ``matrix`` is the level's
    assembled operator (CSR), for example the `band_csr` of a windows
    level, and the level stores no windows: its ``design`` holds zero
    points, and `rhs` and `fitted_values` evaluate the basis at the data
    when called.  ``rhs``, a vector of length `size`, is kept as ``B'y`` of
    the training responses, which the default `rhs()` then copies without a
    data pass.  Both storages keep the spaces, the penalty factors, ``lam``
    and the dataset, and a level's storage never changes.
    """

    def __init__(self, dataset: ScatteredDataset, level: int, lam: float, degrees=3,
                 matrix=None, rhs=None):
        if not (np.isfinite(lam) and lam > 0):
            raise ParameterError(f"smoothing parameter must be finite and positive, got {lam}")
        self.degrees = normalize_degrees(degrees, dataset.num_axes)
        self.dataset = dataset
        self.level = check_integer(level, "level must be an integer")
        self.lam = float(lam)
        self.spaces = level_spaces(dataset, level, self.degrees)
        self.dims = tuple(s.dim for s in self.spaces)
        self.size = prod(self.dims)
        if matrix is not None and matrix.shape != (self.size, self.size):
            raise ShapeError(f"level {level} needs a {self.size}x{self.size} matrix, "
                             f"got {matrix.shape}")
        self.matrix = matrix
        self._rhs = None if rhs is None else self._check(rhs)  # B'y of the training responses
        points = dataset.points if matrix is None else dataset.points[:0]
        self.design = design_factors(self.spaces, points)
        self.penalty = penalty_terms(self.spaces)
        self.spectral_bound = None  # filled by `multigrid.jacobi_spectral_bound`
        self._diag = None

    @property
    def storage(self) -> str:
        """``"windows"`` (matrix-free) or ``"csr"`` (assembled)."""
        return "windows" if self.matrix is None else "csr"

    def band_csr(self) -> scipy.sparse.csr_array:
        """``B'B + lam * R`` as CSR in the `BandPattern`: the stored matrix,
        or one built from the windows, which leaves the level unchanged.

        The data term is summed cell by cell (`kernels.cell_gram`) straight
        into the stored entries, and the penalty terms are added from their
        1D band arrays by `BandPattern.tocsr`.  No design matrix and no dense
        ``size x size`` array is formed.
        """
        if self.matrix is not None:
            return self.matrix
        pattern = BandPattern(self.spaces)
        f = self.design

        def locate(cells):
            rows = cells[:, None, None] + f.rel[None, :, None]
            return pattern.positions(rows, rows.transpose(0, 2, 1))

        data = np.zeros(pattern.nnz)
        kernels.cell_gram(f.axis_windows(), f.base, locate, data)
        kron_terms = []
        for term in self.penalty:
            axes = [pattern.axis_band(g, p) for p, g in enumerate(term.factors)]
            axes[0] *= self.lam * term.weight  # scale the small factor, not the product
            kron_terms.append(axes)
        return pattern.tocsr(data, kron_terms)

    # -- core products -----------------------------------------------------

    def _check(self, v, length=None) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=np.float64)
        length = self.size if length is None else length
        if v.shape != (length,):
            raise ShapeError(f"expected vector of length {length}, got {v.shape}")
        return v

    def apply(self, alpha, out=None) -> np.ndarray:
        """Operator action ``(B'B + lam * R) alpha``."""
        alpha = self._check(alpha)
        if self.matrix is not None:
            if out is None:
                return self.matrix @ alpha
            out[:] = self.matrix @ alpha
            return out
        if out is None:
            out = np.zeros(self.size)
        else:
            out[:] = 0.0
        khatri_rao_gram_matvec(self.design, alpha, out)
        for term in self.penalty:
            out += (self.lam * term.weight) * kron_matvec(term.factors, alpha)
        return out

    def abs_apply(self, v) -> np.ndarray:
        """``|A| v`` for the rounding-floor estimate of a solve.

        A CSR level multiplies by the absolute values of its stored entries.
        A windows level forms ``B'B v + sum lam w kron(|G_p|) v``: exact for
        the data term, whose entries are non-negative because B-spline values
        are, and an entrywise upper bound of ``|A| v`` for ``v >= 0``.
        """
        v = self._check(v)
        if self.matrix is not None:
            m = self.matrix
            return scipy.sparse.csr_array((np.abs(m.data), m.indices, m.indptr),
                                          shape=m.shape) @ v
        out = np.zeros(self.size)
        khatri_rao_gram_matvec(self.design, v, out)
        for term in self.penalty:
            out += (self.lam * term.weight) * kron_matvec([abs(g) for g in term.factors], v)
        return out

    def _responses(self, y) -> np.ndarray:
        """``y`` (the training responses by default), checked for length and
        refused with `ParameterError` when an entry is not finite."""
        if y is None:
            y = self.dataset.responses
        return check_finite(self._check(y, self.dataset.n), "responses", "y")

    def rhs(self, y=None) -> np.ndarray:
        """Right-hand side ``B'y`` (training responses by default, a copy of
        the kept ``rhs`` if there is one); a non-finite ``y`` raises `ParameterError`."""
        if y is None and self._rhs is not None:
            return self._rhs.copy()
        y = self._responses(y)
        design = self.design
        if self.matrix is not None:  # an assembled level stores no windows
            design = design_factors(self.spaces, self.dataset.points)
        return khatri_rao_matvec(design, y)

    def diagonal(self) -> np.ndarray:
        """Diagonal of the operator, cached after the first call.

        Raises `ParameterError` when it is not finite: ``lam`` times the
        penalty overflows, and the operator with it."""
        if self._diag is None:
            if self.matrix is not None:
                d = self.matrix.diagonal()
            else:
                d = khatri_rao_gram_diag(self.design)
                for term in self.penalty:
                    d = d + (self.lam * term.weight) * kron_diagonal(term.factors)
            if not np.isfinite(d).all():
                raise ParameterError(
                    f"smoothing parameter {self.lam:g} overflows the level-{self.level} "
                    "operator: lam times the penalty exceeds the double range"
                )
            self._diag = d
        return self._diag

    # -- evaluation and diagnostics -----------------------------------------

    def predict(self, alpha, points) -> np.ndarray:
        """Evaluate the spline with coefficients ``alpha`` at new points
        (`evaluate_spline` on this level's spaces)."""
        return evaluate_spline(self.spaces, alpha, points)

    def fitted_values(self, alpha) -> np.ndarray:
        """Spline values at the training points: a windows level gathers
        from its stored windows, an assembled one evaluates the spline there
        (`evaluate_spline`); both contract with `kernels.gather`."""
        if self.matrix is None:
            return khatri_rao_tmatvec(self.design, self._check(alpha))
        return evaluate_spline(self.spaces, alpha, self.dataset.points)

    def objective(self, alpha, y=None):
        """Return ``(ls, roughness)``: squared misfit and penalty quadratic
        form.  The full objective is ``ls + lam * roughness``.  A non-finite
        ``y`` raises `ParameterError`, as in `rhs`."""
        alpha = self._check(alpha)
        y = self._responses(y)
        resid = self.fitted_values(alpha) - y
        return float(resid @ resid), self.roughness(alpha)

    def roughness(self, alpha) -> float:
        """Penalty quadratic form ``alpha' R alpha`` (no data pass)."""
        alpha = self._check(alpha)
        rough = 0.0
        for term in self.penalty:
            rough += term.weight * float(alpha @ kron_matvec(term.factors, alpha))
        return rough

    def assemble_dense(self) -> np.ndarray:
        """Densify the operator (guarded by `DENSE_CAP`; the coarse Cholesky
        factor and diagnostics only): ``toarray()`` of `band_csr`, so a
        windows level stays matrix-free."""
        if self.size > DENSE_CAP:
            raise CapacityError(f"dense assembly of a {self.size}x{self.size} operator "
                                f"exceeds DENSE_CAP = {DENSE_CAP}")
        return self.band_csr().toarray()

    def memory_bytes(self) -> int:
        """Bytes of the stored operator arrays: design windows, assembled
        matrix (values and CSR indices) and kept ``B'y``, penalty factors
        (each shared 1D Gram once), cached float64 diagonal and index
        helpers."""
        f = self.design
        count = f.values.nbytes + f.offsets.nbytes + f.base.nbytes
        count += f.rel.nbytes + f.digits.nbytes
        if self.matrix is not None:
            count += stored_bytes(self.matrix)
        if self._rhs is not None:
            count += self._rhs.nbytes
        factors = {id(g): g for t in self.penalty for g in t.factors}
        count += sum(stored_bytes(g) for g in factors.values())
        count += 8 * self.size  # cached diagonal
        return int(count)


def build_level(dataset: ScatteredDataset, level: int, lam: float, degrees=3) -> LevelOperator:
    """Construct the matrix-free operator for one grid level."""
    op = LevelOperator(dataset, level, lam, degrees)
    op.diagonal()
    return op
