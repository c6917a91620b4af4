"""Matrix-free penalized least-squares operator per grid level.

For scattered observations and a tensor-product spline space, the normal
equations read ``(B'B + lam * R) alpha = B'y`` where ``B`` holds the tensor
basis evaluated at the data and ``R`` is the thin-plate style roughness
penalty built from all pure and mixed second-order derivative Gram matrices.
`LevelOperator` realizes the left-hand side through the window kernels and
Kronecker contractions without ever forming a coefficient matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import factorial, prod

import numpy as np

from . import kernels
from .bsplines import MAX_DEGREE, build_space, eval_basis_batch, gram_matrix
from .errors import CapacityError, DomainError, ParameterError, ShapeError
from .tensorops import (
    KhatriRaoFactors,
    khatri_rao_gram_diag,
    khatri_rao_gram_matvec,
    khatri_rao_matvec,
    khatri_rao_tmatvec,
    kron_diagonal,
    kron_matvec,
    stored_size,
)

DENSE_CAP = 20_000


@dataclass(frozen=True)
class ScatteredDataset:
    """Scattered observation pairs on a box domain.

    Attributes
    ----------
    points : (n, P) array
        Covariates; every coordinate must lie inside its axis interval.
    responses : (n,) array
    bounds : (P, 2) array
        Per-axis domain intervals; defaults to the unit cube.
    """

    points: np.ndarray
    responses: np.ndarray
    bounds: np.ndarray

    def __init__(self, points, responses, bounds=None):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
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
    multinomial weight, and the per-axis Gram factors (CSR, banded)."""

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
            grams[(p, r)] = gram_matrix(spaces[p], r).tocsr()
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
        degrees = (int(degrees),) * num_axes
    else:
        degrees = tuple(int(q) for q in degrees)
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


class LevelOperator:
    """Matrix-free normal-equations operator on one grid level."""

    def __init__(self, dataset: ScatteredDataset, level: int, lam: float, degrees=3):
        if lam <= 0:
            raise ParameterError(f"smoothing parameter must be positive, got {lam}")
        degrees = normalize_degrees(degrees, dataset.num_axes)
        self.dataset = dataset
        self.level = int(level)
        self.lam = float(lam)
        self.spaces = tuple(
            build_space(lo, hi, level, q)
            for (lo, hi), q in zip(dataset.bounds, degrees)
        )
        self.dims = tuple(s.dim for s in self.spaces)
        self.size = prod(self.dims)
        self.design = design_factors(self.spaces, dataset.points)
        self.penalty = penalty_terms(self.spaces)
        self._diag = None

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
        if out is None:
            out = np.zeros(self.size)
        else:
            out[:] = 0.0
        khatri_rao_gram_matvec(self.design, alpha, out)
        for term in self.penalty:
            out += (self.lam * term.weight) * kron_matvec(term.factors, alpha)
        return out

    def rhs(self, y=None) -> np.ndarray:
        """Right-hand side ``B'y`` (training responses by default)."""
        y = self.dataset.responses if y is None else self._check(y, self.dataset.n)
        return khatri_rao_matvec(self.design, y)

    def diagonal(self) -> np.ndarray:
        """Diagonal of the operator, cached after the first call."""
        if self._diag is None:
            d = khatri_rao_gram_diag(self.design)
            for term in self.penalty:
                d = d + (self.lam * term.weight) * kron_diagonal(term.factors)
            self._diag = d
        return self._diag

    # -- evaluation and diagnostics -----------------------------------------

    def predict(self, alpha, points) -> np.ndarray:
        """Evaluate the spline with coefficients ``alpha`` at new points."""
        alpha = self._check(alpha)
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        if points.shape[1] != len(self.spaces):
            raise ShapeError(f"points must have {len(self.spaces)} columns")
        factors = design_factors(self.spaces, points)
        return khatri_rao_tmatvec(factors, alpha)

    def fitted_values(self, alpha) -> np.ndarray:
        """Spline values at the training points."""
        return khatri_rao_tmatvec(self.design, self._check(alpha))

    def objective(self, alpha, y=None):
        """Return ``(ls, roughness)``: squared misfit and penalty quadratic
        form.  The full objective is ``ls + lam * roughness``."""
        alpha = self._check(alpha)
        y = self.dataset.responses if y is None else self._check(y, self.dataset.n)
        resid = self.fitted_values(alpha) - y
        ls = float(resid @ resid)
        rough = 0.0
        for term in self.penalty:
            rough += term.weight * float(alpha @ kron_matvec(term.factors, alpha))
        return ls, rough

    def assemble_dense(self, cap: int = DENSE_CAP) -> np.ndarray:
        """Densify the operator (guarded by ``cap``; the coarse Cholesky
        factor and diagnostics only)."""
        if self.size > cap:
            raise CapacityError(
                f"dense assembly of a {self.size}x{self.size} operator exceeds cap {cap}"
            )
        f = self.design
        a = kernels.dense_gram(f.values, f.base, f.rel, f.digits, self.size)
        for term in self.penalty:
            a += (self.lam * term.weight) * reduce(np.kron, [g.toarray() for g in term.factors])
        return a

    def memory_reals(self) -> int:
        """Count of the stored operator numbers, each counted as one float64
        slot: design windows, penalty factors (values and CSR indices),
        cached diagonal and index helpers."""
        f = self.design
        count = f.values.size + f.offsets.size + f.base.size
        count += f.rel.size + f.digits.size
        count += sum(stored_size(g) for t in self.penalty for g in t.factors)
        count += self.size  # cached diagonal
        return int(count)


def build_level(dataset: ScatteredDataset, level: int, lam: float, degrees=3) -> LevelOperator:
    """Construct the matrix-free operator for one grid level."""
    op = LevelOperator(dataset, level, lam, degrees)
    op.diagonal()
    return op
