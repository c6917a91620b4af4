"""Grid hierarchy, smoothers, the memory-lean V-cycle and the preconditioners.

Levels ``g = 1..G`` share the dataset, smoothing parameter and degrees; the
prolongation between consecutive levels is the Kronecker product of the
per-axis refinement matrices and restriction is its transpose.  The spaces
are nested, so every coarse operator equals ``P' A P`` of the level above
it (the Galerkin relation).

`build_hierarchy` picks the first level to assemble from its own windows;
every level below it is the sparse Galerkin product ``P' A P`` of the level
above, and every level above it stays matrix-free.  The finest level is
assembled when its band CSR, together with the ``B'y`` it keeps, stores no
more numbers than the per-point window arrays it replaces (many points on
few coefficients, as in 1D); this keeps the hierarchy's memory no larger
than with a matrix-free finest level.  Otherwise the walk goes down from
level ``G - 1``; levels stay matrix-free until the first one whose band
nonzeros fit into the window entries of one data pass
(``n * prod(q + 1)``), so that one CSR product costs no more than one pass
over the data.  Only the coarsest operator is factorized.

`preconditioner` turns a name of `PRECONDITIONERS` into the ``r -> z`` map
of one solve step: the identity (``none``), or one V-cycle from zero with
damped Jacobi (``mg-jacobi``, matrix-free) or symmetric Gauss-Seidel
(``mg-ssor``, sparse triangular solves on each level's CSR matrix) sweeps.
"""
from __future__ import annotations

from functools import reduce
from math import prod

import numpy as np
import scipy.linalg
import scipy.sparse

from .bsplines import subdivision_matrix
from .errors import CapacityError, NumericError, ParameterError, ShapeError
from .system import (
    DENSE_CAP,
    BandPattern,
    LevelOperator,
    ScatteredDataset,
    build_level,
    level_spaces,
    normalize_degrees,
)
from .tensorops import kron_matvec, kron_matvec_transposed, stored_size

# relative residual tolerance of the nested CG that solves a coarsest level
# above the dense cap
COARSE_CG_TOL = 1e-10
PRECONDITIONERS = ("none", "mg-jacobi", "mg-ssor")


class Hierarchy:
    """Level operators ``1..G`` plus transfer factors and a coarse solver.

    Attributes
    ----------
    levels : list of LevelOperator
        ``levels[g - 1]`` is the operator on level ``g``.
    transfers : list of tuple of scipy.sparse.csr_array
        ``transfers[g - 1]`` holds the per-axis refinement factors from level
        ``g`` to ``g + 1`` (fine-dim x coarse-dim each).
    nu1, nu2 : int
        Pre-/post-smoothing sweeps of the V-cycle.
    omega : float
        Jacobi damping factor.
    dense_cap : int
        Largest dimension assembled densely: the coarsest level is solved by
        Cholesky when its size is at most ``dense_cap``, otherwise by nested
        CG to the relative tolerance ``COARSE_CG_TOL``.
    """

    def __init__(self, levels, transfers, nu1, nu2, omega, dense_cap=DENSE_CAP):
        self.levels = levels
        self.transfers = transfers
        self.nu1 = int(nu1)
        self.nu2 = int(nu2)
        self.omega = float(omega)
        self.dense_cap = int(dense_cap)
        self._coarse_factor = None
        if levels[0].size <= self.dense_cap:
            a1 = levels[0].assemble_dense(self.dense_cap)
            try:
                self._coarse_factor = scipy.linalg.cho_factor(a1)
            except scipy.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
                raise NumericError(f"coarse factorization failed on level 1: {exc}") from exc

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> LevelOperator:
        return self.levels[-1]

    def level(self, g: int) -> LevelOperator:
        if not 1 <= g <= self.num_levels:
            raise ParameterError(f"level must be in 1..{self.num_levels}, got {g}")
        return self.levels[g - 1]

    def memory_reals(self) -> int:
        """Count of all stored hierarchy numbers (values and indices, each
        counted as one float64 slot)."""
        count = sum(op.memory_reals() for op in self.levels)
        count += sum(stored_size(f) for axis_factors in self.transfers for f in axis_factors)
        if self._coarse_factor is not None:
            count += self._coarse_factor[0].size
        return int(count)

    def workspace_reals(self) -> int:
        """Float64 count of the V-cycle working vectors (residual, coarse
        correction and one smoother scratch per level)."""
        sizes = [op.size for op in self.levels]
        count = sum(2 * sizes[g] + sizes[g - 1] for g in range(1, len(sizes)))
        count += max(op.design.rel.shape[0] for op in self.levels)
        return int(count)


def _check_identifiable(dataset: ScatteredDataset) -> None:
    """Raise unless the points determine an affine function.

    The penalty vanishes exactly on the affine functions, so the normal
    equations are singular when ``[1, X]`` has rank below ``P + 1`` (all
    points on one hyperplane, for example a single point or collinear points
    in the plane).  The rank is that of ``[1, X]`` on the unit cube, not of the
    centred ``X``: the rounded mean shifts all rows alike and can lift the rank.
    """
    lower, upper = dataset.bounds[:, 0], dataset.bounds[:, 1]
    scaled = (dataset.points - lower) / (upper - lower)
    rank = int(np.linalg.matrix_rank(np.column_stack([np.ones(dataset.n), scaled])))
    if rank < dataset.num_axes + 1:
        raise ParameterError(
            f"the points lie on one affine subspace of dimension {rank - 1} "
            f"([1, X] has rank {rank} < {dataset.num_axes + 1}); the penalty vanishes "
            "on affine functions, so such data leave the smoothing system singular"
        )


def galerkin_product(matrix, factors):
    """``P' A P`` for the Kronecker prolongation ``P`` of the 1D refinement
    factors, as a CSR matrix."""
    p = reduce(lambda a, b: scipy.sparse.kron(a, b, format="csr"), factors)
    return scipy.sparse.csr_array(p.T @ (matrix @ p))


def first_assembled_level(spaces, n: int) -> int:
    """The level `build_hierarchy` assembles from its windows (``0``: none).

    ``spaces[g - 1]`` are the axis spaces of level ``g``.  The finest level
    ``G`` qualifies when ``2 nnz + K + 1`` CSR numbers (values, indices and
    index pointers, as `stored_size` counts them) plus its ``K`` numbers of
    ``B'y`` are at most the ``n (P (max q + 1) + P + 1)`` numbers of its
    window values, offsets and bases; the window odometer is kept by both
    storages.  Otherwise it is the finest level below ``G`` whose band
    holds at most ``n prod(q + 1)`` nonzeros.
    """
    degrees = [s.degree for s in spaces[-1]]
    num_axes = len(degrees)
    finest = BandPattern(spaces[-1])
    windows = n * (num_axes * (max(degrees) + 1) + num_axes + 1)
    if 2 * finest.nnz + 2 * finest.size + 1 <= windows:
        return len(spaces)
    pass_entries = n * prod(q + 1 for q in degrees)
    return next(
        (g for g in range(len(spaces) - 1, 0, -1) if BandPattern(spaces[g - 1]).nnz <= pass_entries),
        0,
    )


def build_hierarchy(
    dataset: ScatteredDataset,
    num_levels: int,
    lam: float,
    degrees=3,
    nu1: int = 2,
    nu2: int = 2,
    omega: float = 0.8,
    dense_cap: int = DENSE_CAP,
) -> Hierarchy:
    """Build level operators, transfer factors and the coarse factorization.

    Levels are assembled into CSR by the size rule of the module docstring
    (`first_assembled_level`), which reads only the dataset's size and the
    spaces.  The coarsest level is factorized by Cholesky when its dimension
    is at most ``dense_cap`` and solved by nested CG otherwise.
    """
    if num_levels < 1:
        raise ParameterError(f"need at least one level, got {num_levels}")
    if nu1 < 0 or nu2 < 0:
        raise ParameterError("smoothing step counts must be non-negative")
    if not 0 < omega < 2:
        raise ParameterError(f"damping factor must be in (0, 2), got {omega}")
    degrees = normalize_degrees(degrees, dataset.num_axes)
    _check_identifiable(dataset)
    spaces = [level_spaces(dataset, g, degrees) for g in range(1, num_levels + 1)]
    transfers = [
        tuple(subdivision_matrix(cs, fs) for cs, fs in zip(spaces[i], spaces[i + 1]))
        for i in range(num_levels - 1)
    ]
    assembled = first_assembled_level(spaces, dataset.n)
    # CSR levels first, so that the assembly scratch never meets the windows
    # of the finer levels
    levels = [None] * num_levels
    if assembled:
        levels[assembled - 1] = LevelOperator(dataset, assembled, lam, degrees).assemble(
            keep_rhs=assembled == num_levels)
    for g in range(assembled - 1, 0, -1):
        matrix = galerkin_product(levels[g].matrix, transfers[g - 1])
        levels[g - 1] = LevelOperator(dataset, g, lam, degrees, matrix=matrix)
    for g in range(assembled + 1, num_levels + 1):
        levels[g - 1] = build_level(dataset, g, lam, degrees)
    return Hierarchy(levels, transfers, nu1, nu2, omega, dense_cap)


def jacobi_spectral_bound(level) -> float:
    """Estimate of the largest eigenvalue of the diagonally scaled operator.

    Runs a short power iteration on the symmetrized form
    ``D^{-1/2} A D^{-1/2}`` from a seeded start vector (deterministic per
    operator size) and caches the slightly inflated result on the operator.
    The scaled spectrum bounds the stable Jacobi step: sweeps amplify the
    top modes once the step exceeds ``2 / lambda_max``.
    """
    cached = getattr(level, "_jacobi_spectral_bound", None)
    if cached is not None:
        return cached
    scale = 1.0 / np.sqrt(level.diagonal())
    gen = np.random.default_rng(level.size)
    z = gen.standard_normal(level.size)
    z /= np.linalg.norm(z)
    mu = 1.0
    for _ in range(20):
        y = scale * level.apply(scale * z)
        mu = float(z @ y)
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            mu = 0.0
            break
        z = y / norm_y
    bound = 1.05 * max(mu, 1e-12)
    try:
        level._jacobi_spectral_bound = bound
    except AttributeError:  # frozen operator-likes just recompute
        pass
    return bound


def effective_jacobi_step(level, omega: float) -> float:
    """Damping actually applied per sweep: ``omega`` itself while the scaled
    spectrum sits inside the stability window, otherwise ``omega`` as a
    fraction of the window ``2 / lambda_max`` (higher-dimensional penalties
    push ``lambda_max(D^{-1}A)`` well above 2, where a fixed step diverges
    on the finest modes)."""
    bound = jacobi_spectral_bound(level)
    return omega if bound <= 2.0 else 2.0 * omega / bound


def jacobi_smooth(level: LevelOperator, alpha, b, steps: int, omega: float) -> np.ndarray:
    """Damped Jacobi sweeps ``alpha += step * r / diag`` on one level.

    ``omega`` is the damping fraction of the level's stable step range (see
    `effective_jacobi_step`).  ``alpha=None`` starts from the zero vector
    (the first residual is then ``b`` and costs no operator application).
    """
    if steps < 0:
        raise ParameterError("step count must be non-negative")
    if not 0 < omega < 2:
        raise ParameterError(f"damping factor must be in (0, 2), got {omega}")
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.shape != (level.size,):
        raise ShapeError(f"expected vector of length {level.size}, got {b.shape}")
    dinv = (effective_jacobi_step(level, omega) if steps else omega) / level.diagonal()
    if alpha is None:
        alpha = np.zeros(level.size)
        if steps >= 1:
            alpha += dinv * b
            steps -= 1
    else:
        alpha = np.array(alpha, dtype=np.float64, copy=True)
        if alpha.shape != (level.size,):
            raise ShapeError(f"expected vector of length {level.size}, got {alpha.shape}")
    for _ in range(steps):
        r = b - level.apply(alpha)
        alpha += dinv * r
    return alpha


def gauss_seidel_sweep(matrix, lower, upper, alpha, b) -> None:
    """One symmetric Gauss-Seidel sweep in place: ``alpha += (D + L)^{-1} (b - A alpha)``,
    then the same with ``D + U``; ``alpha`` may hold several columns.  ``lower`` and
    ``upper`` are the triangles of the CSR ``matrix`` (`spsolve_triangular` reads every
    entry it is given, so ``matrix`` itself cannot stand in for them)."""
    from scipy.sparse.linalg import spsolve_triangular  # 1.4 MiB: not at package import

    alpha += spsolve_triangular(lower, b - matrix @ alpha, lower=True)
    alpha += spsolve_triangular(upper, b - matrix @ alpha, lower=False)


def gauss_seidel_smoother(hier: Hierarchy):
    """Symmetric Gauss-Seidel smoother ``(g, alpha, b, steps) -> alpha`` of levels
    ``2..G`` (``alpha=None``: zero start) and the count of numbers it stores.

    Each level sweeps with its CSR matrix (an assembled level's own, `_band_csr` built
    once for a windows level) and ``tril``/``triu`` copies of it; the count covers the
    copies and the windows levels' matrices."""
    sweeps, stored = {}, 0
    for op in hier.levels[1:]:
        matrix = op._band_csr() if op.matrix is None else op.matrix
        lower = scipy.sparse.tril(matrix, format="csr")
        upper = scipy.sparse.triu(matrix, format="csr")
        stored += stored_size(lower) + stored_size(upper)
        if op.matrix is None:
            stored += stored_size(matrix)
        sweeps[op.level] = (matrix, lower, upper)

    def smoother(g, alpha, b, steps):
        matrix, lower, upper = sweeps[g]
        alpha = np.zeros(matrix.shape[0]) if alpha is None else np.array(alpha, dtype=np.float64)
        for _ in range(steps):
            gauss_seidel_sweep(matrix, lower, upper, alpha, b)
        return alpha

    return smoother, stored


def preconditioner(hier: Hierarchy, name: str):
    """The ``r -> z`` map named by ``name`` (one of `PRECONDITIONERS`) and the count of
    numbers it stores beyond the hierarchy: the identity (``'none'``), or one V-cycle
    from zero with damped Jacobi or `gauss_seidel_smoother` sweeps.  ``'mg-ssor'``
    raises `CapacityError` when the finest level is larger than ``hier.dense_cap``."""
    if name == "none":
        return (lambda r: r), 0
    if name == "mg-jacobi":
        return (lambda r: v_cycle(hier, None, r, hier.num_levels)), 0
    if name == "mg-ssor":
        if hier.finest.size > hier.dense_cap:
            raise CapacityError(f"mg-ssor on a finest level of dimension "
                                f"{hier.finest.size} exceeds dense cap {hier.dense_cap}")
        smoother, stored = gauss_seidel_smoother(hier)
        return (lambda r: v_cycle(hier, None, r, hier.num_levels, smoother=smoother)), stored
    raise ParameterError(f"unknown preconditioner {name!r}; expected one of {PRECONDITIONERS}")


def transfer(hier: Hierarchy, g: int, v, direction: str) -> np.ndarray:
    """Move a coefficient vector between adjacent levels.

    ``direction='prolong'`` maps level ``g`` to ``g + 1`` via the refinement
    factors; ``'restrict'`` maps level ``g`` to ``g - 1`` via their
    transposes.
    """
    if direction == "prolong":
        if g >= hier.num_levels:
            raise ParameterError(f"cannot prolong from the finest level {g}")
        return kron_matvec(hier.transfers[g - 1], v)
    if direction == "restrict":
        if g <= 1:
            raise ParameterError("cannot restrict from the coarsest level")
        return kron_matvec_transposed(hier.transfers[g - 2], v)
    raise ParameterError(f"direction must be 'prolong' or 'restrict', got {direction!r}")


def _plain_cg(apply_fn, b, tol, maxiter):
    """Minimal CG used as the nested coarse solver; returns the iterate and
    whether its recursive residual reached ``tol``."""
    x = np.zeros_like(b)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return x, True
    r = b.copy()
    p = r.copy()
    rr = r @ r
    for k in range(maxiter):
        v = apply_fn(p)
        w = rr / (p @ v)
        x += w * p
        r -= w * v
        rr_new = r @ r
        if not np.isfinite(rr_new):
            raise NumericError("nested coarse CG diverged", iteration=k)
        if np.sqrt(rr_new) <= tol * nb:
            return x, True
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, False


def coarse_solve(hier: Hierarchy, b) -> np.ndarray:
    """Solve the coarsest-level system (direct factorization or nested CG).

    A nested CG that stops short of ``COARSE_CG_TOL`` still returns its
    iterate, since a rough coarse correction can serve the V-cycle; one
    whose true residual is no smaller than ``||b||`` (worse than the zero
    vector) raises `NumericError`.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    coarse = hier.levels[0]
    if b.shape != (coarse.size,):
        raise ShapeError(f"expected vector of length {coarse.size}, got {b.shape}")
    if hier._coarse_factor is not None:
        return scipy.linalg.cho_solve(hier._coarse_factor, b)
    x, reached = _plain_cg(coarse.apply, b, COARSE_CG_TOL, 20 * coarse.size)
    if not reached:
        relative = float(np.linalg.norm(b - coarse.apply(x)) / np.linalg.norm(b))
        if not relative < 1.0:
            raise NumericError(
                f"nested coarse CG on level 1 (size {coarse.size}) ended at relative "
                f"residual {relative:.3g}, no better than the zero vector; a dense_cap of "
                f"at least {coarse.size} (now {hier.dense_cap}) solves it by Cholesky"
            )
    return x


def v_cycle(hier: Hierarchy, alpha, b, g: int | None = None, smoother=None) -> np.ndarray:
    """One V-cycle for the level-``g`` system starting from ``alpha``.

    Pre-smooth, restrict the residual ``A alpha - b``, recurse from a zero
    initial guess, subtract the prolonged coarse correction, post-smooth;
    level 1 is solved by `coarse_solve`.  ``alpha=None`` means a zero start.
    ``smoother(g, alpha, b, steps)`` may replace the damped Jacobi default.
    """
    g = hier.num_levels if g is None else int(g)
    if g == 1:
        return coarse_solve(hier, b)
    level = hier.level(g)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.shape != (level.size,):
        raise ShapeError(f"expected vector of length {level.size}, got {b.shape}")

    if smoother is None:
        def smoother(gg, a, rhs, steps):
            return jacobi_smooth(hier.level(gg), a, rhs, steps, hier.omega)

    alpha = smoother(g, alpha, b, hier.nu1)
    r = level.apply(alpha) - b
    r_coarse = kron_matvec_transposed(hier.transfers[g - 2], r)
    e = v_cycle(hier, None, r_coarse, g - 1, smoother)
    alpha -= kron_matvec(hier.transfers[g - 2], e)
    return smoother(g, alpha, b, hier.nu2)
