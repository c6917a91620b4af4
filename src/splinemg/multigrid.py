"""Grid hierarchy, smoothers, the memory-lean V-cycle and the preconditioners.

Levels ``g = 1..G`` share the dataset, smoothing parameter and degrees; the
prolongation between consecutive levels is the Kronecker product of the
per-axis refinement matrices and restriction is its transpose.  The spaces
are nested, so every coarse operator equals ``P' A P`` of the level above
it (the Galerkin relation).

`build_hierarchy` picks the first level to assemble from its own windows;
every level below it is the sparse Galerkin product ``P' A P`` of the level
above, and every level above it stays matrix-free.  The finest level is
assembled when its band CSR, together with the ``B'y`` it keeps, counts no
more numbers than ``n (P (max q + 1) + P + 1)``, window values and bases
plus one offset per axis and point (many points on few coefficients, as in
1D).  For degrees ``>= 2`` that keeps it within the bytes of the windows it
replaces wherever its CSR indices are 32-bit, so the hierarchy's memory
stays no larger than with a matrix-free finest level.  Otherwise the walk
goes down from level ``G - 1``; levels stay matrix-free until the first one
whose band nonzeros fit into the window entries of one data pass (``n *
prod(q + 1)``), so that one CSR product costs no more than one pass over the
data.  Only the coarsest operator is factorized; above
`system.DENSE_CAP` it is solved by the package's CG (`solvers.cg_solve`)
instead.

`preconditioner` turns a name of `PRECONDITIONERS` into the ``r -> z`` map
of one solve step, given equal sweep counts: the identity (``none``), or one
V-cycle from zero with the `vcycle_smoother` of that name, the one place that
builds a smoother:
Chebyshev sweeps on ``D^{-1} A`` (``mg-jacobi``, matrix-free; `jacobi_smooth`
over `chebyshev_smooth`) or symmetric Gauss-Seidel sweeps (``mg-ssor``, one
stored CSR triangle of ``D^{-1/2} A D^{-1/2}`` per level; `gauss_seidel_smoother`).
"""
from __future__ import annotations

import os
from functools import reduce
from math import prod

import numpy as np
import scipy.linalg
import scipy.sparse

from . import system
from .bsplines import subdivision_matrix
from .errors import CapacityError, NumericError, ParameterError, ShapeError, check_integer
from .system import (
    BandPattern,
    LevelOperator,
    ScatteredDataset,
    build_level,
    level_spaces,
    normalize_degrees,
)
from .tensorops import kron_diagonal, kron_matvec, kron_matvec_transposed, stored_bytes

# relative residual tolerance of the nested CG that solves a coarsest level
# above `system.DENSE_CAP`
COARSE_CG_TOL = 1e-10
VCYCLE_SMOOTHERS = ("mg-jacobi", "mg-ssor")
PRECONDITIONERS = ("none", *VCYCLE_SMOOTHERS)


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

    The coarsest level is solved by Cholesky when its size is at most
    `system.DENSE_CAP` at construction, otherwise by nested CG to the
    relative tolerance ``COARSE_CG_TOL``.
    """

    def __init__(self, levels, transfers, nu1, nu2):
        self.levels = levels
        self.transfers = transfers
        self.nu1 = int(nu1)
        self.nu2 = int(nu2)
        self._coarse_factor = None
        if levels[0].size <= system.DENSE_CAP:
            a1 = levels[0].assemble_dense()
            try:
                self._coarse_factor = scipy.linalg.cho_factor(a1)
            except scipy.linalg.LinAlgError as exc:
                raise NumericError(f"coarse factorization failed on level 1: {exc}; "
                                   f"{_swamped_term(levels[0], a1)}") from exc

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

    def memory_bytes(self) -> int:
        """Bytes of all stored hierarchy arrays: levels, transfer factors and
        the coarse Cholesky factor."""
        count = sum(op.memory_bytes() for op in self.levels)
        count += sum(stored_bytes(f) for axis_factors in self.transfers for f in axis_factors)
        if self._coarse_factor is not None:
            count += self._coarse_factor[0].nbytes
        return int(count)

    def memory_reals(self) -> float:
        """`memory_bytes` in float64 slots (bytes / 8), for callers that
        count in slots."""
        return self.memory_bytes() / 8

    def workspace_reals(self) -> int:
        """Float64 count of the V-cycle working vectors (residual, coarse
        correction and the smoother's residual and direction per level)."""
        sizes = [op.size for op in self.levels]
        count = sum(3 * sizes[g] + sizes[g - 1] for g in range(1, len(sizes)))
        count += max(op.design.rel.shape[0] for op in self.levels)
        return int(count)


def _swamped_term(level, dense) -> str:
    """Why ``dense``, the ``B'B + lam R`` of a level on identifiable data, is
    singular in double precision: one term lies below the rounding of the
    other, which vanishes on some splines."""
    penalty = sum((level.lam * t.weight) * kron_diagonal(t.factors) for t in level.penalty)
    if penalty.max() > (np.diagonal(dense) - penalty).max():
        small, large, kernel, fix = "data term", "penalty", "affine functions", "smaller"
    else:
        small, large, kernel, fix = ("penalty", "data term",
                                     "splines that are zero at every data point", "larger")
    return (f"at lambda = {level.lam:g} the {small} lies below the rounding of the {large}, "
            f"which vanishes on {kernel}, so the matrix is singular in double precision; "
            f"a {fix} lambda avoids it")


def _check_solve_memory(num_levels: int, degrees) -> None:
    """Raise `CapacityError` when the solve vectors of the finest level alone,
    CG's five, the right-hand side and the finest V-cycle level's three (72
    bytes per coefficient), exceed the machine's physical memory."""
    size = prod(2 ** num_levels + q for q in degrees)  # `build_space`'s dimensions
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 72 * size > physical:
        raise CapacityError(f"level {num_levels} has {size} coefficients, whose solve vectors "
                            f"need {72 * size / 2**30:.3g} GiB, more than the "
                            f"{physical / 2**30:.3g} GiB of physical memory")


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
    index pointers) plus its ``K`` numbers of ``B'y`` are at most ``n (P
    (max q + 1) + P + 1)``, window values and bases plus one offset per axis
    and point (``rel`` is kept by both storages).  The rule counts numbers,
    so a 32-bit CSR index weighs as much as a value.  In bytes, a level with
    32-bit indices takes ``12 nnz + 12 K + 4 <= 6 n (P (max q + 1) + P + 1)
    - 2``, at most the windows' ``8 n (P (max q + 1) + 1)`` when ``max q >=
    2``.  Otherwise it is the finest level below ``G`` whose band holds at
    most ``n prod(q + 1)`` nonzeros.
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
) -> Hierarchy:
    """Build level operators, transfer factors and the coarse factorization.

    Levels are assembled into CSR by the size rule of the module docstring
    (`first_assembled_level`), which reads only the dataset's size and the
    spaces.  The coarsest level is factorized by Cholesky when its dimension
    is at most `system.DENSE_CAP` and solved by nested CG otherwise.  Every
    level's diagonal is formed first, so that a ``lam`` whose penalty
    overflows raises `ParameterError`.  Before any space is built, a finest
    level whose solve vectors alone exceed physical memory raises
    `CapacityError`.
    """
    num_levels = check_integer(num_levels, "need an integer number of levels >= 1", 1)
    for label, count in (("nu1", nu1), ("nu2", nu2)):
        check_integer(count, f"{label} must be a non-negative integer sweep count", 0)
    degrees = normalize_degrees(degrees, dataset.num_axes)
    _check_solve_memory(num_levels, degrees)
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
    # a lam whose penalty overflows shows in the diagonals, which raise
    # `ParameterError`, so numpy's warnings on the way there are left out
    with np.errstate(over="ignore", invalid="ignore"):
        if assembled:
            windows = LevelOperator(dataset, assembled, lam, degrees)
            levels[assembled - 1] = LevelOperator(
                dataset, assembled, lam, degrees, matrix=windows.band_csr(),
                rhs=windows.rhs() if assembled == num_levels else None)
            del windows
        for g in range(assembled - 1, 0, -1):
            matrix = galerkin_product(levels[g].matrix, transfers[g - 1])
            levels[g - 1] = LevelOperator(dataset, g, lam, degrees, matrix=matrix)
        for g in range(assembled + 1, num_levels + 1):
            levels[g - 1] = build_level(dataset, g, lam, degrees)
        for op in levels[:assembled]:
            op.diagonal()  # the windows levels' come from `build_level`
    return Hierarchy(levels, transfers, nu1, nu2)


def jacobi_spectral_bound(level) -> float:
    """Estimate of the largest eigenvalue of the diagonally scaled operator.

    Runs a short power iteration on the symmetrized form
    ``D^{-1/2} A D^{-1/2}`` from a seeded start vector (deterministic per
    operator size) and keeps the slightly inflated result in the level's
    ``spectral_bound``, which a later call returns.  It is the upper end of
    the interval on which `jacobi_smooth` damps.
    """
    if level.spectral_bound is not None:
        return level.spectral_bound
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
    level.spectral_bound = 1.05 * max(mu, 1e-12)
    return level.spectral_bound


def chebyshev_ratio(degrees) -> int:
    """``c`` of the interval ``[lambda_max / c, lambda_max]`` that `jacobi_smooth`
    damps: ``max(2, (q - 1) P^2)`` for the largest degree ``q`` of the ``P``
    axes.  It widens the interval as ``lambda_max(D^{-1} A)`` grows with ``P``
    (about 5.1, 7.5 and 13.7 for cubics at ``P = 2, 3, 4``); it was chosen by
    sweeping the ratio on the benchmark shapes, not tuned per level."""
    return max(2, (max(degrees) - 1) * len(degrees) ** 2)


def chebyshev_smooth(level, alpha, b, steps: int, inverse, upper, lower) -> np.ndarray:
    """``steps`` Chebyshev steps for ``A alpha = b`` on ``M^{-1} A`` (Adams,
    Brezina, Hu and Tuminaro, J. Comput. Phys. 188, 2003), for the SPD ``M``
    whose ``inverse(r)`` overwrites ``r`` with ``M^{-1} r``.

    The steps minimize the largest error factor on ``[lower, upper]``: after
    ``k`` steps the error is ``T_k((theta - M^{-1} A) / delta) / T_k(theta /
    delta)`` times the initial one, where ``theta`` and ``delta`` are the
    interval's centre and half-width.  A step costs one operator application
    and one ``inverse``; ``alpha=None`` starts from the zero vector, whose
    residual is ``b`` at no application.  Besides ``alpha`` a call holds one
    residual and one direction vector.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.shape != (level.size,):
        raise ShapeError(f"expected vector of length {level.size}, got {b.shape}")
    zero_start = alpha is None
    if zero_start:
        alpha = np.zeros(level.size)
    else:
        alpha = np.array(alpha, dtype=np.float64, copy=True)
        if alpha.shape != (level.size,):
            raise ShapeError(f"expected vector of length {level.size}, got {alpha.shape}")
    if steps == 0:
        return alpha
    theta, delta = 0.5 * (upper + lower), 0.5 * (upper - lower)
    sigma = theta / delta
    rho, r = 1.0 / sigma, b.copy()  # r: the residual of the zero start
    for k in range(steps):
        if k or not zero_start:
            np.subtract(b, level.apply(alpha, out=r), out=r)
        inverse(r)
        if k:
            rho_next = 1.0 / (2.0 * sigma - rho)
            d *= rho_next * rho
            r *= 2.0 * rho_next / delta
            d += r
            rho = rho_next
        else:
            d = r / theta
        alpha += d
    return alpha


def jacobi_smooth(level: LevelOperator, alpha, b, steps: int) -> np.ndarray:
    """``steps`` `chebyshev_smooth` steps on ``D^{-1} A`` over ``[lambda_max / c,
    lambda_max]``, with ``lambda_max`` the level's `jacobi_spectral_bound` and
    ``c`` the `chebyshev_ratio` of ``level.degrees``.  A step costs one
    operator application, as a Jacobi sweep does; zero steps read no bound."""
    steps = check_integer(steps, "step count must be a non-negative integer", 0)
    upper = jacobi_spectral_bound(level) if steps else 0.0
    return chebyshev_smooth(level, alpha, b, steps,
                            lambda r: np.divide(r, level.diagonal(), out=r),
                            upper, upper / chebyshev_ratio(level.degrees))


def scaled_upper_triangle(matrix):
    """``triu(S)`` of ``S = D^{-1/2} A D^{-1/2}`` for the CSR ``matrix`` ``A``
    with diagonal ``D``, cut by one mask ``column >= row`` over its arrays, as
    CSR with its index type and exact ones on its diagonal, and ``root =
    sqrt(diag A)``.

    ``S`` is symmetric, so the arrays of ``triu(S)`` as CSR are those of
    ``tril(S)`` as CSC.  With 32-bit indices `spsolve_triangular` works on
    either in place: it neither copies, casts nor rescales it, and writes
    into it only the ones of the unit diagonal, which it already holds."""
    root = np.sqrt(matrix.diagonal())
    rows = np.repeat(np.arange(root.size, dtype=matrix.indices.dtype), np.diff(matrix.indptr))
    keep = matrix.indices >= rows
    rows, cols = rows[keep], matrix.indices[keep]
    data = matrix.data[keep] / (root[rows] * root[cols])
    data[cols == rows] = 1.0
    indptr = np.zeros_like(matrix.indptr)
    np.cumsum(np.bincount(rows, minlength=root.size), out=indptr[1:])
    return scipy.sparse.csr_array((data, cols, indptr), shape=matrix.shape), root


def gauss_seidel_sweep(upper, root, alpha, b) -> None:
    """One symmetric Gauss-Seidel sweep for ``A alpha = b`` in place.  With the
    `scaled_upper_triangle` ``upper`` and ``root`` of ``A`` it runs on ``x =
    root * alpha`` and ``b / root``: first ``x = tril(S)^{-1} (b / root -
    (triu(S) x - x))``, then the same with the triangles swapped, ``tril(S)``
    being the CSC view ``upper.T``."""
    from scipy.sparse.linalg import spsolve_triangular  # 1.4 MiB: not at package import

    lower = upper.T
    x, bh = alpha * root, b / root
    for solve, product, is_lower in ((lower, upper, True), (upper, lower, False)):
        x = spsolve_triangular(solve, bh - (product @ x - x), lower=is_lower,
                               unit_diagonal=True, overwrite_A=True, overwrite_b=True)
    np.divide(x, root, out=alpha)


def gauss_seidel_smoother(hier: Hierarchy):
    """Symmetric Gauss-Seidel smoother ``(g, alpha, b, steps, phase) -> alpha``
    of the levels at hierarchy positions ``g = 2..G``, the positions `v_cycle`
    passes, whatever their grid levels (``alpha=None``: zero start; any phase)
    and the bytes it stores.

    Each level keeps only its `scaled_upper_triangle` and ``root``, cut from
    its `LevelOperator.band_csr` (built and dropped on a windows level).
    Raises `CapacityError` when a smoothed level's `BandPattern` holds more
    than ``system.DENSE_CAP**2`` entries, the entry count of the largest dense
    matrix admitted, before any triangle is built."""
    cap = system.DENSE_CAP ** 2
    for op in hier.levels[1:]:
        nnz = BandPattern(op.spaces).nnz
        if nnz > cap:
            raise CapacityError(f"mg-ssor on level {op.level}: its band holds {nnz} "
                                f"entries, more than DENSE_CAP**2 = {cap}")
    sweeps, stored = {}, 0
    for g, op in enumerate(hier.levels[1:], start=2):
        upper, root = scaled_upper_triangle(op.band_csr())
        stored += stored_bytes(upper) + root.nbytes
        sweeps[g] = (upper, root)

    def smoother(g, alpha, b, steps, phase):
        upper, root = sweeps[g]
        alpha = np.zeros(root.size) if alpha is None else np.array(alpha, dtype=np.float64)
        for _ in range(steps):
            gauss_seidel_sweep(upper, root, alpha, b)
        return alpha

    return smoother, stored


def require_vcycle_name(name: str) -> None:
    """Raise `ParameterError` unless ``name`` is one of `VCYCLE_SMOOTHERS`."""
    if name not in VCYCLE_SMOOTHERS:
        raise ParameterError(f"unknown V-cycle smoother {name!r}; "
                             f"expected one of {VCYCLE_SMOOTHERS}")


def vcycle_smoother(hier: Hierarchy, name: str):
    """The smoother ``(g, alpha, b, steps, phase) -> alpha`` of the V-cycle
    preconditioner ``name`` (``'mg-jacobi'`` or ``'mg-ssor'``; ``alpha=None``:
    zero start) and the bytes it stores: `jacobi_smooth` on the level, matrix-free,
    or the `gauss_seidel_smoother` of ``hier``; both are self-adjoint, any phase."""
    require_vcycle_name(name)
    if name == "mg-jacobi":
        # the module's `jacobi_smooth` is looked up at each call, so that a
        # rebinding of it (a timing hook) reaches every V-cycle
        return (lambda g, alpha, b, steps, phase:
                jacobi_smooth(hier.levels[g - 1], alpha, b, steps)), 0
    return gauss_seidel_smoother(hier)


def preconditioner(hier: Hierarchy, name: str):
    """The ``r -> z`` map named by ``name`` (one of `PRECONDITIONERS`) and the bytes
    it stores beyond the hierarchy: the identity (``'none'``), or one V-cycle from
    zero with the `vcycle_smoother` of that name.  The one judge of which sweep
    counts a V-cycle preconditioner may use: on more than one level it refuses
    (`ParameterError`) ``nu1 + nu2 == 0``, a singular ``P A_c^{-1} P'``, and
    ``nu1 != nu2``, a nonsymmetric cycle, which CG cannot take."""
    if name == "none":
        return (lambda r: r), 0
    require_vcycle_name(name)
    if hier.num_levels > 1 and (hier.nu1 != hier.nu2 or hier.nu1 == 0):
        raise ParameterError(f"{name} needs nu1 + nu2 > 0 and nu1 == nu2, got nu1={hier.nu1} "
                             f"and nu2={hier.nu2}: CG needs a nonsingular, symmetric "
                             "preconditioner, and a V-cycle is one only when its "
                             "post-smoothing mirrors its nonzero pre-smoothing")
    smoother, stored = vcycle_smoother(hier, name)
    return (lambda r: v_cycle(hier, None, r, hier.num_levels, smoother=smoother)), stored


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


def coarse_solve(hier: Hierarchy, b) -> np.ndarray:
    """Solve the coarsest-level system (Cholesky, or `solvers.cg_solve`).

    A nested CG that stops short of ``COARSE_CG_TOL`` in ``20 K`` steps still
    returns its iterate, since a rough coarse correction can serve the
    V-cycle; one whose true residual is no smaller than ``||b||`` (worse than
    the zero vector) raises `NumericError`.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    coarse = hier.levels[0]
    if b.shape != (coarse.size,):
        raise ShapeError(f"expected vector of length {coarse.size}, got {b.shape}")
    if hier._coarse_factor is not None:
        return scipy.linalg.cho_solve(hier._coarse_factor, b)
    from .solvers import SolverConfig, cg_solve  # solvers imports this module

    cfg = SolverConfig(COARSE_CG_TOL, max_iterations=20 * coarse.size, preconditioner="none")
    report = cg_solve(coarse, b, cfg)
    if not report.true_relative_residual < 1.0:
        raise NumericError(
            f"nested coarse CG on level 1 (size {coarse.size}) ended at relative "
            f"residual {report.true_relative_residual:.3g}, no better than the zero "
            f"vector; it is above DENSE_CAP = {system.DENSE_CAP}, so it has no Cholesky "
            "factor"
        )
    return report.coefficients


def v_cycle(hier: Hierarchy, alpha, b, g: int | None = None, smoother=None) -> np.ndarray:
    """One V-cycle for the level-``g`` system starting from ``alpha``.

    Pre-smooth, restrict the residual ``A alpha - b``, recurse from a zero
    initial guess, subtract the prolonged coarse correction, post-smooth;
    level 1 is solved by `coarse_solve` and vectors move by `transfer`.
    ``alpha=None`` means a zero start.  ``smoother(g, alpha, b, steps, phase)``
    (default: the ``'mg-jacobi'`` `vcycle_smoother`) is told ``"pre"`` or ``"post"``;
    one whose steps are not self-adjoint runs ``"post"`` as the mirror of ``"pre"``,
    which keeps the ``nu1 == nu2`` cycle symmetric.  Any sweep counts run.
    """
    g = hier.num_levels if g is None else int(g)
    if g == 1:
        return coarse_solve(hier, b)
    level = hier.level(g)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.shape != (level.size,):
        raise ShapeError(f"expected vector of length {level.size}, got {b.shape}")

    if smoother is None:
        smoother, _ = vcycle_smoother(hier, "mg-jacobi")
    alpha = smoother(g, alpha, b, hier.nu1, "pre")
    r = level.apply(alpha) - b
    e = v_cycle(hier, None, transfer(hier, g, r, "restrict"), g - 1, smoother)
    alpha -= transfer(hier, g - 1, e, "prolong")
    return smoother(g, alpha, b, hier.nu2, "post")
