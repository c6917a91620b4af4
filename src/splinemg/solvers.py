"""Conjugate gradients, plain and with a multigrid V-cycle preconditioner.

Both solvers share the package's one CG loop; plain CG (`cg_solve`, also
the nested coarse solver of `multigrid.coarse_solve`) is the preconditioner-free
case.  `mgcg_solve` takes the preconditioner that ``SolverConfig.preconditioner``
names from `multigrid.preconditioner`.  The loop keeps only scalar history of
the previous preconditioned residual product, so a solve holds four (plain) or
five (preconditioned) level-sized vectors besides the right-hand side.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

from .errors import NumericError, ParameterError, check_finite, check_integer
from .multigrid import PRECONDITIONERS, Hierarchy, preconditioner
from .system import LevelOperator

MAX_ITERATIONS_CAP = 50_000


@dataclass(frozen=True)
class SolverConfig:
    """Stopping control and preconditioner selection.

    ``max_iterations=None`` resolves to ``10 * sqrt(K)`` capped at 50000.
    ``preconditioner`` is one of ``PRECONDITIONERS`` and is read by
    `mgcg_solve`: ``'none'`` (plain CG), ``'mg-jacobi'`` (V-cycle with
    Chebyshev sweeps on the Jacobi-scaled operator ``D^{-1} A``) or
    ``'mg-ssor'`` (V-cycle with symmetric Gauss-Seidel sweeps, two sparse
    triangular products and solves each).
    """

    tolerance: float = 1e-8
    max_iterations: int | None = None
    preconditioner: str = "mg-jacobi"

    def __post_init__(self):
        if not 0.0 < self.tolerance < 1.0:
            raise ParameterError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if self.max_iterations is not None:
            check_integer(self.max_iterations, "max_iterations must be an integer >= 1", 1)
        if self.preconditioner not in PRECONDITIONERS:
            raise ParameterError(
                f"unknown preconditioner {self.preconditioner!r}; expected one of {PRECONDITIONERS}"
            )

    def resolved_max_iterations(self, size: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return min(MAX_ITERATIONS_CAP, max(1, ceil(10 * sqrt(size))))


@dataclass
class SolveReport:
    """Outcome of one solve: iterate count, recorded two-norm residuals,
    timing, an analytic estimate of auxiliary solver memory, and the
    coefficient vector.

    ``residual_history`` holds CG's recursively updated residuals, which
    decide convergence; ``true_relative_residual`` is ``||b - A x|| / ||b||``
    recomputed once from the returned coefficients.  The two drift apart
    when the tolerance lies below ``rounding_floor``, the estimate of
    `rounding_floor` for the relative residual that rounding alone leaves
    in ``A x``.  ``converged`` is false whenever the true relative residual
    is 1 or more: such an iterate is no better than the zero vector.
    """

    iterations: int
    residual_history: np.ndarray
    wall_time: float
    peak_auxiliary_memory_estimate: int
    converged: bool
    coefficients: np.ndarray
    true_relative_residual: float
    rounding_floor: float
    label: str = field(default="cg")

    @property
    def final_relative_residual(self) -> float:
        if self.residual_history[0] == 0.0:
            return 0.0
        return float(self.residual_history[-1] / self.residual_history[0])


def rounding_floor(op, x, b) -> float:
    """Estimate ``eps * || |A| |x| || / ||b||`` of the relative residual that
    rounding alone leaves in ``b - A x``, with ``eps = 2**-52`` and the
    constant 1.

    ``|A| |x|`` is one `abs_apply` of ``op``.  The worst-case forward bound
    of a product with ``m`` terms per row carries ``gamma_m = m u / (1 - m
    u)``, ``u = eps / 2``, instead of ``eps``; the estimate leaves that
    factor out, since rounding errors of a sum rarely add up in one
    direction.
    """
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return 0.0
    size = float(np.linalg.norm(op.abs_apply(np.abs(x))))
    return np.finfo(np.float64).eps * size / norm_b


def _pcg(op, b, precond, tol, maxiter, aux_bytes, label):
    """Preconditioned CG on ``op.apply`` with step length ``r'z / p'Ap`` and
    direction update ``p = z + (r'z / r~'z~) p``; ``precond=None`` runs
    plain CG (then ``z`` aliases ``r`` and no copy is made).  The rounding
    floor takes one ``op.abs_apply`` at the end.  A solve converges when the
    recursive residual reaches ``tol`` and the true one is below ``||b||``;
    ``b = 0`` takes no product and reports 0 iterations, 0 residuals and
    floor, and four vectors."""
    t0 = time.perf_counter()
    apply_fn = op.apply
    b = np.ascontiguousarray(b, dtype=np.float64)
    norm_b = float(np.linalg.norm(b))
    history = [norm_b]
    x = np.zeros_like(b)
    converged = norm_b == 0.0
    k = 0
    if not converged:
        r = b.copy()
        z = precond(r) if precond is not None else r
        p = z.copy()
        rz = float(r @ z)
    while not converged and k < maxiter:
        v = apply_fn(p)
        pv = float(p @ v)
        if not np.isfinite(pv) or pv <= 0.0:
            raise NumericError(
                f"curvature p'Ap = {pv} at iteration {k}; operator not SPD or diverged",
                iteration=k,
            )
        w = rz / pv
        x += w * p
        r -= w * v
        k += 1
        res = float(np.linalg.norm(r))
        if not np.isfinite(res):
            raise NumericError(f"non-finite residual at iteration {k}", iteration=k)
        history.append(res)
        if res <= tol * norm_b:
            converged = True
            break
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    n_vec = 5 if precond is not None and norm_b else 4
    true_residual = float(np.linalg.norm(b - apply_fn(x))) / norm_b if norm_b else 0.0
    floor = rounding_floor(op, x, b)
    return SolveReport(
        iterations=k,
        residual_history=np.array(history),
        wall_time=time.perf_counter() - t0,
        peak_auxiliary_memory_estimate=aux_bytes + n_vec * b.nbytes,
        converged=converged and true_residual < 1.0,
        coefficients=x,
        true_relative_residual=true_residual,
        rounding_floor=floor,
        label=label,
    )


def cg_solve(op: LevelOperator, b, cfg: SolverConfig | None = None) -> SolveReport:
    """Plain CG on one level operator (anything with ``size``, ``apply`` and
    ``abs_apply``).

    Reads only the stopping fields of ``cfg``; ``cfg.preconditioner`` is
    ignored here (it is `mgcg_solve`'s switch).  A non-finite ``b`` raises
    `ParameterError`, naming its first such entry, before any product.
    """
    cfg = cfg or SolverConfig(preconditioner="none")
    b = check_finite(np.ascontiguousarray(b, dtype=np.float64), "right-hand side", "b")
    window = op.design.rel.shape[0] if hasattr(op, "design") else 0
    return _pcg(op, b, None, cfg.tolerance, cfg.resolved_max_iterations(op.size),
                aux_bytes=8 * window, label="cg")


def mgcg_solve(hier: Hierarchy, y=None, cfg: SolverConfig | None = None) -> SolveReport:
    """CG on the finest level, preconditioned as ``cfg.preconditioner`` says.

    The right-hand side is the finest-level ``B'y`` (training responses by
    default).  ``'mg-jacobi'`` and ``'mg-ssor'`` apply one V-cycle from a
    zero initial guess per iteration (`multigrid.preconditioner`, which also
    decides which sweep counts a V-cycle preconditioner may use; the memory
    estimate counts what ``'mg-ssor'`` stores per level); ``'none'`` returns
    `cg_solve`'s report (label ``cg``) and reads no sweep count.
    """
    cfg = cfg or SolverConfig()
    op = hier.finest
    b = op.rhs(y)
    if cfg.preconditioner == "none":
        return cg_solve(op, b, cfg)
    precond, stored = preconditioner(hier, cfg.preconditioner)
    return _pcg(op, b, precond, cfg.tolerance, cfg.resolved_max_iterations(op.size),
                aux_bytes=8 * (hier.workspace_reals() + b.size) + stored, label="mgcg")
