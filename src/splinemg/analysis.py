"""Desk-scale spectral diagnostics of the solvers.

Everything here assembles dense matrices by probing linear maps with unit
vectors, so all routines are guarded by the dense cap.  The module provides
the preconditioned-operator probe, eigenvalue/condition reports, the
stationary-iteration error propagator of the V-cycle, and a dense
symmetric Gauss-Seidel smoother reference that the matrix-free path
deliberately does not offer (``SolverConfig(preconditioner='mg-ssor')``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg

from .errors import CapacityError, NumericError, ParameterError
from .multigrid import Hierarchy, effective_jacobi_step, v_cycle
from .system import DENSE_CAP


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues and the extreme-eigenvalue ratio of one operator."""

    eigenvalues: np.ndarray
    condition_number: float
    label: str = ""


def spectrum(matrix: np.ndarray, similarity: np.ndarray | None = None, label: str = "") -> SpectrumReport:
    """Eigenvalues and condition number of a symmetric or symmetrizable matrix.

    Parameters
    ----------
    matrix : (K, K) array
        Symmetric, or similar to symmetric via an SPD ``similarity`` matrix
        (a preconditioned operator ``M^{-1} A`` with ``similarity=A``).
    similarity : (K, K) array, optional
        SPD matrix ``S`` such that ``L' @ matrix @ L'^{-1}`` is symmetric for
        the Cholesky factor ``S = L L'``; the eigenvalues are computed from
        that symmetric similar form.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise NumericError("matrix contains non-finite entries")
    if similarity is not None:
        lt = np.linalg.cholesky(similarity).T
        inv_lt = scipy.linalg.solve_triangular(lt, np.eye(lt.shape[0]), lower=False)
        sym = lt @ matrix @ inv_lt
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    elif np.abs(matrix - matrix.T).max() <= 1e-10 * max(1.0, np.abs(matrix).max()):
        eigs = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    else:
        ev = np.linalg.eigvals(matrix)
        if np.abs(ev.imag).max() > 1e-8 * max(1.0, np.abs(ev.real).max()):
            raise NumericError("matrix has significantly complex spectrum")
        eigs = np.sort(ev.real)
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else float("inf")
    return SpectrumReport(eigenvalues=eigs, condition_number=cond, label=label)


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def _check_cap(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise CapacityError(f"{what} of dimension {size} exceeds dense cap {cap}")


class SsorVcycleReference:
    """V-cycle preconditioner with dense symmetric Gauss-Seidel sweeps.

    The symmetric sweep (a forward then a backward Gauss-Seidel sweep) needs
    every entry of the level matrices, so all levels are assembled densely
    up front; this is the comparison baseline the matrix-free Jacobi
    smoother is measured against.  Instances are callable as a
    preconditioner ``r -> z``.
    """

    def __init__(self, hier: Hierarchy, cap: int = DENSE_CAP):
        _check_cap(hier.finest.size, cap, "dense smoother reference")
        self.hier = hier
        self.matrices = [op.assemble_dense(cap) for op in hier.levels]

    @staticmethod
    def _sweep(a: np.ndarray, alpha: np.ndarray, b) -> None:
        """One symmetric sweep in place: ``alpha += (D + L)^{-1} (b - A alpha)``,
        then the same with ``D + U``.  ``alpha`` may hold several columns."""
        alpha += scipy.linalg.solve_triangular(a, b - a @ alpha, lower=True)
        alpha += scipy.linalg.solve_triangular(a, b - a @ alpha, lower=False)

    def smoother(self, g: int, alpha, b, steps: int) -> np.ndarray:
        a = self.matrices[g - 1]
        alpha = np.zeros(a.shape[0]) if alpha is None else np.array(alpha, dtype=np.float64)
        for _ in range(steps):
            self._sweep(a, alpha, b)
        return alpha

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return v_cycle(self.hier, None, r, self.hier.num_levels, smoother=self.smoother)


def _preconditioner(hier: Hierarchy, smoother: str, cap: int):
    if smoother == "identity":
        return lambda r: r
    if smoother == "jacobi":
        return lambda r: v_cycle(hier, None, r, hier.num_levels)
    if smoother == "ssor":
        return SsorVcycleReference(hier, cap)
    raise ParameterError(f"smoother must be 'jacobi', 'ssor' or 'identity', got {smoother!r}")


def probe_preconditioned(hier: Hierarchy, smoother: str = "jacobi", cap: int = DENSE_CAP) -> np.ndarray:
    """Assemble ``M^{-1} A`` columnwise: one operator application plus one
    V-cycle from zero per unit vector."""
    op = hier.finest
    _check_cap(op.size, cap, "preconditioned-operator probe")
    precond = _preconditioner(hier, smoother, cap)
    out = np.empty((op.size, op.size))
    e = np.zeros(op.size)
    for j in range(op.size):
        e[j] = 1.0
        out[:, j] = precond(op.apply(e))
        e[j] = 0.0
    return out


def probe_inverse_preconditioner(
    hier: Hierarchy, smoother: str = "jacobi", cap: int = DENSE_CAP
) -> np.ndarray:
    """Assemble ``M^{-1}`` columnwise (one V-cycle from zero per unit vector)."""
    op = hier.finest
    _check_cap(op.size, cap, "preconditioner probe")
    precond = _preconditioner(hier, smoother, cap)
    out = np.empty((op.size, op.size))
    e = np.zeros(op.size)
    for j in range(op.size):
        e[j] = 1.0
        out[:, j] = precond(e.copy())
        e[j] = 0.0
    return out


def _smoother_propagator(a: np.ndarray, level, kind: str, omega: float) -> np.ndarray:
    """Single-sweep error propagator ``I - M_s^{-1} A`` of a smoother."""
    k = a.shape[0]
    if kind == "jacobi":
        step = effective_jacobi_step(level, omega)
        return np.eye(k) - step * (a / level.diagonal()[:, None])
    if kind == "ssor":
        # the sweep maps the error e to S e when the right-hand side is zero
        s = np.eye(k)
        SsorVcycleReference._sweep(a, s, 0.0)
        return s
    raise ParameterError(f"smoother must be 'jacobi' or 'ssor', got {kind!r}")


def iteration_matrix(
    hier: Hierarchy,
    g: int | None = None,
    smoother: str = "jacobi",
    cap: int = DENSE_CAP,
) -> np.ndarray:
    """Error propagator of the V-cycle as a stationary iteration.

    Built by the two-grid recursion: zero on the coarsest level, and on each
    finer level post-smoothing times the coarse-grid correction
    ``I - I_up (I - C_coarse) A_coarse^{-1} I_down A`` times pre-smoothing.
    The stationary V-cycle converges iff the spectral radius is below one.
    """
    g = hier.num_levels if g is None else int(g)
    _check_cap(hier.level(g).size, cap, "iteration-matrix assembly")
    dense = [hier.level(gg).assemble_dense(cap) for gg in range(1, g + 1)]
    c = np.zeros((dense[0].shape[0], dense[0].shape[0]))
    for gg in range(2, g + 1):
        a = dense[gg - 1]
        prolong = reduce(np.kron, [f.toarray() for f in hier.transfers[gg - 2]])
        coarse_correction = np.eye(a.shape[0]) - prolong @ (
            (np.eye(prolong.shape[1]) - c) @ np.linalg.solve(dense[gg - 2], prolong.T @ a)
        )
        s = _smoother_propagator(a, hier.level(gg), smoother, hier.omega)
        c = (
            np.linalg.matrix_power(s, hier.nu2)
            @ coarse_correction
            @ np.linalg.matrix_power(s, hier.nu1)
        )
    return c


def condition_summary(hier: Hierarchy, include_ssor: bool = True, cap: int = DENSE_CAP) -> dict:
    """Spectra of the plain and preconditioned finest-level operators.

    Returns a dict of `SpectrumReport` keyed by ``plain``, ``mg-jacobi`` and
    (optionally) ``mg-ssor``.
    """
    op = hier.finest
    _check_cap(op.size, cap, "condition summary")
    a = op.assemble_dense(cap)
    reports = {"plain": spectrum(a, label="plain")}
    for kind, key in (("jacobi", "mg-jacobi"), ("ssor", "mg-ssor")):
        if kind == "ssor" and not include_ssor:
            continue
        minv = probe_inverse_preconditioner(hier, kind, cap)
        minv_a = minv @ a
        reports[key] = spectrum(minv_a, similarity=a, label=key)
    return reports
