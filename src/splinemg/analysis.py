"""Desk-scale spectral diagnostics of the solvers.

Everything here assembles dense matrices by probing linear maps with unit
vectors, so every routine refuses (`CapacityError`) a finest level above
`system.DENSE_CAP`, read when it runs.  The module provides the
inverse-preconditioner probe, eigenvalue/condition reports and the
stationary-iteration error propagator of the V-cycle.  The preconditioners probed are the solver's own, built by
`multigrid.preconditioner` from the names of `multigrid.PRECONDITIONERS`, and
the propagator is read from the same probe: there is no second V-cycle here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import system
from .errors import CapacityError, NumericError
from .multigrid import VCYCLE_SMOOTHERS, Hierarchy, preconditioner, require_vcycle_name


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues and the extreme-eigenvalue ratio of one operator."""

    eigenvalues: np.ndarray
    condition_number: float
    label: str = ""


def _is_symmetric(matrix) -> bool:
    return np.abs(matrix - matrix.T).max() <= 1e-10 * max(1.0, np.abs(matrix).max())


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
        that symmetric similar form.  A similar form that is not symmetric
        to the relative tolerance of the direct symmetry test raises
        `NumericError`.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise NumericError("matrix contains non-finite entries")
    if similarity is not None:
        lt = np.linalg.cholesky(similarity).T
        inv_lt = scipy.linalg.solve_triangular(lt, np.eye(lt.shape[0]), lower=False)
        sym = lt @ matrix @ inv_lt
        if not _is_symmetric(sym):
            raise NumericError("matrix is not similar to a symmetric one through the "
                               "given similarity: its eigenvalues may be complex")
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    elif _is_symmetric(matrix):
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


def probe_inverse_preconditioner(hier: Hierarchy, name: str = "mg-jacobi") -> np.ndarray:
    """Assemble ``M^{-1}`` columnwise (one application of the preconditioner
    ``name`` per unit vector)."""
    if hier.finest.size > system.DENSE_CAP:
        raise CapacityError(f"preconditioner probe of dimension {hier.finest.size} "
                            f"exceeds DENSE_CAP = {system.DENSE_CAP}")
    precond, _ = preconditioner(hier, name)
    size = hier.finest.size
    out, e = np.empty((size, size)), np.zeros(size)
    for j in range(size):
        e[j] = 1.0
        out[:, j] = precond(e)  # copied before e changes; `none` returns e itself
        e[j] = 0.0
    return out


def iteration_matrix(hier: Hierarchy, name: str = "mg-jacobi") -> np.ndarray:
    """Error propagator ``I - M^{-1} A`` of the V-cycle preconditioner ``name``
    (one of `VCYCLE_SMOOTHERS`) as a stationary iteration.

    ``M^{-1}`` is `probe_inverse_preconditioner`, the cycle the solver runs,
    and ``A`` the finest level's `assemble_dense`: one cycle from ``alpha``
    is the consistent affine iteration ``alpha + M^{-1} (b - A alpha)``.  A
    single level's cycle is the exact coarse solve, whose propagator is zero.
    The stationary V-cycle converges iff the spectral radius is below one.
    Sweep counts that `multigrid.preconditioner` refuses are refused here.
    """
    require_vcycle_name(name)
    a = hier.finest.assemble_dense()
    if hier.num_levels == 1:
        return np.zeros_like(a)
    return np.eye(a.shape[0]) - probe_inverse_preconditioner(hier, name) @ a


def condition_summary(hier: Hierarchy) -> dict:
    """Spectra of the plain and preconditioned finest-level operators.

    Returns a dict of `SpectrumReport` keyed by ``plain`` and each of
    `VCYCLE_SMOOTHERS`.
    """
    op = hier.finest
    a = op.assemble_dense()
    reports = {"plain": spectrum(a, label="plain")}
    for name in VCYCLE_SMOOTHERS:
        minv_a = probe_inverse_preconditioner(hier, name) @ a
        reports[name] = spectrum(minv_a, similarity=a, label=name)
    return reports
