"""Desk-scale spectral diagnostics of the solvers.

Everything here assembles dense matrices by probing linear maps with unit
vectors, so all routines are guarded by the ``dense_cap`` the hierarchy was
built with.  The module provides the preconditioned-operator probes,
eigenvalue/condition reports and the stationary-iteration error propagator
of the V-cycle.  The preconditioners probed are the solver's own, built by
`multigrid.preconditioner` from the names of `multigrid.PRECONDITIONERS`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg

from .errors import CapacityError, NumericError, ParameterError
from .multigrid import Hierarchy, gauss_seidel_smoother, jacobi_smooth, preconditioner


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


def _columns(size: int, column) -> np.ndarray:
    """Dense ``size x size`` matrix whose column ``j`` is ``column(e_j)``."""
    out = np.empty((size, size))
    e = np.zeros(size)
    for j in range(size):
        e[j] = 1.0
        out[:, j] = column(e)
        e[j] = 0.0
    return out


def probe_preconditioned(hier: Hierarchy, name: str = "mg-jacobi") -> np.ndarray:
    """Assemble ``M^{-1} A`` columnwise for the preconditioner ``name`` (one
    of `PRECONDITIONERS`): one operator application plus one application of
    the preconditioner per unit vector."""
    op = hier.finest
    _check_cap(op.size, hier.dense_cap, "preconditioned-operator probe")
    precond, _ = preconditioner(hier, name)
    return _columns(op.size, lambda e: precond(op.apply(e)))


def probe_inverse_preconditioner(hier: Hierarchy, name: str = "mg-jacobi") -> np.ndarray:
    """Assemble ``M^{-1}`` columnwise (one application of the preconditioner
    ``name`` per unit vector)."""
    _check_cap(hier.finest.size, hier.dense_cap, "preconditioner probe")
    precond, _ = preconditioner(hier, name)
    return _columns(hier.finest.size, lambda e: precond(e.copy()))


def iteration_matrix(hier: Hierarchy, g: int | None = None, name: str = "mg-jacobi") -> np.ndarray:
    """Error propagator of the V-cycle preconditioner ``name`` (``'mg-jacobi'``
    or ``'mg-ssor'``) as a stationary iteration.

    Built by the two-grid recursion: zero on the coarsest level, and on each
    finer level post-smoothing times the coarse-grid correction
    ``I - I_up (I - C_coarse) A_coarse^{-1} I_down A`` times pre-smoothing.
    A smoothing propagator is the image of the identity's columns under the
    smoother's own ``nu1`` (before) or ``nu2`` (after) steps with a zero
    right-hand side: the Chebyshev polynomial in ``D^{-1} A`` of
    `jacobi_smooth` (one column at a time) or ``nu`` sweeps of
    `gauss_seidel_smoother`.  The stationary V-cycle converges iff the
    spectral radius is below one.
    """
    if name not in ("mg-jacobi", "mg-ssor"):
        raise ParameterError(f"name must be 'mg-jacobi' or 'mg-ssor', got {name!r}")
    g = hier.num_levels if g is None else int(g)
    dense = [hier.level(gg).assemble_dense(hier.dense_cap) for gg in range(1, g + 1)]
    if name == "mg-ssor":
        ssor, _ = gauss_seidel_smoother(hier)

    def smoothing(gg, steps):
        # the smoother maps the error e to S e when the right-hand side is zero
        size = dense[gg - 1].shape[0]
        if name == "mg-ssor":
            return ssor(gg, np.eye(size), 0.0, steps)
        level, zero = hier.level(gg), np.zeros(size)
        return _columns(size, lambda e: jacobi_smooth(level, e, zero, steps))

    c = np.zeros((dense[0].shape[0], dense[0].shape[0]))
    for gg in range(2, g + 1):
        a = dense[gg - 1]
        prolong = reduce(np.kron, [f.toarray() for f in hier.transfers[gg - 2]])
        coarse_correction = np.eye(a.shape[0]) - prolong @ (
            (np.eye(prolong.shape[1]) - c) @ np.linalg.solve(dense[gg - 2], prolong.T @ a)
        )
        c = smoothing(gg, hier.nu2) @ coarse_correction @ smoothing(gg, hier.nu1)
    return c


def condition_summary(hier: Hierarchy, include_ssor: bool = True) -> dict:
    """Spectra of the plain and preconditioned finest-level operators.

    Returns a dict of `SpectrumReport` keyed by ``plain``, ``mg-jacobi`` and
    (optionally) ``mg-ssor``.
    """
    op = hier.finest
    a = op.assemble_dense(hier.dense_cap)
    reports = {"plain": spectrum(a, label="plain")}
    for name in ("mg-jacobi", "mg-ssor") if include_ssor else ("mg-jacobi",):
        minv_a = probe_inverse_preconditioner(hier, name) @ a
        reports[name] = spectrum(minv_a, similarity=a, label=name)
    return reports
