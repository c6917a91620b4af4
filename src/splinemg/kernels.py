"""Hot inner loops: columnwise rank-one scatter/gather kernels.

The kernels below dominate runtime for large point sets.  Each rank-one
column of a columnwise-Kronecker operator touches only a small window of
positions per axis, and the kernels walk exactly those windows, ``CHUNK``
points at a time with vectorized numpy (fancy indexing + ``bincount``).
Every product with the design windows goes through `_window_weights`.  The
kernels are sequential and bit-deterministic.  `cell_gram` assembles the
data term of a level once, from points grouped by grid cell, into sparse
storage; it is the only assembly of the data term (dense copies are made
from its result).
"""
from __future__ import annotations

import numpy as np

# Points per vectorized step; bounds the scratch memory at roughly
# 4 * CHUNK * ncomb values.
CHUNK = 2048


def _window_weights(vals, digits, lo, hi):
    """Combined per-column window weights for points lo:hi, shape (hi-lo, ncomb)."""
    w = vals[lo:hi, 0, digits[:, 0]]
    for p in range(1, digits.shape[1]):
        w = w * vals[lo:hi, p, digits[:, p]]
    return w


def scatter(vals, base, rel, digits, x, out):
    for lo in range(0, base.shape[0], CHUNK):
        hi = min(lo + CHUNK, base.shape[0])
        w = _window_weights(vals, digits, lo, hi)
        idx = base[lo:hi, None] + rel[None, :]
        out += np.bincount(
            idx.ravel(), weights=(x[lo:hi, None] * w).ravel(), minlength=out.shape[0]
        )
    return out


def gather(vals, base, rel, digits, y, out):
    for lo in range(0, base.shape[0], CHUNK):
        hi = min(lo + CHUNK, base.shape[0])
        w = _window_weights(vals, digits, lo, hi)
        idx = base[lo:hi, None] + rel[None, :]
        out[lo:hi] = (w * y[idx]).sum(axis=1)
    return out


def scatter_squares(vals, base, rel, digits, out):
    for lo in range(0, base.shape[0], CHUNK):
        hi = min(lo + CHUNK, base.shape[0])
        w = _window_weights(vals, digits, lo, hi)
        idx = base[lo:hi, None] + rel[None, :]
        out += np.bincount(idx.ravel(), weights=(w * w).ravel(), minlength=out.shape[0])
    return out


def gram_matvec(vals, base, rel, digits, x, out):
    # Fused gather-then-scatter: out += A (A' x) without an n-length buffer.
    for lo in range(0, base.shape[0], CHUNK):
        hi = min(lo + CHUNK, base.shape[0])
        w = _window_weights(vals, digits, lo, hi)
        idx = base[lo:hi, None] + rel[None, :]
        s = (w * x[idx]).sum(axis=1)
        out += np.bincount(idx.ravel(), weights=(s[:, None] * w).ravel(), minlength=out.shape[0])
    return out


def cell_gram(vals, base, digits, locate, out):
    """Add ``A A'`` into the stored entries ``out`` of a sparse matrix, one
    grid cell at a time.

    Points with equal ``base`` share their window positions (they lie in one
    grid cell), so a cell contributes ``W' W`` of its ``(points, ncomb)``
    window weights: one BLAS product instead of an outer product per point.
    ``locate(bases)`` maps cell bases ``(m,)`` to the storage positions
    ``(m, ncomb, ncomb)`` of their window pairs; the positions of one cell
    are distinct, so a plain indexed add is exact.  Points are taken in cell
    order, in chunks sized so that the located positions stay below
    ``CHUNK * 1024`` numbers; a cell cut by a chunk border adds two partial
    blocks.
    """
    ncomb = digits.shape[0]
    step = max(1, CHUNK * 1024 // ncomb**2)
    order = np.argsort(base, kind="stable")
    cells = base[order]
    block = np.empty((ncomb, ncomb))
    for lo in range(0, base.shape[0], step):
        hi = min(lo + step, base.shape[0])
        w = _window_weights(vals[order[lo:hi]], digits, 0, hi - lo)
        starts = np.flatnonzero(np.diff(cells[lo:hi], prepend=-1))
        ends = np.append(starts[1:], hi - lo)
        pos = locate(cells[lo + starts])
        for j, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            np.matmul(w[s:e].T, w[s:e], out=block)
            out[pos[j]] += block
    return out
