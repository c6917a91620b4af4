"""Hot inner loops: columnwise rank-one scatter/gather kernels.

The kernels below dominate runtime for large point sets.  Each rank-one
column of a columnwise-Kronecker operator touches only a small window of
positions per axis, and the kernels walk exactly those windows with
vectorized numpy (fancy indexing + ``bincount``), in chunks of about
``CHUNK_ENTRIES`` window entries: a chunk holds ``CHUNK_ENTRIES // ncomb``
points, so the scratch is the same at every dimension.  Every kernel takes
the windows as ``values``, one ``(n, c_p)`` array (or view) per axis, with
flat window bases ``base`` and the ``prod(c_p)`` flat offsets ``rel`` in C
order.  The training kernels (`scatter`, `scatter_squares`, `gram_matvec`,
`cell_gram`) form each point's weights with `_window_weights`, as per-axis
outer products of its window values.  `gather`, which evaluates a spline at
points, never forms them: it contracts each point's coefficient window with
the per-axis values one axis at a time (sum factorization).  The kernels
are sequential and bit-deterministic.  `cell_gram` assembles the data term
of a level once, from points grouped by grid cell, into sparse storage; it
is the only assembly of the data term (dense copies are made from its
result).
"""
from __future__ import annotations

import numpy as np

# Window entries (points times window positions) per vectorized step; each
# chunk temporary holds about this many values (256 KiB of float64), so the
# scratch stays below a few times 8 * CHUNK_ENTRIES bytes at every P.
CHUNK_ENTRIES = 32768


def _window_weights(values, lo, hi):
    """Combined window weights of points lo:hi, shape ``(hi - lo, prod(c_p))``.

    Per-axis outer products of the window values, in the C order of ``rel``.
    At P=1 the result is a view of ``values[0]``; callers must not write
    into it.
    """
    w = values[0][lo:hi]
    for v in values[1:]:
        w = (w[:, :, None] * v[lo:hi, None, :]).reshape(hi - lo, -1)
    return w


def _chunks(n, ncomb):
    step = max(1, CHUNK_ENTRIES // ncomb)
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def scatter(values, base, rel, x, out):
    for lo, hi in _chunks(base.shape[0], rel.shape[0]):
        w = _window_weights(values, lo, hi)
        idx = base[lo:hi, None] + rel[None, :]
        out += np.bincount(
            idx.ravel(), weights=(x[lo:hi, None] * w).ravel(), minlength=out.shape[0]
        )
    return out


def gather(values, base, rel, y, out):
    """Per-point window sums ``out[i] = sum_j y[base[i] + rel[j]] * w_ij``.

    The weights ``w_ij`` are the per-axis products of ``values`` (those of
    `_window_weights`), but each chunk's gathered
    ``(points, c_1, ..., c_P)`` windows are contracted with the values of
    the last axis first, then the next, so no ``(points, prod(c_p))`` weight
    array is formed.
    """
    for lo, hi in _chunks(base.shape[0], rel.shape[0]):
        t = y[base[lo:hi, None] + rel[None, :]]
        for v in reversed(values):
            t = np.einsum("mrc,mc->mr", t.reshape(hi - lo, -1, v.shape[1]), v[lo:hi])
        out[lo:hi] = t[:, 0]
    return out


def scatter_squares(values, base, rel, out):
    for lo, hi in _chunks(base.shape[0], rel.shape[0]):
        w = _window_weights(values, lo, hi)
        idx = base[lo:hi, None] + rel[None, :]
        out += np.bincount(idx.ravel(), weights=(w * w).ravel(), minlength=out.shape[0])
    return out


def gram_matvec(values, base, rel, x, out):
    # Fused gather-then-scatter: out += A (A' x) without an n-length buffer.
    for lo, hi in _chunks(base.shape[0], rel.shape[0]):
        w = _window_weights(values, lo, hi)
        idx = base[lo:hi, None] + rel[None, :]
        s = (w * x[idx]).sum(axis=1)
        out += np.bincount(idx.ravel(), weights=(s[:, None] * w).ravel(), minlength=out.shape[0])
    return out


def cell_gram(values, base, locate, out):
    """Add ``A A'`` into the stored entries ``out`` of a sparse matrix, one
    grid cell at a time.

    Points with equal ``base`` share their window positions (they lie in one
    grid cell), so a cell contributes ``W' W`` of its ``(points, ncomb)``
    window weights: one BLAS product instead of an outer product per point.
    ``locate(bases)`` maps cell bases ``(m,)`` to the storage positions
    ``(m, ncomb, ncomb)`` of their window pairs; the positions of one cell
    are distinct, so a plain indexed add is exact.  Points are taken in cell
    order, in chunks sized so that the located positions stay below
    ``CHUNK_ENTRIES * 64`` numbers; a cell cut by a chunk border adds two
    partial blocks.
    """
    ncomb = int(np.prod([v.shape[1] for v in values]))
    step = max(1, CHUNK_ENTRIES * 64 // ncomb**2)
    order = np.argsort(base, kind="stable")
    cells = base[order]
    block = np.empty((ncomb, ncomb))
    for lo in range(0, base.shape[0], step):
        hi = min(lo + step, base.shape[0])
        w = _window_weights([v[order[lo:hi]] for v in values], 0, hi - lo)
        starts = np.flatnonzero(np.diff(cells[lo:hi], prepend=-1))
        ends = np.append(starts[1:], hi - lo)
        pos = locate(cells[lo + starts])
        for j, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            np.matmul(w[s:e].T, w[s:e], out=block)
            out[pos[j]] += block
    return out
