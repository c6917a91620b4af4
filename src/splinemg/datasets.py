"""Synthetic test data and delimited-text table I/O.

Tables are written by `write_blocks` in `np.savetxt`'s exact format (one
space between columns, an optional ``# `` header line) with ``%.17g`` or
``%.17e`` entries, from row blocks that it formats one at a time by a numpy
kernel instead of one ``%`` per entry and writes before it takes the next;
the blocks may come from a generator, so a caller that makes them one at a
time (``splinemg predict``, ``fit --grid``) never holds the whole table.
`write_table` writes a whole array as its ``BLOCK_ROWS``-row slices.  The
kernel rounds each entry to its 17 or 18 significant digits exactly and
hands the entries it cannot prove (non-finite values, zeros, magnitudes
outside ``[1e-250, 1e250]`` and near-ties) to Python's own ``%``, so the
bytes are those of ``%``, whatever the block sizes.  Tables are read back
by `read_table`, which also takes comma-separated files.
"""
from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .errors import ParameterError, check_integer
from .system import ScatteredDataset

BLOCK_ROWS = 8192

# the accepted ``fmt`` values and their significant digits D
FORMAT_DIGITS = {"%.17g": 17, "%.17e": 18}
# magnitudes the kernel formats; its products neither overflow nor underflow there
FAST_RANGE = (1e-250, 1e250)
# a scaled entry whose distance to the nearest integer lies within this of
# one half may be a decimal tie, which only ``%`` rounds reliably; the
# kernel's scaled entries are within 1e-13 of the exact ones
TIE_MARGIN = 1e-9
# 10**j is tabled for MIN_POW10 <= j <= MAX_POW10: the exponents k of
# FAST_RANGE, k + 1, and the scales D - 1 - k
MIN_POW10, MAX_POW10 = -251, 268


def sigmoid_target(points: np.ndarray) -> np.ndarray:
    """Radial logistic test surface on the unit cube.

    ``f(x) = 1 / (1 + exp(-16 * (|x|^2 / P - 0.5)))``; equals one half on
    the sphere ``|x|^2 = P / 2`` and approaches 0/1 toward the corners.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    t = (points**2).sum(axis=1) / points.shape[1] - 0.5
    return 1.0 / (1.0 + np.exp(-16.0 * t))


def generate_dataset(num_axes: int, n: int, noise: float = 0.1, seed: int = 0) -> ScatteredDataset:
    """Uniform points on the unit cube with noisy sigmoid responses.

    Fully reproducible for a fixed seed; ``noise=0`` returns exact surface
    values.
    """
    num_axes = check_integer(num_axes, "dimension must be >= 1 and an integer", 1)
    n = check_integer(n, "sample count must be >= 1 and an integer", 1)
    seed = check_integer(seed, "seed must be >= 0 and an integer", 0)
    if not (np.isfinite(noise) and noise >= 0):
        raise ParameterError(f"noise level must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    points = rng.random((n, num_axes))
    responses = sigmoid_target(points)
    if noise > 0:
        responses = responses + rng.normal(0.0, noise, size=n)
    return ScatteredDataset(points, responses)


def write_dataset(path, points, responses) -> None:
    """Write observations as text: one row per point, coordinate columns
    followed by the response column."""
    points = np.asarray(points, dtype=np.float64)
    data = np.column_stack([points, np.asarray(responses, dtype=np.float64)])
    cols = [f"x{p + 1}" for p in range(points.shape[1])] + ["y"]
    write_table(path, data, header=" ".join(cols))


def write_table(path, table, fmt="%.17g", header=None) -> None:
    """Write a 1D (one column) or 2D array as text, byte for byte as
    ``np.savetxt(path, table, fmt=fmt, header=header or "")`` would: the
    array's ``BLOCK_ROWS``-row slices through `write_blocks`."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim == 1:
        table = table[:, None]
    write_blocks(path, (table[start : start + BLOCK_ROWS]
                        for start in range(0, table.shape[0], BLOCK_ROWS)), fmt, header)


def write_blocks(path, blocks, fmt="%.17g", header=None) -> None:
    """Write the 2D row ``blocks`` of one table, in order, as text: the
    bytes of ``np.savetxt`` on their concatenation, whatever their sizes.

    ``fmt`` is ``"%.17g"`` or ``"%.17e"``, applied to every entry; any other
    format raises `ParameterError` before the file is opened.  Columns are
    separated by one space.  A non-empty ``header`` is written first as a
    ``# `` comment line.  Each block is formatted at once by `_format_block`
    and written before the next is taken, so a generator of blocks keeps
    one block in memory.
    """
    if fmt not in FORMAT_DIGITS:
        raise ParameterError(f"table format must be one of {sorted(FORMAT_DIGITS)}, got {fmt!r}")
    with open(path, "wb") as fh:
        if header:
            fh.write(("# " + header.replace("\n", "\n# ") + "\n").encode("utf-8"))
        for block in blocks:
            fh.write(_format_block(np.asarray(block, dtype=np.float64), fmt))


@functools.cache
def _pow10_table():
    """``10**j`` for ``MIN_POW10 <= j <= MAX_POW10`` as exact float pairs:
    ``hi`` the nearest double, ``lo`` the nearest double to ``10**j - hi``,
    and ``hi``'s Veltkamp halves."""
    exact = [Fraction(10) ** j for j in range(MIN_POW10, MAX_POW10 + 1)]
    hi = np.array([float(f) for f in exact])
    lo = np.array([float(f - Fraction(h)) for f, h in zip(exact, hi.tolist())])
    tables = (hi, lo, *_split(hi))
    for table in tables:  # shared by every caller
        table.setflags(write=False)
    return tables


def _split(a):
    """Veltkamp split: ``a == head + tail`` with 26-bit halves, so that
    products of halves are exact."""
    c = a * 134217729.0  # 2**27 + 1
    head = c - (c - a)
    return head, a - head


def _at_least_pow10(a, j):
    """``a >= 10**j`` exactly: ``hi`` is the double nearest ``10**j``, so no
    other double lies between them."""
    hi, lo = _pow10_table()[:2]
    hi_j = hi[j - MIN_POW10]
    return (a > hi_j) | ((a == hi_j) & (lo[j - MIN_POW10] <= 0))


def _significand(x, digits):
    """Decimal exponent ``k`` and significand ``N`` of each entry of ``x``:
    ``N = round(|x| * 10**(digits - 1 - k))`` in ``[10**(digits - 1),
    10**digits)``, and whether that is proven.  It is for ``|x|`` in
    ``FAST_RANGE`` whose scaled tail lies farther than ``TIE_MARGIN`` from a
    half; other entries get an arbitrary ``(k, N)``."""
    hi, lo, head, tail = _pow10_table()
    a = np.abs(x)
    in_range = (a >= FAST_RANGE[0]) & (a <= FAST_RANGE[1])
    a = np.where(in_range, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    k -= ~_at_least_pow10(a, k)  # log10 may round across a power of ten
    k += _at_least_pow10(a, k + 1)
    s = digits - 1 - k - MIN_POW10
    # a * 10**s = p + err + a * lo[s], with p + err = a * hi[s] exactly (Dekker);
    # the tail t is within 1e-13 of exact, and p >= 10**16 is an integer
    p = a * hi[s]
    a_head, a_tail = _split(a)
    err = ((a_head * head[s] - p) + a_head * tail[s] + a_tail * head[s]) + a_tail * tail[s]
    t = err + a * lo[s]
    r = np.rint(t)
    proven = in_range & (np.abs(t - r) < 0.5 - TIE_MARGIN)
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n == 10**digits  # rounded up into the next decade
    n[carry] = 10 ** (digits - 1)
    return k + carry, n, proven


def _digit_chars(n, digits):
    """ASCII digits of each ``n < 10**18``, one row per entry, from its two
    ``uint32`` halves of at most nine digits each."""
    out = np.empty((n.size, digits), np.uint8)
    upper, lower = (half.astype(np.uint32) for half in np.divmod(n, 10**9))
    for half, last in ((lower, digits - 1), (upper, digits - 10)):
        for col in range(last, max(last - 9, -1), -1):
            quotient = half // 10
            out[:, col] = half - quotient * 10 + 48
            half = quotient
    return out


def _format_block(block, fmt) -> bytes:
    """``(line * rows) % tuple(block.ravel())`` for a 2D float64 ``block``,
    where ``line`` is ``fmt`` once per column, space separated, ending in a
    newline, and ``fmt`` is ``"%.17g"`` or ``"%.17e"``.

    Each entry's text is laid out in its own row of an ``(entries, D + 8)``
    byte array, padded with NULs that are deleted at the end.  Entries
    sharing a decimal exponent share their column positions, so each such
    group is filled by slices.  ``%g`` writes ``k < -4`` or ``k >= 17`` in
    scientific notation and strips trailing zeros after the point, and the
    point when nothing follows it; exponents have at least two digits.
    Entries the kernel cannot prove are formatted by ``fmt % x`` in place.
    """
    digits = FORMAT_DIGITS[fmt]
    general = fmt == "%.17g"
    x = block.ravel()
    if x.size == 0:  # rows without columns
        return b"\n" * block.shape[0]
    k, n, proven = _significand(x, digits)
    chars = _digit_chars(n, digits)
    if general:
        # keep the digits through the last nonzero one, and every integer digit
        kept = digits - np.argmax(chars[:, ::-1] != 48, axis=1)
        kept = np.maximum(kept, np.where((k >= 0) & (k < digits), k + 1, 1))
        chars[np.arange(digits) >= kept[:, None]] = 0
    order = np.argsort(k, kind="stable")
    k, chars = k[order], chars[order]
    text = np.zeros((x.size, digits + 8), np.uint8)
    text[:, 0] = np.where(x[order] < 0, 45, 0)  # "-"
    bounds = np.flatnonzero(np.diff(k)) + 1
    for first, last in zip([0, *bounds], [*bounds, x.size]):
        e = int(k[first])
        rows, c = text[first:last], chars[first:last]
        if e < -4 or e >= digits or not general:
            exponent = np.frombuffer(b"e%+03d" % e, np.uint8)
            rows[:, 1], rows[:, 3 : digits + 2] = c[:, 0], c[:, 1:]
            rows[:, 2] = np.where(c[:, 1] != 0, 46, 0)  # "."
            rows[:, digits + 2 : digits + 2 + exponent.size] = exponent
        elif e >= 0:
            rows[:, 1 : e + 2], rows[:, e + 3 : digits + 2] = c[:, : e + 1], c[:, e + 1 :]
            if e + 1 < digits:
                rows[:, e + 2] = np.where(c[:, e + 1] != 0, 46, 0)
        else:
            prefix = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
            rows[:, 1 : prefix.size + 1] = prefix
            rows[:, prefix.size + 1 : prefix.size + 1 + digits] = c
    out = np.empty_like(text)
    out[order] = text
    out[:, -1] = 32  # " " between columns, "\n" after the last
    out[block.shape[1] - 1 :: block.shape[1], -1] = 10
    for i in np.flatnonzero(~proven):
        entry = (fmt % x[i]).encode("ascii")
        out[i, :-1] = 0
        out[i, : len(entry)] = np.frombuffer(entry, np.uint8)
    return out.tobytes().translate(None, b"\0")


def read_table(path) -> np.ndarray:
    """Read a delimited text table (comma or whitespace separated, ``#``
    comments and an optional non-numeric header line allowed)."""
    # Only the leading lines are read here: comments and blank lines, at most
    # one header, and the first data line, which decides the delimiter.
    skip = 0
    first = ""
    header_checked = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                skip += 1
                continue
            fields = stripped.replace(",", " ").split()
            if not fields:
                raise ParameterError(f"{path}: line {lineno} holds delimiters but no values")
            if not header_checked:
                header_checked = True
                try:
                    float(fields[0])
                except ValueError:
                    skip += 1
                    continue
            first = line
            break
    if not first:
        raise ParameterError(f"{path}: no data rows")
    delimiter = "," if "," in first else None
    return np.loadtxt(path, delimiter=delimiter, skiprows=skip, ndmin=2)


def read_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Split a data table into points and responses (last column)."""
    data = read_table(path)
    if data.shape[1] < 2:
        raise ParameterError(
            f"{path}: need at least one coordinate column and one response column"
        )
    return data[:, :-1], data[:, -1]
