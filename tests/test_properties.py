"""Property tests on clustered, boundary and degenerate data (P <= 2, G <= 3),
and on CLI input tables with a constant coordinate column (P <= 3).

Every coordinate is an integer number of thousandths on the unit cube:
grid points 1/8 apart (so ``x == upper`` and repeated points are common),
tight clusters around such a point with offsets of a few thousandths, or
points on one line, long or a few thousandths short.  The dataset holds the nearest doubles, so a degenerate
point set may be non-degenerate by rounding; the oracle below decides the
rank of ``[1, X]`` exactly on the integer coordinates.
"""
import contextlib
import io
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, strategies as st  # noqa: E402

from splinemg import cli  # noqa: E402
from splinemg import ParameterError, ScatteredDataset, SolverConfig, build_hierarchy, mgcg_solve  # noqa: E402

UNIT = 1000  # coordinates are integers over UNIT
GRID = st.integers(0, 8).map(lambda k: k * UNIT // 8)


@st.composite
def scattered(draw):
    """``(ticks, dataset, num_levels)``: the integer coordinates, the dataset on
    their nearest doubles and a level count, for grid, clustered or collinear
    points."""
    num_axes = draw(st.integers(1, 2))
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["grid", "clustered", "collinear"]))
    event(kind)
    if kind == "grid":
        ticks = np.array(draw(st.lists(st.tuples(*[GRID] * num_axes), min_size=n, max_size=n)))
    elif kind == "clustered":
        center = np.array(draw(st.tuples(*[GRID] * num_axes)))
        steps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * num_axes), min_size=n, max_size=n))
        ticks = np.clip(center + np.array(steps), 0, UNIT)
    else:
        # integer points of a long segment between grid points or of a short
        # one inside a cluster, exactly on its line
        start = np.array(draw(st.tuples(*[GRID] * num_axes)))
        if draw(st.booleans()):
            end = np.array(draw(st.tuples(*[GRID] * num_axes)))
        else:
            offset = draw(st.tuples(*[st.integers(-4, 4)] * num_axes))
            end = np.clip(start + np.array(offset), 0, UNIT)
        parts = max(int(np.gcd.reduce(np.abs(end - start))), 1)
        t = np.array(draw(st.lists(st.integers(0, parts), min_size=n, max_size=n)))
        ticks = start + t[:, None] * ((end - start) // parts)
    responses = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(n)
    return ticks, ScatteredDataset(ticks / UNIT, responses), draw(st.integers(1, 3))


def affine_rank(ticks):
    """Rank of ``[1, X]`` for integer coordinates (one or two axes)."""
    d = ticks[1:] - ticks[0]
    if not d.any():
        return 1
    if ticks.shape[1] == 1:
        return 2
    return 3 if (np.outer(d[:, 0], d[:, 1]) != np.outer(d[:, 1], d[:, 0])).any() else 2


@given(scattered())
def test_hierarchy_rejects_exactly_the_affine_degenerate_data(case):
    ticks, data, levels = case
    if affine_rank(ticks) < data.num_axes + 1:
        with pytest.raises(ParameterError, match="affine subspace"):
            build_hierarchy(data, levels, 1.0)
    else:
        build_hierarchy(data, levels, 1.0)


@given(scattered())
def test_identifiable_data_solve_to_finite_coefficients(case):
    ticks, data, levels = case
    assume(affine_rank(ticks) == data.num_axes + 1)
    hier = build_hierarchy(data, levels, 1.0)
    report = mgcg_solve(hier, cfg=SolverConfig(tolerance=1e-8, max_iterations=20 * hier.finest.size))
    assert report.converged
    assert np.isfinite(report.coefficients).all()
    # a query at the upper corner of the box, x == upper on every axis
    upper = data.bounds[:, 1][None, :]
    assert np.isfinite(hier.finest.predict(report.coefficients, upper)).all()


@st.composite
def constant_column_tables(draw):
    """``(rows, num_levels)``: a CLI input table of ``P = 1..3`` coordinate
    columns, at least one of them constant, and a response column."""
    num_axes = draw(st.integers(1, 3))
    n = draw(st.integers(1, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = np.column_stack([gen.random((n, num_axes)), gen.standard_normal(n)])
    constant = draw(st.sets(st.integers(0, num_axes - 1), min_size=1))
    for p in constant:
        rows[:, p] = draw(st.floats(-1e3, 1e3, allow_nan=False))
    event(f"P={num_axes}, {len(constant)} constant")
    return rows, draw(st.integers(1, 3))


@given(constant_column_tables())
def test_constant_coordinate_column_is_refused_by_fit(case):
    rows, levels = case
    with tempfile.TemporaryDirectory() as tmp:
        table, out = os.path.join(tmp, "t.txt"), os.path.join(tmp, "fit")
        np.savetxt(table, rows)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["fit", "--input", table, "--levels", str(levels), "--output", out])
        assert code == cli.EXIT_CONFIG
        assert "affine subspace" in err.getvalue()
        assert not os.path.exists(out)
