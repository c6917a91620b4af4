"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Heavy solves are memoized in module scope so overlapping criteria reuse
them.  Total runtime is dominated by the 100k-point studies (criteria 4, 5
and 8) and stays within each criterion's stated budget.
"""
import time
import tracemalloc

import numpy as np
import pytest

import splinemg as smg
from splinemg import analysis, cli
from conftest import make_dataset
from oracles import dense_khatri_rao, dense_kron, dense_rhs, dense_system_matrix


def verdict(num, name, ok, detail):
    line = f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------

SOLVER_CFG = smg.SolverConfig(tolerance=1e-8, max_iterations=20_000)


@pytest.fixture(scope="module")
def study_cache():
    """Memoized datasets, hierarchies and solve reports keyed by (P, G)."""
    cache = {"data": {}, "hier": {}, "solves": {}}

    def data(num_axes, n=100_000):
        key = (num_axes, n)
        if key not in cache["data"]:
            cache["data"][key] = smg.generate_dataset(num_axes, n, 0.1, seed=0)
        return cache["data"][key]

    def hier(num_axes, levels, n=100_000):
        key = (num_axes, levels, n)
        if key not in cache["hier"]:
            cache["hier"][key] = smg.build_hierarchy(data(num_axes, n), levels, 1.0)
        return cache["hier"][key]

    def solves(num_axes, levels, n=100_000):
        key = (num_axes, levels, n)
        if key not in cache["solves"]:
            h = hier(num_axes, levels, n)
            mg = smg.mgcg_solve(h, cfg=SOLVER_CFG)
            plain = smg.cg_solve(h.finest, h.finest.rhs(), SOLVER_CFG)
            cache["solves"][key] = (mg, plain)
        return cache["solves"][key]

    return {"data": data, "hier": hier, "solves": solves}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence(rng):
    t0 = time.time()
    worst = 0.0
    for num_axes in (1, 2, 3):
        data = make_dataset(num_axes, 200, seed=num_axes)
        hier = smg.build_hierarchy(data, 3, 0.8)
        for level in (1, 2, 3):
            op = hier.level(level)
            dense = dense_system_matrix(op)
            scale = np.linalg.norm(dense, ord=np.inf)
            for _ in range(50):
                x = rng.standard_normal(op.size)
                ref = dense @ x
                err = np.linalg.norm(op.apply(x) - ref) / max(np.linalg.norm(ref), 1e-30)
                worst = max(worst, err)
            rhs_ref = dense_rhs(op)
            worst = max(
                worst,
                np.linalg.norm(op.rhs() - rhs_ref) / np.linalg.norm(rhs_ref),
                np.abs(op.diagonal() - np.diag(dense)).max() / scale,
            )
        for g in (1, 2):
            prolong = dense_kron(hier.transfers[g - 1])
            for _ in range(50):
                v = rng.standard_normal(prolong.shape[1])
                w = rng.standard_normal(prolong.shape[0])
                up_ref, down_ref = prolong @ v, prolong.T @ w
                worst = max(
                    worst,
                    np.linalg.norm(smg.transfer(hier, g, v, "prolong") - up_ref)
                    / max(np.linalg.norm(up_ref), 1e-30),
                    np.linalg.norm(smg.transfer(hier, g + 1, w, "restrict") - down_ref)
                    / max(np.linalg.norm(down_ref), 1e-30),
                )
    elapsed = time.time() - t0
    verdict(
        1,
        "oracle equivalence",
        worst <= 1e-10 and elapsed <= 60.0,
        f"worst relative error {worst:.3e} (<= 1e-10), {elapsed:.1f}s (<= 60s)",
    )


def test_criterion_02_tensor_kernels():
    gen = np.random.default_rng(2024)
    worst_op = 0.0
    worst_adj = 0.0
    for case in range(200):
        num_axes = int(gen.integers(1, 5))
        if case % 2 == 0:  # Kronecker instance
            factors = [
                gen.standard_normal((gen.integers(1, 5), gen.integers(1, 5)))
                for _ in range(num_axes)
            ]
            dense = dense_kron(factors)
            x = gen.standard_normal(dense.shape[1])
            y = gen.standard_normal(dense.shape[0])
            scale = max(1.0, np.abs(dense).max())
            worst_op = max(
                worst_op,
                np.abs(smg.kron_matvec(factors, x) - dense @ x).max() / scale,
                np.abs(smg.kron_matvec_transposed(factors, y) - dense.T @ y).max() / scale,
            )
            adj = smg.kron_matvec(factors, x) @ y - x @ smg.kron_matvec_transposed(factors, y)
            worst_adj = max(worst_adj, abs(adj) / max(1.0, abs(x @ dense.T @ y)))
        else:  # columnwise-Kronecker instance
            n = int(gen.integers(1, 6))
            factors = [
                gen.standard_normal((gen.integers(1, 5), n)) for _ in range(num_axes)
            ]
            f = smg.KhatriRaoFactors.from_dense(factors)
            dense = dense_khatri_rao(factors)
            x = gen.standard_normal(n)
            y = gen.standard_normal(dense.shape[0])
            scale = max(1.0, np.abs(dense).max() ** 2)
            worst_op = max(
                worst_op,
                np.abs(smg.khatri_rao_matvec(f, x) - dense @ x).max() / scale,
                np.abs(smg.khatri_rao_tmatvec(f, y) - dense.T @ y).max() / scale,
                np.abs(smg.khatri_rao_gram_diag(f) - np.diag(dense @ dense.T)).max() / scale,
            )
            adj = smg.khatri_rao_matvec(f, x) @ y - x @ smg.khatri_rao_tmatvec(f, y)
            worst_adj = max(worst_adj, abs(adj) / max(1.0, abs(x @ dense.T @ y)))
    verdict(
        2,
        "tensor kernels",
        worst_op <= 1e-12 and worst_adj <= 1e-12,
        f"200 instances, worst operator error {worst_op:.3e}, "
        f"worst adjoint defect {worst_adj:.3e} (<= 1e-12)",
    )


def test_criterion_03_galerkin_property():
    # both sides are rediscretized from the data, never taken from the
    # hierarchy's own P'AP levels
    worst = 0.0
    checked = 0
    for num_axes, max_levels in ((1, 12), (2, 6)):
        data = make_dataset(num_axes, 300, seed=num_axes + 20)
        hier = smg.build_hierarchy(data, max_levels, 0.9)
        for g in range(1, max_levels):
            if hier.levels[g].size > 5000:
                break
            a_fine = smg.build_level(data, g + 1, 0.9).assemble_dense()
            a_coarse = smg.build_level(data, g, 0.9).assemble_dense()
            prolong = dense_kron(hier.transfers[g - 1])
            gap = np.abs(a_coarse - prolong.T @ a_fine @ prolong).max()
            worst = max(worst, gap / max(1.0, np.abs(a_coarse).max()))
            checked += 1
    verdict(
        3,
        "galerkin property",
        worst <= 1e-10 and checked >= 15,
        f"{checked} adjacent pairs, worst scaled max-norm gap {worst:.3e} (<= 1e-10)",
    )


def test_criterion_04_grid_independent_mgcg(study_cache):
    t0 = time.time()
    mg_counts, cg_counts = {}, {}
    for levels in (4, 5, 6, 7):
        mg, plain = study_cache["solves"](2, levels)
        assert mg.converged and plain.converged
        mg_counts[levels], cg_counts[levels] = mg.iterations, plain.iterations
    elapsed = time.time() - t0
    spread = max(mg_counts.values()) - min(mg_counts.values())
    growth = cg_counts[7] / cg_counts[4]
    ok = (
        max(mg_counts.values()) <= 15
        and spread <= 3
        and growth >= 3.0
        and elapsed <= 900.0
    )
    verdict(
        4,
        "grid-independent mgcg",
        ok,
        f"mgcg iterations {mg_counts} (<= 15, spread {spread} <= 3), "
        f"plain cg {cg_counts} (G=7/G=4 growth {growth:.1f}x >= 3), {elapsed:.0f}s",
    )


def test_criterion_05_dimension_sweep(study_cache):
    counts = {}
    for num_axes in (1, 2, 3):
        mg, plain = study_cache["solves"](num_axes, 5)
        assert mg.converged and plain.converged
        counts[num_axes] = (mg.iterations, plain.iterations)
    ok = all(mg < cg for mg, cg in counts.values()) and all(
        counts[p][1] / counts[p][0] >= 5.0 for p in (2, 3)
    )
    detail = ", ".join(
        f"P={p}: mgcg {mg} vs cg {cg} ({cg / mg:.1f}x)" for p, (mg, cg) in counts.items()
    )
    verdict(5, "dimension sweep", ok, detail)


def test_criterion_06_spectral_clustering(study_cache):
    t0 = time.time()
    hier = study_cache["hier"](2, 4, n=20_000)
    reports = analysis.condition_summary(hier)
    plain = reports["plain"].condition_number
    jac = reports["mg-jacobi"].condition_number
    ssor = reports["mg-ssor"].condition_number
    in_range = all(
        reports[k].eigenvalues.min() > 0.0 and reports[k].eigenvalues.max() < 2.0
        for k in ("mg-jacobi", "mg-ssor")
    )
    elapsed = time.time() - t0
    ok = plain / jac >= 20.0 and ssor <= jac and in_range and elapsed <= 300.0
    verdict(
        6,
        "spectral clustering",
        ok,
        f"cond plain {plain:.1f} / jacobi {jac:.2f} = {plain / jac:.0f}x (>= 20), "
        f"ssor {ssor:.2f} <= jacobi, preconditioned spectra in (0,2): {in_range}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_07_vcycle_contraction():
    radii = {}
    for num_axes in (1, 2):
        data = smg.generate_dataset(num_axes, 2000, 0.1, seed=0)
        for lam in (0.1, 1.0, 10.0):
            hier = smg.build_hierarchy(data, 3, lam)
            radii[(num_axes, lam)] = analysis.spectral_radius(analysis.iteration_matrix(hier))
    worst = max(radii.values())
    detail = ", ".join(f"P={p} lam={l}: {r:.3f}" for (p, l), r in radii.items())
    verdict(7, "v-cycle contraction", worst < 1.0, f"spectral radii {detail} (all < 1)")


def test_criterion_08_fit_quality(study_cache):
    mg, _ = study_cache["solves"](2, 5)
    op = study_cache["hier"](2, 5).finest
    axis = np.linspace(0.0, 1.0, 101)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    rmse = float(np.sqrt(np.mean((op.predict(mg.coefficients, pts) - smg.sigmoid_target(pts)) ** 2)))
    verdict(8, "fit quality", rmse <= 0.05, f"grid rmse vs clean surface {rmse:.4f} (<= 0.05)")


def test_criterion_09_memory_discipline():
    data = smg.generate_dataset(3, 20_000, 0.1, seed=0)
    hier = smg.build_hierarchy(data, 5, 1.0)
    size = hier.finest.size
    assert size == 42_875
    smg.mgcg_solve(hier, cfg=smg.SolverConfig(tolerance=1e-2))  # warm the kernels
    tracemalloc.start()
    report = smg.mgcg_solve(hier, cfg=SOLVER_CFG)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert report.converged
    budget = 10 * size * 8
    analytic_ok = report.peak_auxiliary_memory_estimate < budget
    dense_bytes = size * size * 8
    audit_ok = peak < dense_bytes / 100 and peak < 60 * size * 8
    verdict(
        9,
        "memory discipline",
        analytic_ok and audit_ok,
        f"analytic solver buffers {report.peak_auxiliary_memory_estimate / 8:.0f} reals "
        f"(< {10 * size} = 10K), traced peak {peak / 1e6:.1f} MB "
        f"(K x K would be {dense_bytes / 1e9:.1f} GB)",
    )


def test_criterion_10_determinism(tmp_path):
    args = ["fit", "--dim", "2", "--n", "2000", "--noise", "0.1", "--seed", "11",
            "--levels", "3", "--lambda", "1.0"]
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli.main([*args, "--output", str(out)]) == cli.EXIT_OK
        blobs.append((out / "coefficients.txt").read_bytes())
    verdict(
        10,
        "determinism",
        blobs[0] == blobs[1],
        f"two identical fits produced byte-identical coefficient files "
        f"({len(blobs[0])} bytes)",
    )
