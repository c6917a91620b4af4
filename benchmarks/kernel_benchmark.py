#!/usr/bin/env python3
"""Throughput of the window kernels, the level assemblies and the penalty
Kronecker products.

Times the four window kernels (scatter, gather, squared scatter, fused
normal product), the dense Gram assembly behind the matrix-free
``LevelOperator.assemble_dense``, the construction of the penalty terms'
1D Gram factors (``penalty_terms``), one application of every penalty term
(``kron_matvec`` over those sparse factors), the window-to-CSR assembly of
a level (``LevelOperator.assemble``) and one product with the assembled CSR
level, on a synthetic smoothing workload, and prints one table row per
kernel.  Useful for spotting regressions in the kernel path in isolation.

    python3 benchmarks/kernel_benchmark.py [--n 200000] [--dim 3] [--level 5]

The dense assembly runs on level 1; every other row runs at ``--level``.
The CSR level holds about ``(2^level * (2q + 1))^dim`` numbers (150 MB at
the defaults), so lower ``--level`` on small machines.
"""
import argparse
import copy
import time

import numpy as np

from splinemg import LevelOperator, ScatteredDataset, kernels, kron_matvec, penalty_terms


def make_level(n, dim, level, degree=3, seed=0):
    """Matrix-free operator of one level on uniform points with normal
    responses."""
    gen = np.random.default_rng(seed)
    data = ScatteredDataset(gen.random((n, dim)), gen.standard_normal(n))
    return LevelOperator(data, level, 1.0, degree)


def bench(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200_000, help="data points")
    parser.add_argument("--dim", type=int, default=3, help="covariate dimension")
    parser.add_argument("--level", type=int, default=5, help="grid level")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    op = make_level(args.n, args.dim, args.level)
    f, c, terms = op.design, make_level(args.n, args.dim, 1).design, op.penalty
    assembled = copy.copy(op).assemble()
    gen = np.random.default_rng(1)
    x_cols = gen.standard_normal(f.n_cols)
    x_rows = gen.standard_normal(f.n_rows)
    print(
        f"workload: n={args.n}, dim={args.dim}, level={args.level}, "
        f"coefficients={f.n_rows}, window={f.rel.shape[0]}; "
        f"dense level 1: coefficients={c.n_rows}; penalty terms={len(terms)}; "
        f"CSR nonzeros={assembled.matrix.nnz}"
    )

    win = (f.values, f.base, f.rel, f.digits)
    runs = {
        "scatter": lambda: kernels.scatter(*win, x_cols, np.zeros(f.n_rows)),
        "gather": lambda: kernels.gather(*win, x_rows, np.empty(f.n_cols)),
        "scatter_squares": lambda: kernels.scatter_squares(*win, np.zeros(f.n_rows)),
        "gram_matvec": lambda: kernels.gram_matvec(*win, x_rows, np.zeros(f.n_rows)),
        "dense_gram": lambda: kernels.dense_gram(c.values, c.base, c.rel, c.digits, c.n_rows),
        "penalty_grams": lambda: penalty_terms(op.spaces),
        "kron_matvec": lambda: [kron_matvec(t.factors, x_rows) for t in terms],
        "assemble": lambda: copy.copy(op).assemble(),  # the copy keeps `op` matrix-free
        "csr_apply": lambda: assembled.apply(x_rows),
    }
    print(f"{'kernel':<16} {'time [ms]':>12}")
    for name, run in runs.items():
        run()  # warm-up
        print(f"{name:<16} {bench(run, args.repeats) * 1e3:>12.2f}")


if __name__ == "__main__":
    main()
