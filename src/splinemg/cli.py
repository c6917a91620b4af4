"""Command-line surface: generate, fit, predict, analyze, bench.

File formats
------------
Datasets are delimited text (whitespace or comma), one observation per row,
coordinate columns followed by one response column; ``#`` comments and an
optional header line are skipped.  A fit writes into its output directory:

* ``report.json``     -- config echo, per-axis scaling maps, spline-space
  layout, per-level storage and ``mg-jacobi`` spectral bound
  (``hierarchy.levels``), solver statistics and memory estimates (key/value
  JSON),
* ``coefficients.txt``-- one coefficient per line, ``%.17e`` (byte-stable),
* ``residuals.txt``   -- training coordinates and response residuals,
* ``grid.txt``        -- optional prediction grid (``--grid N`` points/axis).

The text files keep ``np.savetxt``'s exact format (``%.17g`` unless noted)
byte for byte.  They are written by `datasets.write_blocks` (through
`datasets.write_table` for a whole array), which accepts only ``%.17g`` and
``%.17e`` and formats a block of rows at once with a numpy kernel; the
entries it cannot prove (non-finite, zero, outside ``[1e-250, 1e250]``, or
near a decimal tie) go through Python's ``%``.

``predict`` consumes a fit directory and raw-coordinate points; coordinates
are mapped through the stored per-axis affine scaling before evaluation.
Points that map outside the fitted box get ``nan`` (their count goes to
stderr); non-finite coordinates are an error, and so is a ``report.json``
whose spaces or scaling maps miss a key or hold a malformed one: a number
beyond the double range, or a level with more B-splines than
``coefficients.txt`` holds, which must be one column of finite numbers.
Every check runs before the output file is opened.  The query file is read
whole; the predictions are evaluated, formatted and written one
`datasets.BLOCK_ROWS` block at a time, and so is ``grid.txt``, whose points
each block makes from its row indices.

A subcommand accepts only the flags it reads, each defaulting to its
`RunConfig` field: ``generate`` the dataset flags, ``analyze`` all but the
solver's, ``bench`` all but ``--levels``.  ``--precond`` is
`SolverConfig.preconditioner`, which `mgcg_solve` dispatches on.
`multigrid.preconditioner` requires equal, positive ``--nu1``/``--nu2`` (exit 2).
`CapacityError` (solve vectors above physical memory, a dense matrix above
`system.DENSE_CAP`, an ``mg-ssor`` band above its square) and running out
of memory exit with ``EXIT_CAPACITY``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import analysis, datasets
from .bsplines import build_space
from .datasets import (
    generate_dataset,
    read_dataset,
    read_table,
    write_blocks,
    write_dataset,
    write_table,
)
from .errors import (
    CapacityError,
    DomainError,
    NumericError,
    ParameterError,
    ShapeError,
)
from .multigrid import PRECONDITIONERS, VCYCLE_SMOOTHERS, build_hierarchy
from .solvers import SolverConfig, mgcg_solve
from .system import ScatteredDataset, evaluate_spline, normalize_degrees

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CAPACITY = 4
EXIT_NO_CONVERGENCE = 5
EXIT_NUMERIC = 6


@dataclass
class RunConfig:
    """Validated inputs of one fitting run."""

    dim: int = 2
    levels: int = 5
    lam: float = 1.0
    degree: int = 3
    tol: float = 1e-8
    max_iter: int | None = None
    nu1: int = 2
    nu2: int = 2
    precond: str = "mg-jacobi"
    seed: int = 0
    n: int = 100_000
    noise: float = 0.1
    input: str | None = None
    output: str | None = None
    grid: int = 0

    def validate(self) -> "RunConfig":
        if self.dim < 1:
            raise ParameterError(f"--dim must be >= 1, got {self.dim}")
        if self.levels < 1:
            raise ParameterError(f"--levels must be >= 1, got {self.levels}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ParameterError(f"--lambda must be finite and positive, got {self.lam}")
        normalize_degrees(self.degree, self.dim)
        self.solver_config()  # checks --tol, --max-iter and --precond
        if not np.isfinite(self.noise):
            raise ParameterError(f"--noise must be finite, got {self.noise}")
        if self.input is None and (self.n < 1 or self.noise < 0):
            raise ParameterError("generator needs --n >= 1 and --noise >= 0")
        if self.grid < 0:
            raise ParameterError("--grid must be non-negative")
        return self

    def solver_config(self, preconditioner: str | None = None) -> SolverConfig:
        """This run's stopping control and ``--precond`` (or ``preconditioner``)."""
        return SolverConfig(tolerance=self.tol, max_iterations=self.max_iter,
                            preconditioner=preconditioner or self.precond)

    def hierarchy(self, data: ScatteredDataset, levels: int | None = None):
        """`build_hierarchy` on ``data`` with this run's settings (``levels``
        overrides the finest level)."""
        return build_hierarchy(
            data,
            self.levels if levels is None else levels,
            self.lam,
            degrees=self.degree,
            nu1=self.nu1,
            nu2=self.nu2,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinemg",
        description="Penalized tensor-product spline smoothing with a matrix-free "
        "multigrid-preconditioned CG solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data, levels, hierarchy, solver = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    data.add_argument("--dim", type=int, default=RunConfig.dim, help="covariate dimension P")
    data.add_argument("--n", type=int, default=RunConfig.n, help="generated sample count")
    data.add_argument("--noise", type=float, default=RunConfig.noise,
                      help="generated noise std deviation")
    data.add_argument("--seed", type=int, default=RunConfig.seed, help="generator seed")
    source = argparse.ArgumentParser(add_help=False, parents=[data])
    source.add_argument("--input", default=None, help="dataset file (default: generate)")
    levels.add_argument("--levels", type=int, default=RunConfig.levels, help="finest grid level G")
    hierarchy.add_argument("--lambda", dest="lam", type=float, default=RunConfig.lam,
                           help="smoothing parameter")
    hierarchy.add_argument("--degree", type=int, default=RunConfig.degree,
                           help="spline degree (2..5)")
    hierarchy.add_argument("--nu1", type=int, default=RunConfig.nu1, help="pre-smoothing sweeps")
    hierarchy.add_argument("--nu2", type=int, default=RunConfig.nu2, help="post-smoothing sweeps")
    solver.add_argument("--tol", type=float, default=RunConfig.tol,
                        help="relative residual tolerance")
    solver.add_argument("--max-iter", type=int, default=RunConfig.max_iter,
                        help="iteration cap (default 10*sqrt(K))")
    solver.add_argument("--precond", choices=PRECONDITIONERS, default=RunConfig.precond,
                        help="solver preconditioner: plain CG, or one V-cycle per step "
                        "with Chebyshev smoothing on the Jacobi-scaled operator or sparse "
                        "symmetric Gauss-Seidel smoothing")

    p = sub.add_parser("generate", parents=[data], help="write a synthetic sigmoid dataset")
    p.add_argument("--output", required=True, help="dataset file to write")

    p = sub.add_parser("fit", parents=[source, levels, hierarchy, solver],
                       help="fit a smoothing spline and write run artifacts")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--grid", type=int, default=0, help="prediction-grid points per axis (0 = off)")

    p = sub.add_parser("predict", help="evaluate a fitted spline at new points")
    p.add_argument("--model", required=True, help="fit output directory")
    p.add_argument("--input", required=True, help="points file (raw coordinates)")
    p.add_argument("--output", required=True, help="predictions file to write")

    p = sub.add_parser("analyze", parents=[source, levels, hierarchy],
                       help="desk-scale spectra and condition numbers")
    p.add_argument("--output", default=None, help="JSON report file")

    p = sub.add_parser("bench", parents=[source, hierarchy, solver],
                       help="iterations vs refinement level, CG against MGCG")
    p.add_argument("--g-min", type=int, default=4, help="coarsest benchmarked level")
    p.add_argument("--g-max", type=int, default=7, help="finest benchmarked level")
    p.add_argument("--output", default=None, help="TSV table file")
    return parser


def _load_points(cfg: RunConfig):
    """Dataset plus the per-axis affine maps onto the unit cube; ``cfg.dim``
    becomes the dataset's dimension, which every command then echoes."""
    if cfg.input is None:
        data = generate_dataset(cfg.dim, cfg.n, cfg.noise, cfg.seed)
        scale = [{"lo": 0.0, "hi": 1.0} for _ in range(cfg.dim)]
        return data, scale
    points, responses = read_dataset(cfg.input)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    scaled = (points - lo) / span
    scale = [{"lo": float(l), "hi": float(l + s)} for l, s in zip(lo, span)]
    cfg.dim = points.shape[1]
    return ScatteredDataset(scaled, responses), scale


def _apply_scale(points: np.ndarray, scale) -> np.ndarray:
    lo = np.array([s["lo"] for s in scale])
    hi = np.array([s["hi"] for s in scale])
    return (points - lo) / (hi - lo)


def _grid_blocks(op, alpha, per_axis: int):
    """Row blocks ``[points, values]`` of the ``per_axis**P`` prediction
    grid on ``[0, 1]**P`` in C order (the last axis fastest); each block's
    points are made from their row indices, so no whole grid is formed."""
    axis = np.linspace(0.0, 1.0, per_axis)
    shape = (per_axis,) * len(op.spaces)
    total = per_axis ** len(op.spaces)
    for start in range(0, total, datasets.BLOCK_ROWS):
        rows = np.arange(start, min(start + datasets.BLOCK_ROWS, total))
        points = np.stack([axis[i] for i in np.unravel_index(rows, shape)], axis=1)
        yield np.column_stack([points, op.predict(alpha, points)])


def run_pipeline(cfg: RunConfig) -> dict:
    """Build the hierarchy, solve, and write all fit artifacts.

    Returns the report dict; raises on error (the CLI maps exception types
    to exit codes).
    """
    cfg.validate()
    if cfg.output is None:
        raise ParameterError("fit requires --output")
    t0 = time.perf_counter()
    data, scale = _load_points(cfg)
    hier = cfg.hierarchy(data)
    report_solve = mgcg_solve(hier, cfg=cfg.solver_config())
    alpha = report_solve.coefficients
    op = hier.finest
    residuals = data.responses - op.fitted_values(alpha)
    # the same sums as op.objective(alpha), without a second data pass
    ls, rough = float(residuals @ residuals), op.roughness(alpha)

    os.makedirs(cfg.output, exist_ok=True)
    write_table(os.path.join(cfg.output, "coefficients.txt"), alpha, fmt="%.17e")
    write_table(
        os.path.join(cfg.output, "residuals.txt"),
        np.column_stack([data.points, residuals]),
        header=" ".join([f"x{p + 1}" for p in range(data.num_axes)] + ["residual"]),
    )
    if cfg.grid > 0:
        write_blocks(os.path.join(cfg.output, "grid.txt"),
                     _grid_blocks(op, alpha, cfg.grid),
                     header=" ".join([f"x{p + 1}" for p in range(data.num_axes)] + ["value"]))

    report = {
        "config": {k: v for k, v in asdict(cfg).items() if k != "output"},
        "scaling": scale,
        "spaces": [
            {"lower": s.lower, "upper": s.upper, "level": s.level, "degree": s.degree, "dim": s.dim}
            for s in op.spaces
        ],
        "data": {"n": data.n, "dim": data.num_axes},
        "solver": {
            "method": report_solve.label,
            "iterations": report_solve.iterations,
            "converged": bool(report_solve.converged),
            "final_relative_residual": report_solve.final_relative_residual,
            "true_relative_residual": report_solve.true_relative_residual,
            "rounding_floor": report_solve.rounding_floor,
            "residual_history": report_solve.residual_history.tolist(),
            "wall_time_seconds": report_solve.wall_time,
        },
        "objective": {"least_squares": ls, "roughness": rough, "total": ls + cfg.lam * rough},
        "hierarchy": {
            "levels": [
                {"level": lv.level, "size": lv.size, "storage": lv.storage,
                 "stored_bytes": lv.memory_bytes(),
                 "spectral_bound": lv.spectral_bound}
                for lv in hier.levels
            ],
        },
        "memory": {
            "hierarchy_bytes": hier.memory_bytes(),
            "solver_auxiliary_bytes": report_solve.peak_auxiliary_memory_estimate,
        },
        "total_wall_time_seconds": time.perf_counter() - t0,
    }
    with open(os.path.join(cfg.output, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _cmd_generate(args) -> int:
    cfg = RunConfig(dim=args.dim, n=args.n, noise=args.noise, seed=args.seed).validate()
    data = generate_dataset(cfg.dim, cfg.n, cfg.noise, cfg.seed)
    write_dataset(args.output, data.points, data.responses)
    print(f"wrote {cfg.n} observations in {cfg.dim} dimension(s) to {args.output}")
    return EXIT_OK


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)})


def _cmd_fit(args) -> int:
    report = run_pipeline(_config_from_args(args))
    solver = report["solver"]
    print(
        f"{solver['method']}: {solver['iterations']} iteration(s), "
        f"relative residual {solver['final_relative_residual']:.3e}, "
        f"{solver['wall_time_seconds']:.2f}s"
    )
    print(f"artifacts in {args.output}")
    if args.tol < solver["rounding_floor"]:
        print(
            f"warning: --tol {args.tol:g} lies below this problem's rounding floor "
            f"{solver['rounding_floor']:.3g}; the true relative residual is "
            f"{solver['true_relative_residual']:.3g}",
            file=sys.stderr,
        )
    if not solver["converged"]:
        print("solver did not converge: it must reach --tol and end with a true relative "
              f"residual below 1, which is {solver['true_relative_residual']:.3g}",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _read_model(path, size):
    """Axis spaces and per-axis scaling maps of a fit's ``report.json``,
    whose coefficient file holds ``size`` entries.

    A missing or malformed key raises `ParameterError` naming the file and
    the key: a number beyond the double range, a scaling map that is not
    finite with ``lo < hi``, or a level with more B-splines than ``size``,
    which is refused before its space is built.  A file that is not JSON
    raises ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)

    def field(entry, name, kind, what):
        key = name.rsplit(".", 1)[-1]
        if not isinstance(entry, dict) or key not in entry:
            raise ParameterError(f"{path}: key {name!r} is missing")
        value = entry[key]
        if isinstance(value, bool) or not isinstance(value, kind) or value == []:
            raise ParameterError(f"{path}: key {name!r} must be {what}, got {value!r}")
        return value

    def number(entry, name):
        try:
            return float(field(entry, name, (int, float), "a number"))
        except OverflowError:  # a JSON integer beyond the double range
            raise ParameterError(f"{path}: key {name!r} must be a finite number, got an "
                                 "integer beyond the double range") from None

    spaces = []
    for i, s in enumerate(field(report, "spaces", list, "a non-empty list")):
        name = f"spaces[{i}]"
        lower, upper = (number(s, f"{name}.{k}") for k in ("lower", "upper"))
        level, degree = (field(s, f"{name}.{k}", int, "an integer") for k in ("level", "degree"))
        if level > size.bit_length():  # 2**level alone exceeds size
            raise ParameterError(f"{path}: key '{name}.level' is {level}: its 2**{level} + "
                                 f"{degree} B-splines exceed the {size} coefficients")
        try:
            spaces.append(build_space(lower, upper, level, degree))
        except ParameterError as exc:
            raise ParameterError(f"{path}: key {name!r}: {exc}") from exc
    scaling = field(report, "scaling", list, "a non-empty list")
    if len(scaling) != len(spaces):
        raise ParameterError(f"{path}: key 'scaling' has {len(scaling)} entries for "
                             f"{len(spaces)} spaces")
    scale = []
    for i, s in enumerate(scaling):
        lo, hi = (number(s, f"scaling[{i}].{k}") for k in ("lo", "hi"))
        if not -np.inf < lo < hi < np.inf:
            raise ParameterError(f"{path}: key 'scaling[{i}]' must be finite with lo < hi, "
                                 f"got {s!r}")
        scale.append({"lo": lo, "hi": hi})
    return tuple(spaces), scale


def _cmd_predict(args) -> int:
    path = os.path.join(args.model, "coefficients.txt")
    alpha = read_table(path)
    if alpha.shape[1] != 1:
        raise ShapeError(f"{path}: expected one coefficient per line, got {alpha.shape[1]} columns")
    alpha = alpha[:, 0]
    bad = np.flatnonzero(~np.isfinite(alpha))
    if bad.size:
        raise ParameterError(f"{path}: data line {bad[0] + 1} holds {alpha[bad[0]]}, "
                             "not a finite coefficient")
    spaces, scaling = _read_model(os.path.join(args.model, "report.json"), alpha.size)
    table = read_table(args.input)
    dim = len(spaces)
    if table.shape[1] not in (dim, dim + 1):
        raise ShapeError(
            f"{args.input}: expected {dim} coordinate columns (optionally one "
            f"response column), got {table.shape[1]}"
        )
    points = _apply_scale(table[:, :dim], scaling)
    size = int(np.prod([s.dim for s in spaces]))
    if alpha.shape != (size,):
        raise ShapeError(
            f"{args.model}: coefficient file has {alpha.shape[0]} entries, expected {size}"
        )
    if not np.isfinite(points).all():
        rows = np.flatnonzero(~np.isfinite(points).all(axis=1))
        raise DomainError(
            f"{args.input}: {rows.size} point(s) with non-finite coordinates, "
            f"first offending rows {rows[:10].tolist()}"
        )
    lower = np.array([s.lower for s in spaces])
    upper = np.array([s.upper for s in spaces])
    inside = ((points >= lower) & (points <= upper)).all(axis=1)
    outside = points.shape[0] - int(inside.sum())
    if outside:
        print(f"{outside} point(s) outside the fitted box; their predictions are nan",
              file=sys.stderr)

    def blocks():
        for start in range(0, points.shape[0], datasets.BLOCK_ROWS):
            rows = slice(start, start + datasets.BLOCK_ROWS)
            keep = inside[rows]
            values = np.full(keep.size, np.nan)
            values[keep] = evaluate_spline(spaces, alpha,
                                           points[rows] if keep.all() else points[rows][keep])
            yield np.column_stack([table[rows, :dim], values])

    write_blocks(args.output, blocks(),
                 header=" ".join([f"x{p + 1}" for p in range(dim)] + ["value"]))
    print(f"wrote {points.shape[0]} prediction(s) to {args.output}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = _config_from_args(args).validate()
    data, _ = _load_points(cfg)
    hier = cfg.hierarchy(data)
    reports = analysis.condition_summary(hier)
    eigs = reports["mg-jacobi"].eigenvalues  # the propagator I - M^-1 A has 1 - eigs
    rho = float(max(abs(1.0 - eigs[0]), abs(1.0 - eigs[-1])))
    print(f"{'operator':<12} {'condition':>12} {'eig min':>12} {'eig max':>12}")
    for key, rep in reports.items():
        print(
            f"{key:<12} {rep.condition_number:>12.4g} "
            f"{rep.eigenvalues[0]:>12.4g} {rep.eigenvalues[-1]:>12.4g}"
        )
    print(f"v-cycle spectral radius: {rho:.4f}")
    if args.output:
        payload = {
            "config": {k: getattr(cfg, k) for k in vars(args)
                       if k not in ("command", "input", "output")},
            "spectral_radius": rho,
            "operators": {
                key: {
                    "condition_number": rep.condition_number,
                    "eig_min": float(rep.eigenvalues[0]),
                    "eig_max": float(rep.eigenvalues[-1]),
                    "eigenvalues": rep.eigenvalues.tolist(),
                }
                for key, rep in reports.items()
            },
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.output}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _config_from_args(args).validate()
    if args.g_min < 2 or args.g_max < args.g_min:
        raise ParameterError("need 2 <= --g-min <= --g-max")
    if cfg.precond == "none":
        raise ParameterError("bench sets plain CG beside --precond; choose "
                             + " or ".join(VCYCLE_SMOOTHERS))
    data, _ = _load_points(cfg)
    rows, unconverged = [], []
    header = ("G", "K", "cg_iters", "cg_seconds", "mgcg_iters", "mgcg_seconds")
    print("\t".join(header))
    for g in range(args.g_min, args.g_max + 1):
        hier = cfg.hierarchy(data, levels=g)
        mg = mgcg_solve(hier, cfg=cfg.solver_config())  # first: it may refuse the sweeps
        plain = mgcg_solve(hier, cfg=cfg.solver_config("none"))
        unconverged += [(g, rep.label) for rep in (plain, mg) if not rep.converged]
        row = (g, hier.finest.size, plain.iterations, round(plain.wall_time, 3),
               mg.iterations, round(mg.wall_time, 3))
        rows.append(row)
        print("\t".join(str(v) for v in row))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(str(v) for v in row) + "\n")
        print(f"table written to {args.output}")
    for g, label in unconverged:
        print(f"G={g}: {label} did not reach the tolerance", file=sys.stderr)
    return EXIT_NO_CONVERGENCE if unconverged else EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ParameterError, ShapeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:
        print(f"capacity error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_CAPACITY
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
