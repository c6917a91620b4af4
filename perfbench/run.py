#!/usr/bin/env python3
"""Fit / solve / predict benchmark of splinemg on three fixed workloads.

    python3 perfbench/run.py --workload fit-2d --seed 0 --seconds 40 --trace 0

Run it from the repository root; it imports the package from ``src/``.  The
inputs are generated from ``--seed`` before any timing.  Each round (fit,
then predict) runs in a fresh process, because a fresh process is what a
command-line fit pays for, and the first fit in a process is measurably
slower than later ones.  Rounds repeat until the next one would end after
``--seconds``; fresh processes that only build the hierarchy then bring the
set-up samples to ``MIN_SETUPS``.  The outputs are checked against
independent references, and the last line printed is one JSON object.
``--trace 1`` instead runs an untraced round, a traced round and a fit under
tracemalloc, and prints the per-layer metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads (the round processes
# inherit this), and drop SPLINEMG_* settings so that the defaults are measured.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [k for k in os.environ if k.startswith("SPLINEMG_")]:
    del os.environ[_var]

import argparse
import contextlib
import filecmp
import io
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MiB = float(2**20)
QUERIES = 1_000_000
NOISE = 0.1
LAM = 1.0
DEGREE = 3
SWEEPS = 2
TOL = 1e-8
MIN_SETUPS = 3
MIN_TRACE_COVERAGE_PCT = 97.0


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    levels: int
    n: int
    cli: bool


WORKLOADS = {w.name: w for w in (
    Workload("fit-2d", dim=2, levels=7, n=100_000, cli=False),
    Workload("fit-3d", dim=3, levels=5, n=20_000, cli=False),
    Workload("cli-1d", dim=1, levels=12, n=100_000, cli=True),
)}

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "fit_s": "s",
             "predict_pts_per_s": "points/s", "fit_peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import splinemg from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "splinemg" / "__init__.py").is_file():
        sys.exit(f"error: no splinemg sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import splinemg
    import splinemg.cli

    if Path(splinemg.__file__).resolve().parent != SRC / "splinemg":
        sys.exit(f"error: splinemg imported from {splinemg.__file__}, not from {SRC}")
    return splinemg


# ---------------------------------------------------------------------------
# inputs


def training_data(smg, workload, seed):
    return smg.generate_dataset(workload.dim, workload.n, NOISE, seed)


def query_points(workload, seed, data):
    """Uniform on the unit cube; for the command, inside the training range
    inset by a relative 1e-12, so that its rescaling cannot round a point
    past the domain end."""
    u = np.random.default_rng([seed, 1]).random((QUERIES, workload.dim))
    if not workload.cli:
        return u
    lo, hi = data.points.min(axis=0), data.points.max(axis=0)
    inset = 1e-12 * (hi - lo)
    return (lo + inset) + (hi - lo - 2 * inset) * u


def write_command_inputs(work, data, queries):
    header = " ".join([f"x{p + 1}" for p in range(data.num_axes)] + ["y"])
    np.savetxt(work / "data.txt", np.column_stack([data.points, data.responses]),
               fmt="%.17g", header=header)
    np.savetxt(work / "queries.txt", queries, fmt="%.17g")


# ---------------------------------------------------------------------------
# one round, in a fresh process


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB


def no_span(_name):
    return contextlib.nullcontext()


def library_round(smg, workload, seed, span, predict):
    data = training_data(smg, workload, seed)
    queries = query_points(workload, seed, data)
    t0 = time.perf_counter()
    with span("fit"):
        hier = smg.build_hierarchy(data, workload.levels, LAM, degrees=DEGREE,
                                   nu1=SWEEPS, nu2=SWEEPS)
        report = smg.mgcg_solve(hier, cfg=smg.SolverConfig(tolerance=TOL,
                                                           preconditioner="mg-jacobi"))
    t1 = time.perf_counter()
    out = {"fit_s": t1 - t0, "peak_rss_mb": peak_rss_mb(), "fit_ok": bool(report.converged),
           "coefficients": report.coefficients}
    if predict:
        t2 = time.perf_counter()
        with span("predict"):
            out["predictions"] = hier.finest.predict(report.coefficients, queries)
        out["predict_s"] = time.perf_counter() - t2
        out["predict_ok"] = True
    return out


def command_round(smg, workload, work, index, span, predict):
    fit_dir = work / f"fit_{index}"
    prediction_file = work / f"predictions_{index}.txt"
    fit_argv = ["fit", "--input", str(work / "data.txt"), "--output", str(fit_dir),
                "--dim", str(workload.dim), "--levels", str(workload.levels),
                "--lambda", repr(LAM), "--degree", str(DEGREE), "--tol", repr(TOL),
                "--nu1", str(SWEEPS), "--nu2", str(SWEEPS), "--precond", "mg-jacobi"]
    predict_argv = ["predict", "--model", str(fit_dir), "--input", str(work / "queries.txt"),
                    "--output", str(prediction_file)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with span("fit"):
            fit_code = smg.cli.main(fit_argv)
        t1 = time.perf_counter()
        out = {"fit_s": t1 - t0, "peak_rss_mb": peak_rss_mb(), "fit_ok": fit_code == 0,
               "fit_dir": str(fit_dir)}
        if predict:
            t2 = time.perf_counter()
            with span("predict"):
                predict_code = smg.cli.main(predict_argv)
            out["predict_s"] = time.perf_counter() - t2
            out["predict_ok"] = predict_code == 0
            out["prediction_file"] = str(prediction_file)
    return out


def round_in_process(workload_name, seed, work, index, mode="timed"):
    """One round in this (fresh) process.  ``mode`` is ``timed``, ``spans``
    (per-layer spans) or ``memory`` (fit only, under tracemalloc).  Returns
    plain data, so that the result pickles back to the parent."""
    smg = import_package()
    from tracing import Probe, Tracer, layer_metrics

    workload = WORKLOADS[workload_name]
    tracer = Tracer() if mode == "spans" else None
    probe = Probe(track_memory=mode == "memory")
    span = tracer.span if tracer else no_span
    with contextlib.ExitStack() as stack:
        if mode == "memory":
            tracemalloc.start()
            stack.callback(tracemalloc.stop)
        if tracer:
            stack.enter_context(tracer.hooks())
        stack.enter_context(probe.hooks())
        predict = mode != "memory"
        if workload.cli:
            out = command_round(smg, workload, Path(work), index, span, predict)
        else:
            out = library_round(smg, workload, seed, span, predict)
    setup, solve = probe.setups[0], probe.solves[0]
    out.update(setup_s=setup.seconds, solve_s=solve.seconds, iterations=solve.result.iterations,
               setup_call=(setup.args, setup.kwargs))
    if tracer:
        out["layers"] = layer_metrics(tracer, setup.result, out["iterations"])
        out["spans"] = tracer.as_records()
    if mode == "memory":
        out.update(setup_peak_mb=setup.peak_bytes / MiB, solve_peak_mb=solve.peak_bytes / MiB)
    return out


def setup_in_process(args, kwargs):
    """Time one `build_hierarchy` call with the given arguments."""
    smg = import_package()
    t0 = time.perf_counter()
    smg.build_hierarchy(*args, **kwargs)
    return time.perf_counter() - t0


def in_fresh_process(work, fn, *args):
    """Call ``fn(*args)`` (a function of this file) in a new interpreter that
    runs this file, wait for it to end, and return the result."""
    request, reply = work / "call.pkl", work / "reply.pkl"
    request.write_bytes(pickle.dumps((fn.__name__, args)))
    subprocess.run([sys.executable, __file__, "--call", str(request), str(reply)], check=True)
    return pickle.loads(reply.read_bytes())


def serve_call(request, reply):
    """The child side of `in_fresh_process` (``run.py --call REQUEST REPLY``)."""
    import_package()  # the arguments may hold splinemg objects
    name, args = pickle.loads(Path(request).read_bytes())
    Path(reply).write_bytes(pickle.dumps(globals()[name](*args)))


# ---------------------------------------------------------------------------
# independent checks


def check(name, value, limit, passed):
    return {"name": name, "value": value, "limit": limit, "passed": bool(passed)}


def same_outputs(first, other):
    if "fit_dir" in first:
        return (filecmp.cmp(Path(first["fit_dir"]) / "coefficients.txt",
                            Path(other["fit_dir"]) / "coefficients.txt", shallow=False)
                and ("prediction_file" not in other
                     or filecmp.cmp(first["prediction_file"], other["prediction_file"],
                                    shallow=False)))
    return (np.array_equal(first["coefficients"], other["coefficients"])
            and ("predictions" not in other
                 or np.array_equal(first["predictions"], other["predictions"])))


def verify(workload, data, queries, rounds):
    """Check the first round against the references and every later round
    against the first (the program is sequential and deterministic)."""
    import reference

    first = rounds[0]
    checks = [
        check("fits_ok", sum(r["fit_ok"] for r in rounds), len(rounds),
              all(r["fit_ok"] for r in rounds)),
        check("predictions_ok", sum(r.get("predict_ok", True) for r in rounds), len(rounds),
              all(r.get("predict_ok", True) for r in rounds)),
    ]
    if not (first["fit_ok"] and first["predict_ok"]):
        return checks
    points = data.points
    if workload.cli:
        fit_dir = Path(first["fit_dir"])
        artifacts = [fit_dir / name
                     for name in ("report.json", "coefficients.txt", "residuals.txt")]
        artifacts.append(Path(first["prediction_file"]))
        missing = [p.name for p in artifacts if not p.is_file()]
        checks.append(check("artifacts_present", len(artifacts) - len(missing),
                            len(artifacts), not missing))
        if missing:
            return checks
        alpha = np.loadtxt(fit_dir / "coefficients.txt", ndmin=1)
        predictions = np.loadtxt(first["prediction_file"], ndmin=2)[:, -1]
        # The command fits on the data mapped affinely onto the unit cube.
        lo, hi = points.min(axis=0), points.max(axis=0)
        points = (points - lo) / (hi - lo)
        scaled_queries = (queries - lo) / (hi - lo)
    else:
        alpha, predictions, scaled_queries = first["coefficients"], first["predictions"], queries
    checks.append(check("rounds_identical", len(rounds), len(rounds),
                        all(same_outputs(first, r) for r in rounds[1:])))

    knots = [reference.uniform_knots(0.0, 1.0, workload.levels, DEGREE)] * workload.dim
    residual, floor = reference.normal_equation_residual(
        points, data.responses, alpha, LAM, knots, DEGREE)
    checks.append(check("normal_equation_residual", residual, TOL + floor,
                        residual <= TOL + floor))
    expected = reference.evaluate(scaled_queries, alpha, knots, DEGREE)
    gap = float(np.abs(predictions - expected).max())
    checks.append(check("prediction_max_abs_diff", gap, 1e-12, gap <= 1e-12))
    rmse = float(np.sqrt(np.mean((predictions - reference.sigmoid(queries)) ** 2)))
    checks.append(check("rmse_vs_noiseless", rmse, NOISE / 2, rmse < NOISE / 2))
    return checks


# ---------------------------------------------------------------------------
# the two kinds of run


def ops_per_round(workload):
    """Timed operations of a round: the two commands, or build, solve and
    predict."""
    return 2 if workload.cli else 3


def count_failed(rounds):
    return sum((not r["fit_ok"]) + (not r.get("predict_ok", True)) for r in rounds)


def timed_run(workload, seed, work, seconds):
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(in_fresh_process(work, round_in_process, workload.name, seed, str(work),
                                       len(rounds)))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    args, kwargs = rounds[0]["setup_call"]
    while len(setups) < MIN_SETUPS:
        setups.append(in_fresh_process(work, setup_in_process, args, kwargs))
    samples = {
        "setup_s": setups,
        "solve_s": [r["solve_s"] for r in rounds],
        "fit_s": [r["fit_s"] for r in rounds],
        "predict_pts_per_s": [QUERIES / r["predict_s"] for r in rounds],
        "fit_peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    metrics = {name: {"value": statistics.median(values), "unit": E2E_UNITS[name]}
               for name, values in samples.items()}
    samples["iterations"] = [r["iterations"] for r in rounds]
    attempted = ops_per_round(workload) * len(rounds) + len(setups) - len(rounds)
    return rounds, metrics, samples, attempted, [], count_failed(rounds)


def traced_run(workload, seed, work, trace_file):
    """An untraced round, a round with spans, and a fit under tracemalloc for
    the memory peaks (tracemalloc slows allocation-heavy code several fold,
    so it stays out of the timed rounds)."""
    from tracing import PER_LAYER

    untraced = in_fresh_process(work, round_in_process, workload.name, seed, str(work), 0)
    traced = in_fresh_process(work, round_in_process, workload.name, seed, str(work), 1,
                              "spans")
    memory = in_fresh_process(work, round_in_process, workload.name, seed, str(work), 2,
                              "memory")
    values = traced.pop("layers")
    values.update({
        "setup_peak_mb": memory["setup_peak_mb"],
        "solve_peak_mb": memory["solve_peak_mb"],
        "trace.overhead_pct": 100.0 * (traced["fit_s"] / untraced["fit_s"] - 1.0),
    })
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    trace_file.write_text(json.dumps(
        {"columns": ["name", "start_s", "end_s", "parent"], "spans": traced.pop("spans")}))
    coverage = values["trace.coverage_pct"]
    extra = [check("trace_coverage_pct", coverage, MIN_TRACE_COVERAGE_PCT,
                   coverage >= MIN_TRACE_COVERAGE_PCT)]
    rounds = [untraced, traced, memory]
    attempted = 2 * ops_per_round(workload) + ops_per_round(workload) - 1
    return rounds, metrics, {}, attempted, extra, count_failed(rounds)


def main(argv=None):
    args = parse_args(argv)
    smg = import_package()
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    work = out_dir / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        data = training_data(smg, workload, args.seed)
        queries = query_points(workload, args.seed, data)
        if workload.cli:
            write_command_inputs(work, data, queries)
        if args.trace:
            run = traced_run(workload, args.seed, work, out_dir / f"TRACE_{workload.name}.json")
        else:
            run = timed_run(workload, args.seed, work, args.seconds)
        rounds, metrics, samples, attempted, checks, failed = run
        checks = verify(workload, data, queries, rounds) + checks
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": all(c["passed"] for c in checks), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(rounds), samples=samples, checks=checks)
    suffix = "_trace" if args.trace else ""
    (out_dir / f"BENCH_{workload.name}{suffix}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    for c in checks:
        if not c["passed"]:
            print(f"check failed: {c['name']} = {c['value']} (limit {c['limit']})",
                  file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--call"]:
        serve_call(*sys.argv[2:4])
    else:
        main()
