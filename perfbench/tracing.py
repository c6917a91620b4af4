"""Timing hooks around the public functions of splinemg.

Nothing inside the package is changed: the hooks rebind module attributes
(and three `LevelOperator` methods) for the duration of a ``with`` block and
restore them afterwards.

* `Probe` times every `build_hierarchy` and `mgcg_solve` call, which is how
  ``setup_s`` and ``solve_s`` are measured even when the CLI makes the call.
* `Tracer` records one span per call at each layer boundary (name, start,
  end, parent) in memory; `span_table` turns the spans into self times and
  `layer_metrics` into the per-layer metrics of ``PER_LAYER``.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from splinemg import bsplines, cli, kernels, multigrid, solvers, system, tensorops

MiB = float(2**20)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "splinemg" or name.startswith("splinemg."))]


@contextmanager
def _rebound(bindings):
    """Rebind attributes for the block.

    ``bindings`` is a list of ``(owner, attribute, make_replacement)``.  An
    owner that is a module stands for every splinemg module binding the same
    function object, because the package imports functions by name.
    """
    undo = []
    try:
        for owner, attr, make in bindings:
            original = getattr(owner, attr)
            replacement = make(original)
            if isinstance(owner, type):
                targets = [(owner, attr)]
            else:
                targets = [(mod, key) for mod in _package_modules()
                           for key, value in list(vars(mod).items()) if value is original]
            for mod, key in targets:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)


@dataclass
class PhaseCall:
    """One timed call of a probed function."""

    seconds: float
    result: object
    args: tuple
    kwargs: dict
    peak_bytes: int | None = None


@dataclass
class Probe:
    """Wall time (and, with ``track_memory``, the tracemalloc high-water mark
    above the level at entry) of each `build_hierarchy` and `mgcg_solve` call."""

    track_memory: bool = False
    setups: list = field(default_factory=list)
    solves: list = field(default_factory=list)

    def _timed(self, fn, record):
        def wrapper(*args, **kwargs):
            if self.track_memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            call = PhaseCall(time.perf_counter() - t0, result, args, kwargs)
            if self.track_memory:
                call.peak_bytes = tracemalloc.get_traced_memory()[1] - base
            record.append(call)
            return result
        return wrapper

    def hooks(self):
        return _rebound([
            (multigrid, "build_hierarchy", lambda fn: self._timed(fn, self.setups)),
            (solvers, "mgcg_solve", lambda fn: self._timed(fn, self.solves)),
        ])


class Tracer:
    """In-memory span recorder; spans nest by the call stack."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _wrap_apply(self, fn):
        def wrapper(op, *args, **kwargs):
            idx = self._open(f"system.L{op.level}.apply")
            try:
                return fn(op, *args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    @contextmanager
    def hooks(self):
        """Span every layer boundary of a fit and a prediction.

        Transfers are the Kronecker products that `v_cycle` calls from the
        multigrid module; they are spanned as ``multigrid.transfer`` around
        the ``tensorops.kron_matvec`` span, so penalty and transfer products
        are both counted as Kronecker products.
        """
        def span(name):
            return lambda fn: self._wrap(name, fn)

        bindings = [
            (bsplines, "eval_basis_batch", span("bsplines.eval_basis")),
            (bsplines, "gram_matrix", span("bsplines.gram")),
            (bsplines, "subdivision_matrix", span("bsplines.subdivision")),
            (tensorops, "kron_matvec", span("tensorops.kron_matvec")),
            (system, "design_factors", span("system.design")),
            (system, "penalty_terms", span("system.penalty")),
            (system.LevelOperator, "apply", self._wrap_apply),
            (system.LevelOperator, "diagonal", span("system.diagonal")),
            (system.LevelOperator, "assemble_dense", span("system.assemble_dense")),
            (multigrid, "build_hierarchy", span("multigrid.build_hierarchy")),
            (multigrid, "jacobi_spectral_bound", span("multigrid.spectral_bound")),
            (multigrid, "jacobi_smooth", span("multigrid.smooth")),
            (multigrid, "coarse_solve", span("multigrid.coarse_solve")),
            (multigrid, "v_cycle", span("multigrid.v_cycle")),
            (solvers, "mgcg_solve", span("solvers.mgcg_solve")),
            (cli, "main", span("cli.main")),
        ]
        for name in ("scatter", "gather", "scatter_squares", "gram_matvec"):
            bindings.append((kernels, name, span(f"kernels.{name}")))
        with ExitStack() as stack:
            stack.enter_context(_rebound(bindings))
            # Entered after the rebinding above, so these spans sit around
            # the traced Kronecker products and the untouched reader.
            stack.enter_context(self._module_only(
                multigrid, ("kron_matvec", "kron_matvec_transposed"), "multigrid.transfer"))
            stack.enter_context(self._module_only(
                cli, ("read_dataset", "read_table"), "cli.read"))
            yield

    @contextmanager
    def _module_only(self, module, keys, span_name):
        """Wrap names of one module only, leaving other modules' bindings."""
        saved = [(key, getattr(module, key)) for key in keys]
        try:
            for key, original in saved:
                setattr(module, key, self._wrap(span_name, original))
            yield
        finally:
            for key, original in saved:
                setattr(module, key, original)

    def as_records(self):
        """Spans as ``[name, start, end, parent]`` rows (times in seconds from
        the first span's start)."""
        t0 = self.starts[0] if self.starts else 0.0
        return [[n, s - t0, e - t0, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]


def span_table(tracer: Tracer):
    """Per-span duration, self time and the name of every ancestor.

    Self time is the duration minus the time the direct children cover;
    spans on one thread nest, so the children's durations simply add.
    """
    count = len(tracer.names)
    duration = [tracer.ends[i] - tracer.starts[i] for i in range(count)]
    child = [0.0] * count
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += duration[i]
    ancestors = []
    for i, parent in enumerate(tracer.parents):
        ancestors.append(frozenset() if parent < 0
                         else ancestors[parent] | {tracer.names[parent]})
    return [
        {"name": tracer.names[i], "duration": duration[i], "self": duration[i] - child[i],
         "ancestors": ancestors[i]}
        for i in range(count)
    ]


SELF_TIME_METRICS = {
    "bsplines.eval_basis": "bsplines.eval_basis_s",
    "bsplines.gram": "bsplines.gram_s",
    "bsplines.subdivision": "bsplines.subdivision_s",
    "kernels.gram_matvec": "kernels.gram_matvec_s",
    "kernels.scatter": "kernels.scatter_s",
    "kernels.scatter_squares": "kernels.scatter_squares_s",
    "kernels.gather": "kernels.gather_s",
    "tensorops.kron_matvec": "tensorops.kron_matvec_s",
    "system.design": "system.design_s",
    "system.diagonal": "system.diagonal_s",
    "system.penalty": "system.penalty_s",
    "system.assemble_dense": "system.assemble_dense_s",
    "multigrid.build_hierarchy": "multigrid.build_self_s",
    "multigrid.spectral_bound": "multigrid.spectral_bound_self_s",
    "multigrid.smooth": "multigrid.smooth_s",
    "multigrid.transfer": "multigrid.transfer_s",
    "multigrid.coarse_solve": "multigrid.coarse_solve_s",
    "multigrid.v_cycle": "multigrid.vcycle_s",
    "solvers.mgcg_solve": "solvers.self_s",
    "cli.read": "cli.read_s",
    "cli.main": "cli.self_s",
}
LEVEL_BUCKETS = ("Lfine", "Lfine-1", "Lfine-2", "Lrest")

PER_LAYER = {  # name -> unit, in the order printed
    "bsplines.eval_basis_s": "s", "bsplines.gram_s": "s", "bsplines.subdivision_s": "s",
    "kernels.data_passes": "count", "kernels.gram_matvec_s": "s", "kernels.scatter_s": "s",
    "kernels.scatter_squares_s": "s", "kernels.gather_s": "s", "kernels.design_mb": "MiB",
    "tensorops.kron_matvec_calls": "count", "tensorops.kron_matvec_s": "s",
    **{f"system.{b}.apply_{k}": u for b in LEVEL_BUCKETS for k, u in (("calls", "count"),
                                                                      ("s", "s"))},
    "system.apply_self_s": "s", "system.design_s": "s", "system.diagonal_s": "s",
    "system.penalty_s": "s", "system.assemble_dense_s": "s",
    "multigrid.build_self_s": "s", "multigrid.spectral_bound_s": "s",
    "multigrid.spectral_bound_self_s": "s", "multigrid.spectral_bound_applies": "count",
    "multigrid.smooth_s": "s", "multigrid.transfer_s": "s", "multigrid.coarse_solve_s": "s",
    "multigrid.vcycle_s": "s", "multigrid.hierarchy_mb": "MiB",
    "solvers.iterations": "count", "solvers.self_s": "s",
    "cli.read_s": "s", "cli.self_s": "s",
    "setup_peak_mb": "MiB", "solve_peak_mb": "MiB",
    "trace.fit_s": "s", "trace.predict_s": "s", "trace.coverage_pct": "%",
    "trace.overhead_pct": "%", "trace.spans": "count",
}


def level_bucket(level, finest):
    return LEVEL_BUCKETS[min(finest - level, len(LEVEL_BUCKETS) - 1)]


def layer_metrics(tracer, hier, iterations):
    """Per-layer metrics of one traced round (fit and predict).

    The memory peaks and the overhead are filled in by the caller; they
    come from other rounds.
    """
    rows = span_table(tracer)
    values = dict.fromkeys(PER_LAYER, 0.0)
    roots = 0.0
    layer_self = 0.0
    for row in rows:
        name, ancestors = row["name"], row["ancestors"]
        if not ancestors:
            roots += row["duration"]
            continue
        layer_self += row["self"]
        if name.startswith("system.L"):
            bucket = level_bucket(int(name.split(".")[1][1:]), hier.num_levels)
            values[f"system.{bucket}.apply_calls"] += 1
            values[f"system.{bucket}.apply_s"] += row["duration"]
            values["system.apply_self_s"] += row["self"]
            if "multigrid.spectral_bound" in ancestors:
                values["multigrid.spectral_bound_applies"] += 1
        else:
            values[SELF_TIME_METRICS[name]] += row["self"]
        if name.startswith("kernels.") and "solvers.mgcg_solve" in ancestors:
            values["kernels.data_passes"] += 1
        if name == "tensorops.kron_matvec":
            values["tensorops.kron_matvec_calls"] += 1
        if name == "multigrid.spectral_bound":
            values["multigrid.spectral_bound_s"] += row["duration"]
    fit_s = sum(r["duration"] for r in rows if r["name"] == "fit" and not r["ancestors"])
    values.update({
        "kernels.design_mb": sum(
            a.nbytes for op in hier.levels
            for a in (op.design.values, op.design.offsets, op.design.base,
                      op.design.rel, op.design.digits)) / MiB,
        "multigrid.hierarchy_mb": hier.memory_reals() * 8 / MiB,
        "solvers.iterations": iterations,
        "trace.fit_s": fit_s,
        "trace.predict_s": roots - fit_s,
        "trace.coverage_pct": 100.0 * layer_self / roots,
        "trace.spans": len(rows),
    })
    for name, unit in PER_LAYER.items():
        if unit == "count":
            values[name] = int(values[name])
    return values
