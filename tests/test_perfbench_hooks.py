"""The package names that the benchmark's tracing hooks rebind must exist.

``perfbench/tracing.py`` wraps public functions of the package by name; a
rename there would only show when the benchmark runs.  This runs a tiny
traced fit and prediction through the same hooks instead.
"""
from pathlib import Path

import splinemg as smg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_fit_reports_every_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    data = smg.generate_dataset(2, 500, 0.1, seed=0)
    tracer, probe = tracing.Tracer(), tracing.Probe()
    with tracer.hooks(), probe.hooks():
        with tracer.span("fit"):
            hier = smg.build_hierarchy(data, 3, 1.0)
            report = smg.mgcg_solve(hier, cfg=smg.SolverConfig(tolerance=1e-8))
        with tracer.span("predict"):
            hier.finest.predict(report.coefficients, data.points)
    values = tracing.layer_metrics(tracer, probe.setups[0].result, report.iterations)
    assert set(values) == set(tracing.PER_LAYER)
    assert values["solvers.iterations"] == report.iterations
    assert values["system.assemble_dense_s"] > 0.0
    assert values["kernels.gram_matvec_s"] > 0.0
