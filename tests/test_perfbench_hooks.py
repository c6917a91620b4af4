"""The package names that the benchmark's tracing hooks rebind must exist.

``perfbench/tracing.py`` wraps public functions of the package by name; a
rename there would only show when the benchmark runs.  This runs a tiny
traced fit and prediction through the same hooks instead.
"""
from pathlib import Path

import splinemg as smg
from splinemg import cli

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


def test_cli_fit_records_one_setup_and_one_solve(monkeypatch, tmp_path):
    """perfbench's command workload reads ``setup_s`` and ``solve_s`` from
    the probe, so `splinemg fit` must call `build_hierarchy` and
    `mgcg_solve` once each through the names the probe rebinds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    probe = tracing.Probe()
    with probe.hooks():
        code = cli.main(["fit", "--dim", "1", "--n", "300", "--levels", "3",
                         "--output", str(tmp_path / "fit")])
    assert code == 0
    assert len(probe.setups) == 1 and len(probe.solves) == 1
    assert probe.solves[0].result.label == "mgcg"
