"""The benchmark's span tracer still finds, records and restores its hooks.

``perfbench/tracing.py`` wraps library functions by module attribute name, so
a renamed attribute, or a solver that stops calling a traced name, would
otherwise only show when a traced benchmark run fails.  The tracer module is
imported as it is, read-only.
"""

import importlib
import os

from lassocrescent import (
    CoefficientSpec,
    DesignSpec,
    DiscretePrior,
    ExperimentConfig,
    ModelShape,
    run_rank_experiment,
    run_tradeoff_experiment,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SUBMODULES = ("gauss", "state_evolution", "crescent", "lasso_path", "harness", "cli")


def _load(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    # import_module, because the package attribute lassocrescent.crescent is
    # the function of that name, not the submodule
    modules = {m: importlib.import_module(f"lassocrescent.{m}") for m in SUBMODULES}
    return tracing, modules


def test_tracer_records_gauss_kernels_and_restores(monkeypatch):
    tracing, modules = _load(monkeypatch)
    se, cr = modules["state_evolution"], modules["crescent"]
    shape = ModelShape(delta=1.0, epsilon=0.2)

    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        for mod, attr, original in patched:
            assert getattr(mod, attr) is not original, f"{mod.__name__}.{attr}"

        def kernel_calls():
            return {f: tracer.stat(f"gauss.{f}", "calls") for f in tracing.GAUSS_KERNELS}

        se.tradeoff_curve(DiscretePrior.homogeneous(0.2, 1.0), shape, 5)
        after_curve = kernel_calls()
        # root_calls_per_curve and tau_solves_per_curve count these spans
        curve_spans = {
            f: tracer.stat(f"state_evolution.{f}", "calls")
            for f in ("brentq", "solve_tau_given_alpha")
        }
        points = cr.crescent(shape, 5)
        after_crescent = kernel_calls()
    finally:
        tracer.uninstall()

    # each solver module calls every traced kernel through its traced name
    for f in tracing.GAUSS_KERNELS:
        assert after_curve[f] >= 1, f
        assert after_crescent[f] > after_curve[f], f
    for name, calls in curve_spans.items():
        assert calls >= 1, name
    # one span of each edge per point, so crescent.t_*_ms time the edges
    assert len(points) == 5
    for edge in ("t_delta", "t_nabla"):
        assert tracer.stat(f"crescent.{edge}", "calls") == len(points), edge
    for mod, attr, original in patched:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"


def test_tracer_records_simulation_spans(monkeypatch):
    tracing, modules = _load(monkeypatch)
    design = DesignSpec(kind="iid_gaussian", n=30, p=30)
    common = dict(design=design, sigma=0.1, replicates=2, seed=1)
    tradeoff = ExperimentConfig(
        coefficients=CoefficientSpec(kind="equal", p=30, magnitude=5.0, k=3),
        mode="tradeoff",
        tpp_grid=(0.5,),
        **common,
    )
    rank = ExperimentConfig(
        coefficients=CoefficientSpec(kind="linear", p=30, k=3),
        mode="rank",
        sweep_param="k",
        sweep_values=(2, 3),
        **common,
    )

    tracer = tracing.Tracer(modules, top_tpp=tradeoff.tpp_grid[-1])
    tracer.install()
    try:
        t_summary = run_tradeoff_experiment(tradeoff, jobs=1)
        r_summary = run_rank_experiment(rank, jobs=1)
    finally:
        tracer.uninstall()

    # 2 tradeoff replicates (one path each: the active-set cap is n - 1 here)
    # and 2 x 2 rank replicates
    calls = {
        "lasso_path.lasso_path": 6,
        "lasso_path.tpp_fdp_along_path": 2,
        "harness.fdp_on_grid": 2,
        "lasso_path.first_false_rank": 4,
        "harness.replicate": 6,
    }
    for name, count in calls.items():
        assert tracer.stat(name, "calls") == count, name
    results = t_summary.replicates + [r for reps in r_summary.replicates.values() for r in reps]
    assert tracer.counters["path.events"] == sum(r.n_events for r in results) > 0
