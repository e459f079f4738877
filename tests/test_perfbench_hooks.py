"""The benchmark's span tracer still finds, records and restores its hooks.

``perfbench/tracing.py`` wraps library functions by module attribute name, so
a renamed attribute, or a solver that stops calling a traced name, would
otherwise only show when a traced benchmark run fails.  The tracer module is
imported as it is, read-only.
"""

import importlib
import os

from lassocrescent import DiscretePrior, ModelShape

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SUBMODULES = ("gauss", "state_evolution", "crescent", "lasso_path", "harness", "cli")


def test_tracer_records_gauss_kernels_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    # import_module, because the package attribute lassocrescent.crescent is
    # the function of that name, not the submodule
    modules = {m: importlib.import_module(f"lassocrescent.{m}") for m in SUBMODULES}
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
        cr.crescent(shape, 5)
        after_crescent = kernel_calls()
    finally:
        tracer.uninstall()

    # each solver module calls every traced kernel through its traced name
    for f in tracing.GAUSS_KERNELS:
        assert after_curve[f] >= 1, f
        assert after_crescent[f] > after_curve[f], f
    for mod, attr, original in patched:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"
