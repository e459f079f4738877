"""Metric arithmetic shared by the runner and ``run.py``."""

import math

from tracing import GAUSS_KERNELS, LAYERS
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it


def median(values):
    s = sorted(values)
    n = len(s)
    return 0.5 * (s[(n - 1) // 2] + s[n // 2])


def tail(values):
    """(value, percentile) of the highest whole percentile with at least
    TAIL_BEYOND samples above it, interpolated linearly between order
    statistics.  With fewer than 2 * TAIL_BEYOND + 1 samples no such
    percentile lies above the median, and the median is returned as
    percentile 50."""
    s = sorted(values)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return median(s), 50
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    pos = (n - 1) * pct / 100  # below n - TAIL_BEYOND, so TAIL_BEYOND samples lie above
    lo = math.floor(pos)
    return s[lo] + (pos - lo) * (s[lo + 1] - s[lo]), pct


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, units):
    """Per-layer numbers of one traced run over ``units`` requests or
    replicates.  A layer the workload does not use reports 0."""
    wall = tr.stat("bench.item")
    self_s = tr.layer_self_s()
    m = {"trace.traced_wall_s": wall, "trace.layer_self_s": self_s,
         "trace.spans": len(tr.span_start),
         "trace.active_layers": [layer for layer in LAYERS[:-1] if self_s[layer] > 0]}
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_frac"] = _ratio(self_s[layer], wall)

    gauss_calls = sum(tr.stat(f"gauss.{k}", "calls") for k in GAUSS_KERNELS)
    m["gauss.calls_per_item"] = _ratio(gauss_calls, units)
    m["gauss.elems_per_call"] = _ratio(tr.counters["gauss.elems"], gauss_calls)

    curve = "state_evolution.tradeoff_curve"
    curves = tr.stat(curve, "calls")
    m["state_evolution.curve_ms"] = _ratio(tr.stat(curve) * 1e3, curves)
    m["state_evolution.tau_solves_per_curve"] = _ratio(
        tr.stat("state_evolution.solve_tau_given_alpha", "calls"), curves)
    m["state_evolution.root_calls_per_curve"] = _ratio(
        tr.counters[f"state_evolution.brentq.calls@{curve}"], curves)
    m["state_evolution.root_fevals_per_curve"] = _ratio(
        tr.counters[f"state_evolution.brentq.fevals@{curve}"], curves)

    for edge in ("t_delta", "t_nabla"):
        m[f"crescent.{edge}_ms"] = _ratio(tr.stat(f"crescent.{edge}") * 1e3,
                                          tr.stat(f"crescent.{edge}", "calls"))
    m["crescent.root_fevals_per_point"] = _ratio(
        tr.counters["crescent.brentq.fevals@crescent.crescent"], tr.counters["crescent.points"])
    m["crescent.touching_ms"] = _ratio(tr.stat("crescent.touching_points") * 1e3,
                                       tr.stat("crescent.touching_points", "calls"))

    paths = tr.stat("lasso_path.lasso_path", "calls")
    events = tr.counters["path.events"]
    reps = tr.stat("harness.replicate", "calls")
    m["lasso_path.ms_per_event"] = _ratio(tr.stat("lasso_path.lasso_path") * 1e3, events)
    m["lasso_path.ms_per_path"] = _ratio(tr.stat("lasso_path.lasso_path") * 1e3, paths)
    m["lasso_path.events_per_path"] = _ratio(events, paths)
    m["lasso_path.drops_per_path"] = _ratio(tr.counters["path.drops"], paths)
    m["lasso_path.calls_per_rep"] = _ratio(paths, reps)
    m["lasso_path.useful_event_frac"] = _ratio(
        tr.counters["rep.useful_events"], tr.counters["rep.events"])

    def per_rep_ms(*names, what="total"):
        return _ratio(sum(tr.stat(n, what) for n in names) * 1e3, reps)

    m["harness.sample_ms_per_rep"] = per_rep_ms(
        "harness.replicate_rng", "harness.sample_design", "harness.sample_coefficients")
    m["harness.post_ms_per_rep"] = per_rep_ms(
        "lasso_path.tpp_fdp_along_path", "harness.fdp_on_grid", "lasso_path.first_false_rank")
    m["harness.other_ms_per_rep"] = per_rep_ms(
        "harness.run_tradeoff_experiment", "harness.run_rank_experiment", "harness.replicate",
        what="self")
    rep_ms = tr.durations_ms("harness.replicate").tolist()
    m["harness.rep_p50_ms"] = median(rep_ms) if rep_ms else 0.0
    m["harness.rep_tail_ms"], m["harness.rep_tail_pct"] = tail(rep_ms) if rep_ms else (0.0, 0)
    m["harness.busy_s"] = tr.stat("harness.replicate")
    m["harness.failed_reps"] = tr.failed_spans("harness.replicate")
    m["cli.self_ms_per_item"] = _ratio(self_s["cli"] * 1e3, units)
    return m
