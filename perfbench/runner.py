"""One fresh interpreter's share of a benchmark run (started by ``run.py``).

Usage: ``python3 perfbench/runner.py '<json options>' <result file>``.

Imports ``lassocrescent`` from the checkout's ``src`` directory, generates
the workload's inputs, runs and checks the reference warm-up item (set-up
ends here, and its time since ``spawned_at`` is reported) and then runs
items in a closed loop (one at a time) until ``max_items`` are done or, in
whole blocks of the workload's items, for about ``seconds``, whichever comes
first.  In ``lockstep`` mode it prints ``READY`` and then runs one item for
each ``next`` line on its standard input, answering with the item's latency,
until the input ends.  With ``trace`` the loop runs under ``tracing.Tracer``
and the per-layer numbers and kernel micro-measures are added to the result
file.
"""

import importlib
import json
import os
import resource
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lassocrescent  # noqa: E402
import lassocrescent.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from metrics import layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MICRO_ELEMS = 1 << 20  # kernel micro-measure array size (8 MiB per float64 array)
MODULES = {m: importlib.import_module(f"lassocrescent.{m}")
           for m in ("state_evolution", "crescent", "harness", "cli")}


def run_traced(tracer, workload, item, jobs):
    """Run one item under an item span and a span for the library entry point."""
    item_span = tracer.name_id("bench.item", "bench")
    entry_span = tracer.name_id(*workload.entry_span)
    i_idx = tracer.open(item_span)
    e_idx = tracer.open(entry_span)
    try:
        return workload.run(item, jobs)
    finally:
        tracer.close(e_idx, entry_span)
        tracer.close(i_idx, item_span)


def probe_layers(workload, active, opts):
    """Per-layer times of the layers this workload leaves idle, from traced
    reference items of the workload that uses them (the theory half for the
    simulation workloads, one tradeoff replicate for ``theory``), so that
    every layer's times are measured on every run."""
    other = WORKLOADS["tradeoff" if workload.name == "theory" else "theory"]
    probe = other(lassocrescent, opts["out_dir"])
    tracer = Tracer(MODULES, top_tpp=probe.top_tpp)
    tracer.install()
    try:
        for item in probe.probe_items():
            run_traced(tracer, probe, item, 1)
    finally:
        tracer.uninstall()
    measured = layer_metrics(tracer, probe.units_per_item * len(probe.probe_items()))
    return {k: v for k, v in measured.items()
            if k.split(".")[0] not in active and k.split(".")[0] in measured["trace.active_layers"]
            and not k.endswith("self_frac")}


def past_half_next_block(elapsed, blocks, seconds):
    """Whether a time-boxed loop that has run ``blocks`` whole blocks in
    ``elapsed`` seconds should stop: it stops at the block boundary nearest
    to ``seconds``, taking the next block to last as long as the mean one."""
    return elapsed * (1.0 + 0.5 / blocks) >= seconds


def blas_threads():
    """Threads of every OpenBLAS copy loaded in this process."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def provenance(jobs):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jobs": jobs,
    }


def micro_measures():
    """ns per element of the two vector kernels at MICRO_ELEMS elements, and
    us per scalar call of ``mse_signal``; medians of 5 repeats."""
    from lassocrescent import gauss

    t = np.linspace(0.0, 6.0, MICRO_ELEMS)

    def median_time(fn, reps=5):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    scalar_calls = 2000

    def scalar():
        for _ in range(scalar_calls):
            gauss.mse_signal(1.3, 0.7)

    return {
        "gauss.mse_signal_ns_per_elem": median_time(lambda: gauss.mse_signal(t, 1.0)) / MICRO_ELEMS * 1e9,
        "gauss.excess_prob_ns_per_elem": median_time(lambda: gauss.excess_prob(t, 1.0)) / MICRO_ELEMS * 1e9,
        "gauss.scalar_call_us": median_time(scalar) / scalar_calls * 1e6,
    }


def main():
    opts = json.loads(sys.argv[1])
    result_path = sys.argv[2]
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(lassocrescent.__file__).startswith(src):
        raise SystemExit(f"imported lassocrescent from {lassocrescent.__file__}, not {src}")
    os.makedirs(opts["out_dir"], exist_ok=True)
    workload = WORKLOADS[opts["workload"]](lassocrescent, opts["out_dir"])
    jobs = opts["jobs"]
    items = workload.items(opts["seed"])

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[workload.name]
    errors = workload.reference_errors(workload.run_reference(), ref)
    ready_s = time.monotonic() - opts["spawned_at"]

    result = {"import_s": IMPORT_S, "ready_s": ready_s, "reference_errors": errors,
              "unit": workload.unit, "provenance": provenance(jobs)}
    tracer = None
    if opts["trace"]:
        tracer = Tracer(MODULES, top_tpp=workload.top_tpp)
        tracer.install()

    done, latencies = [], []
    seconds, max_items = opts["seconds"], opts["max_items"]
    lockstep = opts["lockstep"]
    if lockstep:  # run.py asks for each item, alternating with a twin runner
        print("READY", flush=True)
    t_loop = time.perf_counter()
    while not lockstep or sys.stdin.readline().strip() == "next":
        item = next(items)
        t0 = time.perf_counter()
        try:
            out = workload.run(item, jobs) if tracer is None else run_traced(tracer, workload, item, jobs)
        except Exception as exc:  # noqa: BLE001 - a failed item is counted, not fatal
            out = {"exception": repr(exc)}
        latencies.append(time.perf_counter() - t0)
        done.append((item, out))
        if lockstep:
            print(latencies[-1], flush=True)
        elif len(done) == max_items or (len(done) % workload.block == 0
                                        and past_half_next_block(time.perf_counter() - t_loop,
                                                                 len(done) // workload.block, seconds)):
            break
    wall = sum(latencies) if lockstep else time.perf_counter() - t_loop
    maxrss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()

    # correctness, outside the timed loop
    item_errors = {}
    for i, (item, out) in enumerate(done):
        errs = [out["exception"]] if "exception" in out else workload.check(item, out)
        if errs:
            item_errors[i] = errs
    end_errors = []
    if opts["end_checks"]:
        for idx, err in workload.end_checks(done, ref):
            if idx is None:
                end_errors.append(err)
            else:
                item_errors.setdefault(idx, []).append(err)

    per_item = workload.units_per_item
    result.update({
        "items": len(done),
        "units": per_item * len(done),
        "failed_units": per_item * len(item_errors),
        "item_errors": {str(k): v for k, v in item_errors.items()},
        "end_errors": end_errors,
        "notes": workload.notes,
        "wall_s": wall,
        "latencies_s": latencies,
        "units_per_item": per_item,
        "maxrss_self_kb": maxrss_kb[0],
        "maxrss_children_kb": maxrss_kb[1],
    })
    if tracer is not None:
        result["trace"] = layer_metrics(tracer, per_item * len(done))
        result["trace"].update(probe_layers(workload, result["trace"]["trace.active_layers"], opts))
        result["trace"].update(micro_measures())
        tracer.save(opts["spans_file"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
