"""Benchmark of lassocrescent: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {theory,tradeoff,rank} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for a reader, with the run's provenance.

``--trace 0`` gives the end-to-end metrics of ``BENCHMARK.json``.  R fresh
interpreters (``REPEATS``) run the same items in a closed loop: the first for
about S / R seconds, the others the items the first finished.  Set-up time is
their median.  ``--trace 1`` gives the per-layer metrics: an untraced
and a traced interpreter run the same items, alternating item by item, for
S seconds, so the difference is the tracing overhead.  For ``rank`` an
untraced interpreter first runs items at ``jobs=2`` for S / 5 seconds, and
the pair then runs those items at ``jobs=1``.  Each interpreter imports
``lassocrescent`` from ``src``.
"""

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

# One BLAS thread per process, so that jobs x threads <= nproc on 2 cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
# Untraced repeats of the same items, each in a fresh interpreter; set-up
# time is their median.  Theory's interpreter-bound requests drift most with
# the host's load, so it takes one more repeat.
REPEATS = {"theory": 4, "tradeoff": 3, "rank": 3}
RANK_JOBS = 2


class RunFailed(Exception):
    pass


class Runner:
    """One ``runner.py`` interpreter.  In lockstep mode ``step`` makes it run
    one item and returns the item's latency."""

    def __init__(self, opts, deadline, lockstep=False):
        self.deadline = deadline
        self.result_path = os.path.join(opts["out_dir"], f"runner-{time.monotonic_ns()}.json")
        opts = dict(opts, spawned_at=time.monotonic(), lockstep=lockstep)
        pipe = subprocess.PIPE if lockstep else None
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "runner.py"), json.dumps(opts), self.result_path],
            cwd=ROOT, stdin=pipe, stdout=pipe if lockstep else sys.stderr, text=True,
            start_new_session=True,
        )

    def _line(self):
        ready, _, _ = select.select([self.proc.stdout], [], [], max(self.deadline - time.monotonic(), 0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RunFailed("runner stopped answering")
        return line

    def step(self):
        self.proc.stdin.write("next\n")
        self.proc.stdin.flush()
        return float(self._line())

    def finish(self):
        """Wait for the runner (ending its input first) and return its result."""
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"runner did not finish within {DEADLINE_S:.0f} s") from None
        if self.proc.returncode != 0:
            raise RunFailed(f"runner exited with code {self.proc.returncode}")
        with open(self.result_path) as fh:
            return json.load(fh)

    def stop(self):
        """Kill the runner and its workers unless it has exited."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


def spawn(opts, deadline, live):
    runner = Runner(opts, deadline)
    live.append(runner)
    return runner.finish()


def lockstep(opts, deadline, live, seconds=None, items=None):
    """Run the same items untraced and traced in two fresh interpreters,
    alternating item by item (and which goes first), so that both see the
    same phase of a machine whose speed drifts.  Stops after ``items`` items
    or ``seconds`` seconds.  Returns (untraced, traced) results."""
    pair = []
    for trace in (False, True):
        pair.append(Runner(dict(opts, trace=trace), deadline, lockstep=True))
        live.append(pair[-1])
        pair[-1]._line()  # READY
    t0, n = time.monotonic(), 0
    while n != items and (seconds is None or time.monotonic() - t0 < seconds):
        for runner in (pair if n % 2 == 0 else pair[::-1]):
            runner.step()
        n += 1
    return [runner.finish() for runner in pair]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(repeats, jobs):
    """End-to-end metrics of repeats that ran the same items, each in its own
    fresh interpreter.  Throughput and median use each item's best (lowest)
    latency over the repeats, which keeps the machine's slow phases out of
    them; the tail pools every execution, so that it holds enough samples to
    sit among the slow requests."""
    from metrics import median, tail

    first = repeats[0]
    best_s = [min(r["latencies_s"][i] for r in repeats if i < r["items"])
              for i in range(first["items"])]
    best_ms = [1e3 * t / first["units_per_item"] for t in best_s]
    all_ms = [1e3 * t / r["units_per_item"] for r in repeats for t in r["latencies_s"]]
    tail_ms, tail_pct = tail(all_ms)
    # RUSAGE_CHILDREN holds the largest worker; at jobs=2 both run at once
    rss_kb = max(r["maxrss_self_kb"] + (jobs if jobs > 1 else 0) * r["maxrss_children_kb"]
                 for r in repeats)
    ready = [r["ready_s"] for r in repeats]
    attempted = sum(r["units"] for r in repeats)
    failed = sum(r["failed_units"] for r in repeats)
    values = {
        "setup_s": median(ready),
        "items_per_s": first["units"] / sum(best_s),
        "item_p50_ms": median(best_ms),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    unit = first["unit"]
    notes = {
        "setup_s": "median of %d fresh interpreters: %s" % (len(ready), ", ".join("%.3f" % r for r in ready)),
        "items_per_s": "%d %ss, best of %d repeats each; repeat walls %s s" % (
            first["units"], unit, len(repeats), ", ".join("%.2f" % r["wall_s"] for r in repeats)),
        "item_p50_ms": "per %s, best of %d repeats, %d items" % (unit, len(repeats), len(best_ms)),
        "item_tail_ms": "p%d of %d executions" % (tail_pct, len(all_ms)),
        "peak_rss_mb": "max RSS of a timed interpreter%s" % (
            " + %d x its largest worker" % jobs if jobs > 1 else ""),
        "ok_frac": "failed_frac = %d/%d = %.4f" % (failed, attempted, failed / attempted),
    }
    return values, notes


def per_layer(untraced, traced, runners, parallel_wall_s):
    from metrics import median

    t = dict(traced["trace"])
    untraced_s = sum(untraced["latencies_s"])
    library_self = sum(v for k, v in t["trace.layer_self_s"].items() if k != "bench")
    t["trace.overhead_frac"] = t["trace.traced_wall_s"] / untraced_s - 1.0
    t["trace.self_sum_frac"] = library_self / untraced_s
    t["cli.import_s"] = median([r["import_s"] for r in runners])
    t["harness.parallel_efficiency"] = (
        t["harness.busy_s"] / (RANK_JOBS * parallel_wall_s) if parallel_wall_s else 0.0)
    t["untraced_wall_s"] = untraced_s
    return t


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which stops the runner


def main():
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("theory", "tradeoff", "rank"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lassocrescent", "__init__.py")):
        print(f"error: no lassocrescent sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    e2e_units, layer_units = declared_metrics()

    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    jobs = RANK_JOBS if args.workload == "rank" else 1
    base = {"workload": args.workload, "seed": args.seed, "out_dir": out_dir, "jobs": jobs,
            "trace": False, "end_checks": False, "seconds": None, "max_items": None}
    live = []
    try:
        if args.trace == 0:
            repeats = REPEATS[args.workload]
            share = args.seconds / repeats
            first = spawn(dict(base, seconds=share, end_checks=True), deadline, live)
            # the same items again; a repeat in a slow phase stops at 1.5 shares
            again = dict(base, max_items=first["items"], seconds=1.5 * share)
            runners = [first] + [spawn(again, deadline, live) for _ in range(repeats - 1)]
            values, notes = end_to_end(runners, jobs)
            units = e2e_units
        else:
            spans = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}.npz")
            paired = dict(base, jobs=1, spans_file=spans)
            if jobs > 1:  # the workload's own jobs, then the same items paired at jobs=1
                first = spawn(dict(base, seconds=args.seconds / 5, end_checks=True), deadline, live)
                untraced, traced = lockstep(paired, deadline, live, items=first["items"])
                runners = [first, untraced, traced]
            else:
                untraced, traced = lockstep(dict(paired, end_checks=True), deadline, live,
                                            seconds=args.seconds)
                runners = [untraced, traced]
            values = per_layer(untraced, traced, runners, first["wall_s"] if jobs > 1 else 0.0)
            notes = {}
            units = layer_units
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for runner in live:
            runner.stop()
        shutil.rmtree(out_dir, ignore_errors=True)

    errors = []
    for r in runners:
        errors += r["reference_errors"] + r["end_errors"]
        errors += ["item %s: %s" % (k, "; ".join(v)) for k, v in r["item_errors"].items()]
    attempted = sum(r["units"] for r in runners)
    failed = sum(r["failed_units"] for r in runners)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(runners[0]["provenance"], sort_keys=True))
    for err in errors:
        print(f"check failed: {err}")
    for note in sum((r["notes"] for r in runners), []):
        print(f"note: {note}")
    if args.trace:
        print_layer_table(values)
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {values[name]:14.6g} {unit:8s} {note}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not errors and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_layer_table(values):
    wall = values["trace.traced_wall_s"]
    idle = [layer for layer in values["trace.layer_self_s"]
            if layer != "bench" and layer not in values["trace.active_layers"]]
    print("layers idle on this workload, whose per-call times come from traced probe items: "
          + (", ".join(idle) or "none"))
    print("layer self times of the traced items (%d spans):" % values["trace.spans"])
    for layer, s in values["trace.layer_self_s"].items():
        print(f"  {layer:16s} {s:10.3f} s  {s / wall:7.2%}")
    library = sum(s for k, s in values["trace.layer_self_s"].items() if k != "bench")
    print("  sum of library layers %.3f s; traced wall %.3f s; untraced wall of the same items %.3f s"
          % (library, wall, values["untraced_wall_s"]))
    print("  library self sum / untraced wall - 1 = %+.2f%%, tracing overhead %+.2f%%"
          % (100 * (values["trace.self_sum_frac"] - 1), 100 * values["trace.overhead_frac"]))


if __name__ == "__main__":
    sys.exit(main())
