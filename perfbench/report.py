"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/report.py [--workloads theory,tradeoff,rank] [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1] [--out FILE]

Each run is one ``run.py`` invocation with its own seed (first-seed,
first-seed + 1, ...).  For every workload and metric the table gives the
median, the quartiles (``statistics.quantiles(values, n=4)``), the sample
count and the spread, (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``.  The raw results, with the provenance line of each run,
go to ``--out`` (default ``.perfbench_out/report-<time>.json``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    provenance = next((ln for ln in lines if ln.startswith("provenance: ")), "")
    return json.loads(lines[-1]), provenance


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw = {}
    for workload in args.workloads.split(","):
        raw[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            result, provenance = run_once(workload, seed, args.seconds, args.trace)
            raw[workload].append({"seed": seed, "result": result, "provenance": provenance,
                                  "run_wall_s": time.monotonic() - t0})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} ({time.monotonic() - t0:.1f} s)", flush=True)

    print("\n%-10s %-38s %12s %12s %12s %3s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "n", "spread", "bound"))
    for workload, runs in raw.items():
        names = runs[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = names[name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            # "ok": within a third of the bound, "in": within the bound, "OVER": beyond it
            flag = "" if bound is None else (
                " ok" if spread <= bound / 3 else " in" if spread <= bound else " OVER")
            print("%-10s %-38s %12.6g %12.6g %12.6g %3d %8.4f %6s%s" % (
                workload, f"{name} [{unit}]", med, q1, q3, len(values), spread,
                "" if bound is None else f"{bound:g}", flag))
        walls = [r["run_wall_s"] for r in runs]
        w1, w2, w3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        print("%-10s %-38s %12.6g %12.6g %12.6g %3d   max %.1f" % (
            workload, "(wall of one run.py call) [s]", w2, w1, w3, len(walls), max(walls)))

    out = args.out or os.path.join(ROOT, ".perfbench_out", f"report-{int(time.time())}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"args": vars(args), "runs": raw}, fh, indent=1)
    print(f"\nraw results: {out}")


if __name__ == "__main__":
    main()
