"""Self-test of the benchmark.

Usage (from the repository root): ``python3 perfbench/selftest.py``

* A tiny run (``--seconds 1``) of every workload, untraced and traced, must
  end with a result line whose metrics are exactly those of
  ``BENCHMARK.json`` (``end_to_end`` untraced, ``per_layer`` traced), each
  with its declared unit and a finite value, and must pass every check.
* Every workload also runs once, untraced, on a held-out seed that was not
  used while the benchmark was written.
* "Every workload" is every workload ``run.py`` offers: those of
  ``BENCHMARK.json`` and ``theory``, which is left out of it (see README.md)
  but must still work.
* In a directory holding only ``BENCHMARK.json`` and ``perfbench`` (no
  library sources) the benchmark must exit with a nonzero code and print no
  result.

Exits 0 when every case passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TUNING_SEED = 1
HELD_OUT_SEED = 7_140_211
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
EXTRA_WORKLOADS = ["theory"]  # runnable by hand, not in BENCHMARK.json


def run(root, workload, seed, trace, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_errors(proc, declared):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last stdout line is not a JSON object"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{name}: value {m.get('value')!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    names = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    cases = [(name, TUNING_SEED, trace) for name in names for trace in (0, 1)]
    cases += [(name, HELD_OUT_SEED, 0) for name in names]

    failures = 0
    for workload, seed, trace in cases:
        errors = result_errors(run(ROOT, workload, seed, trace), declared[trace])
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {workload} seed={seed} trace={trace}"
              + "".join(f"\n     {e}" for e in errors), flush=True)

    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, spec["workloads"][0]["name"], TUNING_SEED, 0)
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failures += not bare_ok
    print(f"{'ok  ' if bare_ok else 'FAIL'} without library sources: exit code {proc.returncode}")
    print(f"{len(cases) + 1 - failures}/{len(cases) + 1} cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
