"""Golden CLI outputs: small fixed-seed runs must reproduce the CSVs in
``tests/golden/`` byte for byte, at every worker count.

The files were written by the command line tool before the harness runner was
refactored, so they pin its numbers across refactors.  To rewrite them after
a deliberate change of the numbers, run ``python tests/test_golden.py`` (with
the package importable) and state the change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")

SIM_CONFIG = {
    "design": {"kind": "iid_gaussian", "n": 40, "p": 40},
    "coefficients": {"kind": "equal", "magnitude": 10.0, "k": 5},
    "sigma": 0.25,
    "replicates": 3,
    "seed": 3,
    "tpp_grid": [0.2, 0.4, 0.6, 0.8],
}

RANK_K_CONFIG = {
    "design": {"kind": "iid_gaussian", "n": 40, "p": 40},
    "coefficients": {"kind": "linear", "k": 2},
    "sigma": 0.0,
    "replicates": 3,
    "seed": 4,
    "mode": "rank",
    "sweep_param": "k",
    "sweep_values": [2, 3, 5],
}

RANK_RHO_CONFIG = {
    "design": {"kind": "correlated_gaussian", "n": 40, "p": 40},
    "coefficients": {"kind": "equal", "magnitude": 5.0, "k": 10},
    "sigma": 0.0,
    "replicates": 3,
    "seed": 7,
    "mode": "rank",
    "sweep_param": "rho",
    "sweep_values": [0.0, 0.3, 0.6],
}

# golden file -> (command line without --out, worker counts it must hold at)
CASES = {
    "simulate.csv": (["simulate", "--config", json.dumps(SIM_CONFIG)], (1, 2)),
    "rank_k.csv": (["rank", "--config", json.dumps(RANK_K_CONFIG)], (1, 2)),
    "rank_rho.csv": (["rank", "--config", json.dumps(RANK_RHO_CONFIG)], (1, 2)),
    "path.csv": (["path", "--config", json.dumps(SIM_CONFIG), "--replicate", "1"], (None,)),
}


def run_case(name, jobs, out):
    args, _ = CASES[name]
    args = args + ["--out", str(out)] + ([] if jobs is None else ["--jobs", str(jobs)])
    res = subprocess.run(
        [sys.executable, "-m", "lassocrescent.cli"] + args, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return Path(out).read_bytes()


@pytest.mark.parametrize(
    "name, jobs", [(name, jobs) for name, (_, counts) in CASES.items() for jobs in counts]
)
def test_cli_output_matches_golden(tmp_path, name, jobs):
    assert run_case(name, jobs, tmp_path / name) == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, (_, counts) in CASES.items():
        outs = {jobs: run_case(name, jobs, GOLDEN_DIR / name) for jobs in counts}
        if len(set(outs.values())) != 1:
            sys.exit(f"{name}: output depends on the worker count")
        print(GOLDEN_DIR / name)
