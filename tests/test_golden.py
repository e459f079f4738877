"""Golden CLI outputs: small fixed-seed runs must reproduce the CSVs in
``tests/golden/`` byte for byte, at every worker count.

The simulation files were written by the command line tool before the harness
runner was refactored, the ``boundary``/``curve`` files before the theory
half's bracket walks were merged, and ``path_pm.csv`` before the path solver's
breakpoint search was merged into one, so they pin the numbers across
refactors.  ``path_drops.csv`` was re-captured when a drop's Cholesky update
changed from Givens rotations to a closed-form rank-one update, and again
when the solver came to carry the inverse factor L^-1 in place of L; each
time its lambda column moved at rounding level (no event changed).
Every file a run writes next to its CSV (such as ``.touching.csv``) is
compared too.  The cases run ``cli.main`` in this process.  ``golden/gnuplot/``
pins, for one case of each command, the ``--gnuplot`` script and the paths the
run prints; those runs start ``python -m lassocrescent.cli`` in their working
directory with a relative ``--out``, so the script names no machine-specific
directory and every command's module entry point runs once.  To rewrite them
after a deliberate change of the numbers, run
``python tests/test_golden.py [NAME ...]`` (with the package importable) and
state the change: it rewrites the named cases, such as ``path_drops.csv``, and
with no name every case, and prints for each numeric column of each rewritten
CSV its largest absolute and relative change.
"""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import lassocrescent
from lassocrescent.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")
GNUPLOT_DIR = GOLDEN_DIR / "gnuplot"

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

# a longer path with many drops (391 events, 96 of them drops)
DROPS_CONFIG = {
    "design": {"kind": "iid_gaussian", "n": 200, "p": 200},
    "coefficients": {"kind": "equal", "magnitude": 1000.0, "k": 40},
    "sigma": 0.01,
    "seed": 7,
    "replicates": 1,
    "tpp_grid": [0.5],
}

# a +-1 design with exact ties: three entries at lambda_max, in zero-length steps
PM_CONFIG = {
    "design": {"kind": "bernoulli_pm", "n": 30, "p": 40},
    "coefficients": {"kind": "equal", "magnitude": 1.0, "k": 6},
    "sigma": 0.0,
    "seed": 2,
    "replicates": 1,
}

SHAPE_ARGS = ["--delta", "1", "--epsilon", "0.2"]

# golden file -> (command line without --out, worker counts it must hold at)
CASES = {
    "boundary.csv": (
        ["boundary", *SHAPE_ARGS, "--n-points", "99", "--touching", "0.2,0.2,0.2,0.2,0.2"],
        (None,),
    ),
    "curve_sigma0.csv": (
        ["curve", *SHAPE_ARGS, "--prior", '{"kind": "heterogeneous", "m": 3, "base": 4}'],
        (None,),
    ),
    "curve_sigma05.csv": (
        [
            "curve", "--delta", "0.5", "--epsilon", "0.1", "--sigma", "0.5",
            "--prior", '{"kind": "levels", "values": [1, 3, -8]}',
        ],
        (None,),
    ),
    "simulate.csv": (["simulate", "--config", json.dumps(SIM_CONFIG)], (1, 2)),
    "rank_k.csv": (["rank", "--config", json.dumps(RANK_K_CONFIG)], (1, 2)),
    "rank_rho.csv": (["rank", "--config", json.dumps(RANK_RHO_CONFIG)], (1, 2)),
    "path.csv": (["path", "--config", json.dumps(SIM_CONFIG), "--replicate", "1"], (None,)),
    "path_drops.csv": (
        ["path", "--config", json.dumps(DROPS_CONFIG), "--replicate", "0"],
        (None,),
    ),
    "path_pm.csv": (["path", "--config", json.dumps(PM_CONFIG), "--replicate", "0"], (None,)),
}

# one case per command; boundary's also pins the order CSV, .touching.csv, .gp
GNUPLOT_CASES = ("boundary.csv", "curve_sigma0.csv", "path.csv", "simulate.csv", "rank_k.csv")


def outputs(directory, name):
    """The CSV ``name`` in ``directory`` and the files written next to it."""
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob(name + "*"))}


def run_case(name, jobs, outdir):
    """The files that ``cli.main`` writes for case ``name``, run in this process."""
    args, _ = CASES[name]
    out = Path(outdir) / name
    args = args + ["--out", str(out)] + ([] if jobs is None else ["--jobs", str(jobs)])
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(args)
    assert code == 0, err.getvalue()
    return outputs(outdir, name)


def run_gnuplot_case(name, outdir):
    """The ``.gp`` script and the stdout of ``name``'s run with ``--gnuplot``."""
    args, _ = CASES[name]
    package_root = str(Path(lassocrescent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "lassocrescent.cli", *args, "--out", name, "--gnuplot"],
        capture_output=True,
        text=True,
        cwd=outdir,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    return {
        name + ".gp": (Path(outdir) / (name + ".gp")).read_bytes(),
        name + ".stdout": res.stdout.encode(),
    }


def numeric_columns(body):
    """The numeric columns of a CSV file's table, by name, as float arrays."""
    rows = csv.reader(line for line in body.decode().splitlines() if not line.startswith("#"))
    columns = {}
    for name, *values in zip(*rows):
        try:
            columns[name] = np.array(values, dtype=float)
        except ValueError:
            pass
    return columns


def print_changes(name, before, after):
    """Largest absolute and relative change of each numeric column of CSV
    ``name`` from the bytes ``before`` to ``after``."""
    old, new = numeric_columns(before), numeric_columns(after)
    for col, b in new.items():
        a = old.get(col)
        if a is None or a.shape != b.shape:
            print(f"  {name} {col}: no column of the same length before")
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            change = np.where(a == b, 0.0, np.abs(b - a))
            rel = np.where(change == 0.0, 0.0, change / np.abs(a))
        print(f"  {name} {col}: max abs change {change.max():.3g}, max rel change {rel.max():.3g}")


@pytest.mark.parametrize(
    "name, jobs", [(name, jobs) for name, (_, counts) in CASES.items() for jobs in counts]
)
def test_cli_output_matches_golden(tmp_path, name, jobs):
    assert run_case(name, jobs, tmp_path) == outputs(GOLDEN_DIR, name)


@pytest.mark.parametrize("name", GNUPLOT_CASES)
def test_gnuplot_script_and_stdout_match_golden(tmp_path, name):
    expected = {f: (GNUPLOT_DIR / f).read_bytes() for f in (name + ".gp", name + ".stdout")}
    assert run_gnuplot_case(name, tmp_path) == expected


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case(s) {', '.join(unknown)}; known: {', '.join(CASES)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        before = outputs(GOLDEN_DIR, name)
        outs = [run_case(name, jobs, GOLDEN_DIR) for jobs in CASES[name][1]]
        if any(out != outs[0] for out in outs):
            sys.exit(f"{name}: output depends on the worker count")
        for f, body in outs[0].items():
            print(GOLDEN_DIR / f)
            if f in before:
                print_changes(f, before[f], body)
    os.makedirs(GNUPLOT_DIR, exist_ok=True)
    for name in (n for n in GNUPLOT_CASES if n in names):
        with tempfile.TemporaryDirectory() as scratch:
            for f, body in run_gnuplot_case(name, scratch).items():
                (GNUPLOT_DIR / f).write_bytes(body)
                print(GNUPLOT_DIR / f)
