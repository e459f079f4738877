"""End-to-end command line tests (CSV outputs, streams, exit codes).

Commands run in this process through ``cli.main``; the import-hygiene tests
start their own interpreters, as does each gnuplot case in ``test_golden``.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest

from lassocrescent.cli import main

TINY_SIM_CONFIG = {
    "design": {"kind": "iid_gaussian", "n": 40, "p": 40},
    "coefficients": {"kind": "equal", "magnitude": 10.0, "k": 5},
    "sigma": 0.25,
    "replicates": 3,
    "seed": 3,
    "tpp_grid": [0.3, 0.6],
}

TINY_RANK_CONFIG = {
    "design": {"kind": "iid_gaussian", "n": 40, "p": 40},
    "coefficients": {"kind": "linear", "k": 2},
    "sigma": 0.0,
    "replicates": 2,
    "seed": 4,
    "mode": "rank",
    "sweep_param": "k",
    "sweep_values": [2, 3],
}


def run_cli(args, outdir=None):
    """Exit code and captured streams of ``cli.main(args)``, with
    ``$LASSOCRESCENT_OUTDIR`` set to ``outdir`` when given."""
    out, err = io.StringIO(), io.StringIO()
    env = {} if outdir is None else {"LASSOCRESCENT_OUTDIR": str(outdir)}
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def read_table(path):
    """(header_json, column_names, rows as list of string lists)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0].startswith("# lassocrescent ")
    assert lines[1].startswith("# config: ")
    header = json.loads(lines[1][len("# config: "):])
    columns = lines[2].split(",")
    rows = [ln.split(",") for ln in lines[3:] if ln]
    return header, columns, rows


def test_import_leaves_out_scipy_signal():
    # every CLI call and every pool worker imports the package; scipy.signal
    # alone would add ~0.9 s and ~47 MB to each of them (2-vCPU VM).  The
    # process pool's module (~10 ms) is loaded only by runs with jobs > 1.
    code = "import sys, lassocrescent.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    res = subprocess.run(
        [sys.executable, "-c", code, "scipy.signal", "concurrent.futures.process"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_simulation_half_leaves_out_scipy_optimize_and_special(tmp_path):
    # the simulation commands never solve a root or evaluate a Gaussian
    # kernel; loading both modules costs each process and pool worker
    # ~0.2 s and ~20 MB (2-vCPU VM).  The theory half loads them on first use.
    # The path solver's products are numpy's, so scipy.linalg (another
    # ~0.2 s and ~27 MB) stays out of the simulation half too.
    cfg, rank_cfg = json.dumps(TINY_SIM_CONFIG), json.dumps(TINY_RANK_CONFIG)
    code = f"""
import sys
import lassocrescent, lassocrescent.cli
from lassocrescent import DiscretePrior, ModelShape, config_from_json
from lassocrescent import run_rank_experiment, run_tradeoff_experiment, tradeoff_curve

def loaded(*names):
    return [m for m in names if m in sys.modules]

run_tradeoff_experiment(config_from_json({cfg!r}))
run_rank_experiment(config_from_json({rank_cfg!r}))
assert lassocrescent.cli.main(["path", "--config", {cfg!r}, "--out", sys.argv[1]]) == 0
print("simulation", loaded("scipy.linalg", "scipy.optimize", "scipy.special"))
prior = DiscretePrior(atoms=((1.0, 0.2),), null_mass=0.8)
tradeoff_curve(prior, ModelShape(delta=1.0, epsilon=0.2), n_points=5)
print("theory", loaded("scipy.optimize", "scipy.special"))
"""
    res = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "path.csv")],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "simulation []" in lines, res.stdout
    assert "theory ['scipy.optimize', 'scipy.special']" in lines, res.stdout


def test_boundary_table(tmp_path):
    out = tmp_path / "b.csv"
    res = run_cli(
        ["boundary", "--delta", "1", "--epsilon", "0.2", "--n-points", "9", "--out", str(out)]
    )
    assert res.returncode == 0, res.stderr
    assert str(out) in res.stdout
    header, columns, rows = read_table(out)
    assert columns == ["u", "t_delta", "q_delta", "varsigma", "t_nabla", "q_nabla"]
    assert header["delta"] == 1 and header["epsilon"] == 0.2
    assert len(rows) == 9
    us = [float(r[0]) for r in rows]
    assert us == pytest.approx([j / 10.0 for j in range(1, 10)])
    qd = [float(r[2]) for r in rows]
    qn = [float(r[5]) for r in rows]
    assert all(a < b for a, b in zip(qd, qn))
    assert np.all(np.diff(qd) > 0) and np.all(np.diff(qn) > 0)
    mid = rows[4]
    assert float(mid[2]) == pytest.approx(0.020880859607870447, abs=1e-10)
    assert float(mid[5]) == pytest.approx(0.0781731750932415, abs=1e-10)


def test_boundary_truncation_note(tmp_path):
    out = tmp_path / "t.csv"
    res = run_cli(
        [
            "boundary",
            "--delta", "0.3",
            "--epsilon", "0.25",
            "--n-points", "9",
            "--out", str(out),
        ]
    )
    assert res.returncode == 0, res.stderr
    assert "past the feasible end of an edge" in res.stderr
    header, _, rows = read_table(out)
    assert "feasible_u" in header
    assert 0 < len(rows) < 9
    # the upper edge ends at u = 0.48896, where the calibrated penalty is 0
    assert float(rows[-1][0]) == pytest.approx(0.4)


def test_boundary_rejects_noise(tmp_path):
    res = run_cli(
        ["boundary", "--delta", "1", "--epsilon", "0.2", "--sigma", "0.1"], outdir=tmp_path
    )
    assert res.returncode == 2
    assert "noiseless" in res.stderr


def test_boundary_noiseless_floor_above_60(tmp_path):
    # the noiseless alpha floor is about sqrt(delta/eps) = 63.2 here, and the
    # lower-edge root at level u is sqrt(delta/(u eps) - 1)
    out = tmp_path / "b.csv"
    res = run_cli(
        ["boundary", "--delta", "4", "--epsilon", "0.001", "--n-points", "4", "--out", str(out)]
    )
    assert res.returncode == 0, res.stderr
    _, _, rows = read_table(out)
    us = np.array([float(r[0]) for r in rows])
    assert us == pytest.approx([0.2, 0.4, 0.6, 0.8])
    t_lower = np.array([float(r[1]) for r in rows])
    assert t_lower == pytest.approx(np.sqrt(4.0 / (us * 1e-3) - 1.0), rel=1e-11)
    assert all(63.2 < float(r[4]) < 64.3 for r in rows)  # t_nabla
    # Phi(-t) underflows to 0 past t = 38.5, so both FDP edges are 0 here
    assert all(float(r[2]) == 0.0 == float(r[5]) for r in rows)


def test_boundary_infeasible_exit_code(tmp_path):
    res = run_cli(
        ["boundary", "--delta", "0.05", "--epsilon", "0.9", "--n-points", "1"],
        outdir=tmp_path,
    )
    assert res.returncode == 3
    assert "infeasible" in res.stderr


def test_boundary_touching_output(tmp_path):
    out = tmp_path / "b.csv"
    res = run_cli(
        [
            "boundary",
            "--delta", "1",
            "--epsilon", "0.2",
            "--n-points", "4",
            "--touching", "0.5,0.5",
            "--out", str(out),
        ]
    )
    assert res.returncode == 0, res.stderr
    tp_path = str(out) + ".touching.csv"
    assert tp_path in res.stdout
    header, columns, rows = read_table(tp_path)
    assert columns == ["u", "q_delta"]
    assert header["touching_gamma"] == [0.5, 0.5]
    assert len(rows) == 2
    assert float(rows[0][0]) == pytest.approx(0.5013526118013145, abs=1e-6)
    assert float(rows[1][0]) == 1.0


def test_boundary_writes_nothing_when_touching_fails(tmp_path):
    # every table is computed before any file is written
    res = run_cli(
        ["boundary", "--delta", "1", "--epsilon", "0.2", "--touching", "0.5,-1"],
        outdir=tmp_path,
    )
    assert res.returncode == 2
    assert "positive weights" in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_curve_matches_upper_edge(tmp_path):
    out = tmp_path / "c.csv"
    res = run_cli(
        [
            "curve",
            "--delta", "1",
            "--epsilon", "0.2",
            "--prior", '{"kind": "homogeneous", "epsilon": 0.2, "magnitude": 1}',
            "--n-points", "5",
            "--out", str(out),
        ]
    )
    assert res.returncode == 0, res.stderr
    header, columns, rows = read_table(out)
    assert columns == ["alpha", "lambda", "tau", "tpp_inf", "fdp_inf"]
    assert header["prior"] == {"atoms": [[1.0, 0.2]], "null_mass": 0.8}
    assert len(rows) == 5
    tpps = [float(r[3]) for r in rows]
    fdps = [float(r[4]) for r in rows]
    assert np.all(np.diff(tpps) > 0)
    assert np.all(np.diff(fdps) > 0)
    # middle grid point lands on TPP = 0.5; a single-magnitude noiseless
    # prior sits exactly on the upper edge there
    assert tpps[2] == pytest.approx(0.5, abs=1e-9)
    assert fdps[2] == pytest.approx(0.0781731750932415, abs=1e-6)


def test_curve_sigma_beyond_square_overflow(tmp_path):
    # sigma**2 overflows past ~1.3e154; the curve is scale-free, so sigma 1e200
    # with magnitude 1 is sigma 1 with magnitude 1e-200, with tau scaled by 1e200
    tables = {}
    for sigma, magnitude in (("1e200", 1), ("1", 1e-200)):
        out = tmp_path / f"c{sigma}.csv"
        prior = {"kind": "homogeneous", "epsilon": 0.2, "magnitude": magnitude}
        res = run_cli(
            [
                "curve",
                "--delta", "1",
                "--epsilon", "0.2",
                "--sigma", sigma,
                "--prior", json.dumps(prior),
                "--n-points", "5",
                "--out", str(out),
            ]
        )
        assert res.returncode == 0, res.stderr
        _, columns, rows = read_table(out)
        tables[sigma] = {c: np.array([float(r[i]) for r in rows]) for i, c in enumerate(columns)}
    big, small = tables["1e200"], tables["1"]
    for col in ("alpha", "tpp_inf", "fdp_inf"):
        np.testing.assert_allclose(big[col], small[col], rtol=1e-9)
    np.testing.assert_allclose(big["tau"], small["tau"] * 1e200, rtol=1e-9)


def test_curve_at_tiny_epsilon_is_infeasible(tmp_path):
    # the noiseless floor sqrt(delta/eps - 1) ~ 1.8e8 is found, and the curve's
    # TPP range misses the window: infeasible (exit 3), not a solver failure
    prior = {"kind": "homogeneous", "epsilon": 3e-15, "magnitude": 1}
    res = run_cli(
        ["curve", "--delta", "100", "--epsilon", "3e-15", "--prior", json.dumps(prior)],
        outdir=tmp_path,
    )
    assert res.returncode == 3, res.stderr
    assert list(tmp_path.iterdir()) == []


def test_curve_requires_valid_prior(tmp_path):
    res = run_cli(
        ["curve", "--delta", "1", "--epsilon", "0.2"], outdir=tmp_path
    )
    assert res.returncode == 2
    assert "prior" in res.stderr

    res_bad = run_cli(
        [
            "curve",
            "--delta", "1",
            "--epsilon", "0.2",
            "--prior", '{"kind": "homogeneous", "epsilon": 0.0, "magnitude": 1}',
        ],
        outdir=tmp_path,
    )
    assert res_bad.returncode == 2


def test_path_table_deterministic(tmp_path):
    cfg = json.dumps(TINY_SIM_CONFIG)
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    res1 = run_cli(["path", "--config", cfg, "--replicate", "1", "--out", str(out1)])
    res2 = run_cli(["path", "--config", cfg, "--replicate", "1", "--out", str(out2)])
    assert res1.returncode == 0, res1.stderr
    assert res2.returncode == 0
    header, columns, rows = read_table(out1)
    assert columns == ["event_index", "lambda", "kind", "variable", "n_active", "tpp", "fdp"]
    assert header["replicate"] == 1
    lams = [float(r[1]) for r in rows]
    assert np.all(np.diff(lams) < 0)
    assert set(r[2] for r in rows) <= {"add", "drop"}
    assert all(int(r[4]) >= 1 for r in rows)
    # identical bytes on rerun: the replicate stream is counter-based
    assert out1.read_bytes() == out2.read_bytes()


def test_path_needs_no_tpp_grid(tmp_path):
    config = {key: v for key, v in TINY_SIM_CONFIG.items() if key != "tpp_grid"}
    out = tmp_path / "p.csv"
    res = run_cli(["path", "--config", json.dumps(config), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    header, _, rows = read_table(out)
    assert header["config"]["tpp_grid"] == []
    assert rows
    # simulate averages onto the grid, so it still needs one
    res_sim = run_cli(["simulate", "--config", json.dumps(config)], outdir=tmp_path)
    assert res_sim.returncode == 2
    assert "tpp_grid" in res_sim.stderr


def test_simulate_deterministic_and_jobs_invariant(tmp_path):
    cfg = json.dumps(TINY_SIM_CONFIG)
    outs = [tmp_path / f"s{i}.csv" for i in range(3)]
    res1 = run_cli(["simulate", "--config", cfg, "--out", str(outs[0])])
    res2 = run_cli(["simulate", "--config", cfg, "--out", str(outs[1])])
    res3 = run_cli(["simulate", "--config", cfg, "--jobs", "2", "--out", str(outs[2])])
    for res in (res1, res2, res3):
        assert res.returncode == 0, res.stderr
    header, columns, rows = read_table(outs[0])
    assert columns == ["tpp_grid", "mean_fdp", "se_fdp", "n_ok"]
    assert len(rows) == 2
    assert all(int(r[3]) == 3 for r in rows)
    body = lambda p: p.read_bytes()
    assert body(outs[0]) == body(outs[1])
    # worker count must not change the numbers
    assert body(outs[0]) == body(outs[2])


def test_rank_table(tmp_path):
    cfg = json.dumps(TINY_RANK_CONFIG)
    out = tmp_path / "r.csv"
    res = run_cli(["rank", "--config", cfg, "--out", str(out)])
    assert res.returncode == 0, res.stderr
    header, columns, rows = read_table(out)
    assert columns == ["sweep_value", "mean_T", "median_T", "q10", "q90", "n_censored"]
    assert [float(r[0]) for r in rows] == [2.0, 3.0]
    for r in rows:
        assert 1.0 <= float(r[1])
        assert int(r[5]) >= 0


def test_gnuplot_script(tmp_path):
    out = tmp_path / "b.csv"
    res = run_cli(
        [
            "boundary",
            "--delta", "1",
            "--epsilon", "0.2",
            "--n-points", "2",
            "--gnuplot",
            "--out", str(out),
        ]
    )
    assert res.returncode == 0, res.stderr
    gp = str(out) + ".gp"
    assert gp in res.stdout
    with open(gp) as fh:
        body = fh.read()
    assert "set datafile separator ','" in body
    assert str(out) in body


def test_outdir_environment_default(tmp_path):
    nested = tmp_path / "results" / "run1"
    res = run_cli(
        ["boundary", "--delta", "1", "--epsilon", "0.2", "--n-points", "2"],
        outdir=nested,
    )
    assert res.returncode == 0, res.stderr
    expected = nested / "boundary.csv"
    assert expected.exists()
    assert str(expected) in res.stdout


def test_malformed_config_exit_code(tmp_path, monkeypatch, capsys):
    res = run_cli(["simulate", "--config", "{not json"], outdir=tmp_path)
    assert res.returncode == 2
    res_missing = run_cli(["simulate"], outdir=tmp_path)
    assert res_missing.returncode == 2
    # JSON of the wrong shape is invalid input too: exit 2 with an error line,
    # not an exception out of main
    sim, rank = TINY_SIM_CONFIG, TINY_RANK_CONFIG
    coef, levels = sim["coefficients"], {"kind": "fixed_levels", "values": [5.0], "counts": [1]}
    nan, inf = float("nan"), float("inf")
    rho_sweep = {
        **rank, "design": {**rank["design"], "kind": "correlated_gaussian"}, "sweep_param": "rho"
    }
    correlated = rho_sweep["design"]
    iid_equicorrelation = {**sim["design"], "structure": "equicorrelation"}
    linear = rank["coefficients"]
    homogeneous = '{"kind": "homogeneous", "epsilon": 0.2, "magnitude": 1}'
    malformed_priors = (
        {"kind": "homogeneous", "epsilon": 0.2, "magnitude": True},
        {"kind": "homogeneous", "epsilon": 0.2, "magnitude": "3"},
        {"kind": "heterogeneous", "epsilon": 0.2, "m": True, "base": 2.0},
        {"kind": "levels", "epsilon": 0.2, "values": "12"},
        {"kind": "levels", "epsilon": 0.2, "values": [1.0, 2.0], "weights": [True, 1]},
        {"kind": "levels", "epsilon": 0.2, "values": [1.0], "weight": [1.0]},
    )
    (tmp_path / "list.json").write_text("[1, 2]")
    monkeypatch.setenv("LASSOCRESCENT_OUTDIR", str(tmp_path))
    for argv in (
        ["simulate", "--config", json.dumps({**sim, "design": {"n": 40, "p": 40}})],
        ["simulate", "--config", json.dumps({**sim, "coefficients": {"k": 5}})],
        ["simulate", "--config", "[1,2]"],
        ["simulate", "--config", str(tmp_path / "list.json")],
        ["boundary", "--config", "[1]"],
        ["boundary", "--config", '{"delta": [1], "epsilon": 0.2}'],
        ["boundary", "--config", '{"delta": 1, "epsilon": 0.2, "simga": 0}'],
        ["curve", "--delta", "1", "--epsilon", "0.2", "--prior", "[1]"],
        ["curve", "--delta", "1", "--prior", '{"kind": "homogeneous", "epsilon": "a"}'],
        ["simulate", "--config", json.dumps({**sim, "tpp_grid": 5})],
        ["simulate", "--config", json.dumps({**sim, "sigma": None})],
        ["rank", "--config", json.dumps({**rank, "sweep_values": 3})],
        ["simulate", "--config", json.dumps({**sim, "sweep_param": "k", "sweep_values": [2]})],
        # values no replicate can use, caught before any replicate runs or truncates them
        ["simulate", "--config", json.dumps({**sim, "coefficients": {**coef, "magnitude": nan}})],
        ["simulate", "--config", json.dumps({**sim, "coefficients": {**coef, "magnitude": inf}})],
        ["simulate", "--config", json.dumps({**sim, "coefficients": {**levels, "values": ["a"]}})],
        ["simulate", "--config", json.dumps({**sim, "coefficients": {**levels, "values": [inf]}})],
        ["simulate", "--config", json.dumps({**sim, "coefficients": {**levels, "counts": [1.5]}})],
        ["simulate", "--config", json.dumps({**sim, "seed": -1})],
        ["simulate", "--config", json.dumps({**sim, "coefficients": {**coef, "k": 2.7}})],
        ["simulate", "--config", json.dumps({**sim, "replicates": True})],
        ["simulate", "--config", json.dumps({**sim, "design": {**sim["design"], "n": 40.5}})],
        ["rank", "--config", json.dumps({**rank, "sweep_values": [2.5, 3]})],
        ["simulate", "--config", json.dumps({**sim, "design": {**sim["design"], "rho": 0.5}})],
        # a rho sweep takes numbers in [0, 1) only
        *(
            ["rank", "--config", json.dumps({**rho_sweep, "sweep_values": [value]})]
            for value in (None, "a", 1.5)
        ),
        # fields the kind ignores, which the header would echo
        ["simulate", "--config", json.dumps({**sim, "design": iid_equicorrelation})],
        # grid sizes and worker counts below the least valid value
        *(
            ["boundary", "--delta", "1", "--epsilon", "0.2", "--n-points", n]
            for n in ("0", "-2")
        ),
        *(
            ["curve", "--delta", "1", "--epsilon", "0.2", "--n-points", n, "--prior", homogeneous]
            for n in ("0", "-2")
        ),
        *(
            [command, "--config", json.dumps(config), "--jobs", jobs]
            for command, config in (("simulate", sim), ("rank", rank))
            for jobs in ("0", "-3")
        ),
        *(
            ["rank", "--config", json.dumps({**rank, "coefficients": {**linear, name: value}})]
            for name, value in (("magnitude", 2.0), ("values", [1.0]), ("counts", [1]))
        ),
        # a number field takes a JSON number: no boolean, no numeric string, none past a float
        *(
            ["simulate", "--config", json.dumps({**sim, "sigma": value})]
            for value in (True, "0.5", 10**400)
        ),
        ["simulate", "--config", json.dumps({**sim, "design": {**correlated, "rho": "0.3"}})],
        ["simulate", "--config", json.dumps({**sim, "coefficients": {**levels, "values": ["1"]}})],
        ["simulate", "--config", json.dumps({**sim, "coefficients": {**levels, "values": [True]}})],
        ["simulate", "--config", json.dumps({**sim, "tpp_grid": ["0.5"]})],
        ["boundary", "--config", '{"delta": true, "epsilon": 0.2}'],
        ["rank", "--config", json.dumps({**rho_sweep, "sweep_values": [False]})],
        # sweep values that share a row label, or a k sweep the kind ignores
        ["rank", "--config", json.dumps({**rank, "sweep_values": [2, 2.0]})],
        ["rank", "--config", json.dumps({**rank, "coefficients": levels, "sweep_values": [0]})],
        # fields the mode ignores
        ["rank", "--config", json.dumps({**rank, "sweep_param": "", "sweep_values": [5, 9]})],
        ["rank", "--config", json.dumps({**rank, "tpp_grid": [0.5]})],
        # a prior object is read as a config is, given alone or inside a config
        *(
            ["curve", "--delta", "1", "--epsilon", "0.2", "--prior", json.dumps(prior)]
            for prior in malformed_priors
        ),
        *(
            ["simulate", "--config", json.dumps({**sim, "coefficients": coefficients})]
            for coefficients in ({"kind": "prior_sample", "prior": p} for p in malformed_priors)
        ),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    # the error names the flag and its value
    assert main(["path", "--config", json.dumps(sim), "--replicate", "-1"]) == 2
    assert "--replicate must be a nonnegative integer, got -1" in capsys.readouterr().err
    # coefficients.p against the columns of a genotype file
    fpath = tmp_path / "geno.csv"
    np.savetxt(fpath, np.random.default_rng(8).integers(0, 3, size=(40, 7)), delimiter=",")
    config = {
        "design": {"kind": "genotype_file", "path": str(fpath)},
        "coefficients": {"kind": "equal", "p": 10, "magnitude": 5.0, "k": 2},
        "tpp_grid": [0.5],
    }
    res_cols = run_cli(["simulate", "--config", json.dumps(config)], outdir=tmp_path)
    assert res_cols.returncode == 2
    assert "7 columns" in res_cols.stderr
    config["design"]["path"] = [str(fpath)]
    assert main(["simulate", "--config", json.dumps(config)]) == 2
    assert "needs a file path" in capsys.readouterr().err


def test_missing_config_file_names_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "experiment.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'experiment.json' not found" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["simulate", "rank"])
def test_failed_replicate_exit_code(tmp_path, command, jobs):
    fpath = tmp_path / "geno.csv"
    np.savetxt(fpath, np.random.default_rng(8).integers(0, 3, size=(40, 7)), delimiter=",")
    config = {
        "design": {"kind": "genotype_file", "path": str(fpath)},
        "coefficients": {"kind": "equal", "p": 7, "magnitude": 5.0, "k": 2},
        "replicates": 2,
        "seed": 9,
        # rank mode reads no grid, so its config may not hold one
        **({"tpp_grid": [0.5]} if command == "simulate" else {}),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    fpath.unlink()  # every replicate now fails while reading its design
    res = run_cli([command, "--config", str(cfg_path), "--jobs", jobs], outdir=tmp_path)
    assert res.returncode == 4
    assert "solver failure" in res.stderr
    assert "(9, 0, 1)" in res.stderr
    assert "FileNotFoundError" in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary", "--delta", "1", "--epsilon", "0.2", "--seed", "1"],
        ["boundary", "--delta", "1", "--epsilon", "0.2", "--replicates", "2"],
        ["boundary", "--delta", "1", "--epsilon", "0.2", "--jobs", "2"],
        ["curve", "--delta", "1", "--epsilon", "0.2", "--seed", "1"],
        ["curve", "--delta", "1", "--epsilon", "0.2", "--replicates", "2"],
        ["curve", "--delta", "1", "--epsilon", "0.2", "--jobs", "2"],
        ["path", "--config", "{}", "--replicates", "2"],
        ["path", "--config", "{}", "--jobs", "2"],
    ],
)
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
