"""Experiment harness: samplers, RNG streams, grids, runners, JSON configs."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lassocrescent import (
    CoefficientSpec,
    DesignSpec,
    DiscretePrior,
    ExperimentConfig,
    config_from_json,
    config_to_json,
    fdp_on_grid,
    lasso_path,
    load_design_file,
    prior_from_json,
    replicate_rng,
    run_rank_experiment,
    run_tradeoff_experiment,
    sample_coefficients,
    sample_design,
    tpp_fdp_along_path,
)
from lassocrescent.harness import _rank_replicate, _settings, _simulate_instance
from oracles import cholesky_design


# --- designs ------------------------------------------------------------------


def test_iid_gaussian_moments():
    spec = DesignSpec(kind="iid_gaussian", n=400, p=50)
    X = sample_design(spec, np.random.default_rng(0))
    assert X.shape == (400, 50)
    assert X.var() == pytest.approx(1.0 / 400, rel=0.05)
    # columns have roughly unit norm under the 1/n scaling
    assert np.linalg.norm(X, axis=0).mean() == pytest.approx(1.0, rel=0.05)


def test_variance_scale_override():
    spec = DesignSpec(kind="iid_gaussian", n=200, p=40, variance_scale=2.0)
    X = sample_design(spec, np.random.default_rng(1))
    assert X.var() == pytest.approx(2.0, rel=0.08)


@pytest.mark.parametrize("variance_scale", [None, 2.0])
def test_iid_design_is_the_rng_normal_draw(variance_scale):
    # standard normals scaled in place: the same stream, bit for bit
    spec = DesignSpec(kind="iid_gaussian", n=300, p=70, variance_scale=variance_scale)
    X = sample_design(spec, np.random.default_rng(3))
    ref = np.random.default_rng(3).normal(0.0, np.sqrt(spec.scale), size=(300, 70))
    assert X.dtype == ref.dtype and X.tobytes() == ref.tobytes()


def test_bernoulli_design():
    spec = DesignSpec(kind="bernoulli_pm", n=100, p=30)
    X = sample_design(spec, np.random.default_rng(2))
    root = np.sqrt(1.0 / 100)
    assert set(np.round(np.unique(X), 12)) == {-round(root, 12), round(root, 12)}
    assert abs(X.mean()) < 3 * root / np.sqrt(3000)


def test_toeplitz_correlation():
    spec = DesignSpec(kind="correlated_gaussian", n=4000, p=6, rho=0.6)
    X = sample_design(spec, np.random.default_rng(3))
    corr = np.corrcoef(X, rowvar=False)
    lag1 = np.diag(corr, k=1)
    lag2 = np.diag(corr, k=2)
    assert lag1.mean() == pytest.approx(0.6, abs=0.03)
    assert lag2.mean() == pytest.approx(0.36, abs=0.04)


def test_equicorrelation():
    spec = DesignSpec(
        kind="correlated_gaussian", n=4000, p=6, rho=0.4, structure="equicorrelation"
    )
    X = sample_design(spec, np.random.default_rng(4))
    corr = np.corrcoef(X, rowvar=False)
    off = corr[~np.eye(6, dtype=bool)]
    assert off.mean() == pytest.approx(0.4, abs=0.03)


@pytest.mark.parametrize("structure", ["toeplitz", "equicorrelation"])
@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.99])
@pytest.mark.parametrize("n, p", [(30, 1), (20, 50), (80, 40)])
def test_correlated_design_matches_cholesky_draw(structure, rho, n, p):
    # the O(np) recursions see the same z as z @ U, so they agree to rounding,
    # and exactly at rho = 0, where U is sqrt(scale) I
    spec = DesignSpec(kind="correlated_gaussian", n=n, p=p, rho=rho, structure=structure)
    X = sample_design(spec, np.random.default_rng(17))
    ref = cholesky_design(spec, np.random.default_rng(17))
    if rho == 0.0:
        assert np.array_equal(X, ref)
    else:
        assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))


class _IdentityNormals:
    """Stands in for a generator: its "normal draw" is the identity, so
    sample_design returns the scaled upper factor U itself."""

    def standard_normal(self, shape):
        return np.eye(*shape)


def test_equicorrelation_near_singular():
    # at rho = 1 - 1e-12 the factor's tail entries are ~1e-6 next to c_0 ~ 1;
    # a running sum of c_i^2 would drift there, the closed form must not
    p, rho = 2000, 1.0 - 1e-12
    spec = DesignSpec(
        kind="correlated_gaussian", n=20, p=p, rho=rho, structure="equicorrelation"
    )
    assert np.all(np.isfinite(sample_design(spec, np.random.default_rng(5))))
    unit = dataclasses.replace(spec, n=p, variance_scale=1.0)
    upper = sample_design(unit, _IdentityNormals())
    assert np.array_equal(np.triu(upper), upper)
    # column j of U is (c_0, ..., c_{j-1}, d_j): unit norm, unit variances
    assert np.max(np.abs(np.einsum("ij,ij->j", upper, upper) - 1.0)) <= 1e-12
    # d_j^2 against the Cholesky recurrence in exact arithmetic: with
    # c_j d_j = d_j^2 - (1 - rho), d_{j+1}^2 = d_j^2 - (d_j^2 - (1 - rho))^2 / d_j^2
    q, dd, exact = 1 - Fraction(rho), Fraction(1), []
    for _ in range(p):
        exact.append(float(dd))
        dd -= (dd - q) ** 2 / dd
    assert np.allclose(np.diag(upper) ** 2, exact, rtol=1e-12, atol=0.0)


def test_design_validation():
    with pytest.raises(ValueError):
        DesignSpec(kind="unknown", n=10, p=10)
    with pytest.raises(ValueError):
        DesignSpec(kind="iid_gaussian", n=0, p=10)
    with pytest.raises(ValueError):
        DesignSpec(kind="correlated_gaussian", n=10, p=10, rho=1.0)
    with pytest.raises(ValueError):
        DesignSpec(kind="correlated_gaussian", n=10, p=10, rho=0.5, structure="banded")
    with pytest.raises(ValueError):
        DesignSpec(kind="genotype_file", n=10, p=10)
    with pytest.raises(ValueError):
        DesignSpec(kind="iid_gaussian", n=10, p=10, variance_scale=0.0)
    # a field the kind ignores would be echoed, never drawn
    for kind in ("iid_gaussian", "bernoulli_pm"):
        for name, value in (("rho", 0.5), ("structure", "equicorrelation"), ("path", "x.csv")):
            with pytest.raises(ValueError, match=f"{name} applies only to"):
                DesignSpec(kind=kind, n=10, p=10, **{name: value})
    # at its default it passes, as every output header writes rho and structure
    DesignSpec(kind="iid_gaussian", n=10, p=10, rho=0.0, structure="toeplitz")


def test_genotype_file_design(tmp_path):
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 3, size=(40, 7)).astype(float)
    fpath = tmp_path / "geno.csv"
    np.savetxt(fpath, raw, delimiter=",")
    mat = load_design_file(str(fpath))
    assert np.array_equal(mat, raw)
    spec = DesignSpec(kind="genotype_file", n=40, p=7, path=str(fpath))
    X = sample_design(spec, np.random.default_rng(6))
    assert X.shape == (40, 7)
    # columns centered and rescaled to unit norm under the 1/n convention
    assert np.max(np.abs(X.mean(axis=0))) < 1e-12
    assert np.linalg.norm(X, axis=0) == pytest.approx(np.ones(7), abs=1e-12)


def test_load_design_file_whitespace_and_errors(tmp_path):
    fpath = tmp_path / "mat.txt"
    fpath.write_text("1.0 2.0\n3.0 4.0\n")
    mat = load_design_file(str(fpath))
    assert mat.shape == (2, 2)
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 nan\n2.0 3.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_design_file(str(bad))


# --- coefficients ---------------------------------------------------------------


def test_fixed_coefficient_families():
    rng = np.random.default_rng(7)
    spec = CoefficientSpec(kind="geometric", p=10, magnitude=10.0, k=3)
    beta, support = sample_coefficients(spec, rng)
    assert beta[:3].tolist() == [1000.0, 100.0, 10.0]
    assert np.all(beta[3:] == 0.0)
    assert support.tolist() == [0, 1, 2]

    lin, _ = sample_coefficients(CoefficientSpec(kind="linear", p=6, k=4), rng)
    assert lin.tolist() == [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]

    eq, _ = sample_coefficients(CoefficientSpec(kind="equal", p=5, magnitude=7.0, k=2), rng)
    assert eq.tolist() == [7.0, 7.0, 0.0, 0.0, 0.0]

    lv, sup = sample_coefficients(
        CoefficientSpec(kind="fixed_levels", p=8, values=(5.0, 1.0), counts=(2, 3)), rng
    )
    assert lv.tolist() == [5.0, 5.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert sup.tolist() == [0, 1, 2, 3, 4]


def test_prior_sample_matches_binomial():
    prior = DiscretePrior.homogeneous(0.2, 1.0)
    spec = CoefficientSpec(kind="prior_sample", p=100000, prior=prior)
    beta, support = sample_coefficients(spec, np.random.default_rng(8))
    # support size is Binomial(1e5, 0.2): mean 20000, sd ~ 126.5
    assert abs(len(support) - 20000) < 4 * 126.5
    assert np.all(beta[support] == 1.0)
    assert np.all(np.delete(beta, support) == 0.0)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        CoefficientSpec(kind="unknown", p=5, k=1)
    with pytest.raises(ValueError):
        CoefficientSpec(kind="linear", p=5, k=0)
    with pytest.raises(ValueError):
        CoefficientSpec(kind="linear", p=5, k=6)
    with pytest.raises(ValueError):
        CoefficientSpec(kind="equal", p=5, k=2, magnitude=0.0)
    with pytest.raises(ValueError, match="overflows"):
        CoefficientSpec(kind="geometric", p=10, k=6, magnitude=1e60)
    with pytest.raises(ValueError, match="overflows"):
        CoefficientSpec(kind="geometric", p=400, k=301, magnitude=10.0)
    with pytest.raises(ValueError):
        CoefficientSpec(kind="fixed_levels", p=5, values=(1.0,), counts=(1, 2))
    with pytest.raises(ValueError):
        CoefficientSpec(kind="fixed_levels", p=5, values=(1.0, 2.0), counts=(3, 3))
    with pytest.raises(ValueError):
        CoefficientSpec(kind="prior_sample", p=5)
    for magnitude in (float("nan"), float("inf"), "2"):
        with pytest.raises(ValueError, match="finite"):
            CoefficientSpec(kind="equal", p=5, k=2, magnitude=magnitude)
    for value in (float("nan"), -float("inf"), "a"):
        with pytest.raises(ValueError, match="finite"):
            CoefficientSpec(kind="fixed_levels", p=5, values=(1.0, value), counts=(1, 1))
    # a field the kind ignores would be echoed, never drawn
    prior = DiscretePrior.homogeneous(0.2, 1.0)
    levels = dict(kind="fixed_levels", p=5, values=(1.0,), counts=(1,))
    for kwargs, name in (
        (dict(kind="linear", p=5, k=2, magnitude=3.0), "magnitude"),
        (dict(kind="linear", p=5, k=2, values=(1.0,)), "values"),
        (dict(kind="equal", p=5, k=2, magnitude=1.0, counts=(1,)), "counts"),
        (dict(kind="geometric", p=5, k=2, magnitude=2.0, prior=prior), "prior"),
        (dict(levels, magnitude=1.0), "magnitude"),
        (dict(levels, k=1), "k"),
        (dict(kind="prior_sample", p=5, prior=prior, k=1), "k"),
    ):
        with pytest.raises(ValueError, match=f"{name} applies only to"):
            CoefficientSpec(**kwargs)


# --- RNG streams ----------------------------------------------------------------


def test_replicate_rng_deterministic_and_distinct():
    a1, b1, c1 = replicate_rng(123, 7)
    a2, b2, c2 = replicate_rng(123, 7)
    for g1, g2 in ((a1, a2), (b1, b2), (c1, c2)):
        assert np.array_equal(g1.standard_normal(5), g2.standard_normal(5))
    # different replicate, seed, or tag gives different streams
    d1, _, _ = replicate_rng(123, 8)
    e1, _, _ = replicate_rng(124, 7)
    f1, _, _ = replicate_rng(123, 7, tag=1)
    base = replicate_rng(123, 7)[0].standard_normal(5)
    for g in (d1, e1, f1):
        assert not np.array_equal(g.standard_normal(5), base)


def test_common_random_numbers_across_settings():
    # the design stream depends only on (seed, tag, replicate), so two
    # experiments differing in coefficients draw identical designs
    spec = DesignSpec(kind="iid_gaussian", n=30, p=20)
    X1 = sample_design(spec, replicate_rng(9, 3)[0])
    X2 = sample_design(spec, replicate_rng(9, 3)[0])
    assert np.array_equal(X1, X2)


# --- grid interpolation -----------------------------------------------------------


def test_fdp_on_grid_step_semantics():
    tpp = [0.2, 0.5, 0.5, 0.8]
    fdp = [0.0, 0.1, 0.3, 0.25]
    grid = [0.1, 0.2, 0.5, 0.6, 0.9]
    out = fdp_on_grid(tpp, fdp, grid)
    # below every event -> 0; ties at the same TPP resolve to the latest event
    assert out.tolist() == [0.0, 0.0, 0.3, 0.3, 0.25]


def test_fdp_on_grid_empty_events():
    out = fdp_on_grid([], [], [0.3, 0.7])
    assert out.tolist() == [0.0, 0.0]


# --- experiment runners ------------------------------------------------------------


def _tiny_tradeoff_config(**overrides):
    base = dict(
        design=DesignSpec(kind="iid_gaussian", n=80, p=80),
        coefficients=CoefficientSpec(kind="equal", p=80, magnitude=10.0, k=15),
        sigma=0.25,
        replicates=3,
        seed=5,
        mode="tradeoff",
        tpp_grid=(0.2, 0.5, 0.8),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_tradeoff_experiment_shapes_and_determinism():
    config = _tiny_tradeoff_config()
    s1 = run_tradeoff_experiment(config)
    s2 = run_tradeoff_experiment(config)
    assert s1.n_ok == 3
    assert s1.tpp_grid == (0.2, 0.5, 0.8)
    assert s1.mean_fdp.shape == (3,)
    assert np.all((0.0 <= s1.mean_fdp) & (s1.mean_fdp <= 1.0))
    assert np.array_equal(s1.mean_fdp, s2.mean_fdp)
    assert np.array_equal(s1.se_fdp, s2.se_fdp)
    assert [r.replicate_id for r in s1.replicates] == [0, 1, 2]
    for r in s1.replicates:
        assert r.n_events > 0
        assert np.array_equal(
            r.grid_fdp, s2.replicates[r.replicate_id].grid_fdp
        )


def test_run_tradeoff_mode_check():
    config = _tiny_tradeoff_config()
    with pytest.raises(ValueError):
        run_rank_experiment(config)
    rank_cfg = dataclasses.replace(config, mode="rank", tpp_grid=())
    with pytest.raises(ValueError):
        run_tradeoff_experiment(rank_cfg)


@pytest.mark.parametrize("jobs", [0, -3, True, 2.0, "2"])
def test_jobs_must_be_a_positive_integer(jobs):
    config = _tiny_tradeoff_config()
    rank_cfg = dataclasses.replace(config, mode="rank", tpp_grid=())
    for run, cfg in ((run_tradeoff_experiment, config), (run_rank_experiment, rank_cfg)):
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            run(cfg, jobs=jobs)


def test_tradeoff_replicate_at_one_observation():
    # the path's size cap was min(n - 1, p, 2k + 64) = 0 at n = 1
    config = _tiny_tradeoff_config(
        design=DesignSpec(kind="iid_gaussian", n=1, p=5),
        coefficients=CoefficientSpec(kind="equal", p=5, magnitude=5.0, k=2),
        sigma=0.0,
        replicates=1,
        tpp_grid=(0.5,),
    )
    X, y, _ = _simulate_instance(config, 0)
    assert run_tradeoff_experiment(config).replicates[0].n_events == len(lasso_path(X, y).events)


def test_tradeoff_replicate_reruns_a_capped_path():
    # replicate 0's path, capped at 2k + 64 = 84 active variables, stops at
    # TPP 0.8 short of the top grid point 1.0 and is solved again in full
    config = _tiny_tradeoff_config(
        design=DesignSpec(kind="iid_gaussian", n=120, p=120),
        coefficients=CoefficientSpec(kind="equal", p=120, magnitude=1.0, k=10),
        sigma=1.0,
        replicates=1,
        tpp_grid=(0.5, 1.0),
    )
    X, y, support = _simulate_instance(config, 0)
    capped = lasso_path(X, y, max_active=84)
    assert capped.stopping_reason == "max_active"
    assert max(tpp for _, tpp, _ in tpp_fdp_along_path(capped, support)) < 1.0
    full = lasso_path(X, y)
    _, tpps, fdps = zip(*tpp_fdp_along_path(full, support))
    rep = run_tradeoff_experiment(config).replicates[0]
    assert rep.n_events == len(full.events) > len(capped.events)
    assert np.array_equal(rep.grid_fdp, fdp_on_grid(tpps, fdps, config.tpp_grid))


def test_sweeps_need_a_parameter_the_draw_uses():
    base = dict(
        design=DesignSpec(kind="iid_gaussian", n=30, p=30),
        sigma=0.0,
        replicates=1,
        seed=0,
        mode="rank",
    )
    prior = DiscretePrior.homogeneous(0.1, 2.0)
    for coefficients in (
        CoefficientSpec(kind="fixed_levels", p=30, values=(1.0, 2.0), counts=(1, 1)),
        CoefficientSpec(kind="prior_sample", p=30, prior=prior),
    ):
        # k = 0 is the default k, so only the kind check refuses it
        for values in ((2, 30), (0,)):
            with pytest.raises(ValueError, match="k sweep"):
                ExperimentConfig(
                    coefficients=coefficients, sweep_param="k", sweep_values=values, **base
                )
    linear = CoefficientSpec(kind="linear", p=30, k=2)
    with pytest.raises(ValueError, match="rho sweep"):
        ExperimentConfig(coefficients=linear, sweep_param="rho", sweep_values=(0.1, 0.5), **base)
    # a fractional k would run at its truncation under its own label
    with pytest.raises(ValueError, match=r"sweep_values\[0\] = 2.5 as coefficients.k: expected an"):
        ExperimentConfig(coefficients=linear, sweep_param="k", sweep_values=(2.5, 3), **base)
    # a rho sweep value outside [0, 1) would fail in every replicate
    correlated = {**base, "design": DesignSpec(kind="correlated_gaussian", n=30, p=30)}
    for value in (None, "a", 1.0, -0.1, float("nan"), True, False):
        with pytest.raises(ValueError, match=r"sweep_values\[1\] = .* as design.rho"):
            ExperimentConfig(
                coefficients=linear, sweep_param="rho", sweep_values=(0.5, value), **correlated
            )
    # equal values would share one row label, and the later block would
    # overwrite the earlier one in RankSummary.replicates
    for param, values, config in (
        ("rho", (0.1, 0.1, 0.5), correlated),
        ("k", (2, 2.0), base),
    ):
        with pytest.raises(ValueError, match="sweep_values must be distinct"):
            ExperimentConfig(coefficients=linear, sweep_param=param, sweep_values=values, **config)


@pytest.mark.parametrize(
    "param, values, design",
    [
        ("k", (2, 4.0), DesignSpec(kind="iid_gaussian", n=30, p=30)),
        ("rho", (0.0, 0.6), DesignSpec(kind="correlated_gaussian", n=30, p=30, rho=0.3)),
    ],
)
def test_a_sweep_value_runs_as_its_written_config(param, values, design):
    # value i's replicates are those of a config written with that value, at tag i
    base = dict(
        design=design,
        coefficients=CoefficientSpec(kind="linear", p=30, k=3),
        sigma=0.5,
        replicates=2,
        seed=21,
        mode="rank",
    )
    summary = run_rank_experiment(ExperimentConfig(sweep_param=param, sweep_values=values, **base))
    spec = "coefficients" if param == "k" else "design"
    for tag, value in enumerate(values):
        swept = dataclasses.replace(base[spec], **{param: type(getattr(base[spec], param))(value)})
        written = ExperimentConfig(**{**base, spec: swept})
        expected = [_rank_replicate(written, tag, rep) for rep in range(2)]
        assert summary.replicates[float(value)] == expected


def test_run_rank_experiment_sweep_k():
    config = ExperimentConfig(
        design=DesignSpec(kind="iid_gaussian", n=60, p=60),
        coefficients=CoefficientSpec(kind="linear", p=60, k=2),
        sigma=0.0,
        replicates=4,
        seed=11,
        mode="rank",
        sweep_param="k",
        sweep_values=(2, 4),
    )
    summary = run_rank_experiment(config)
    assert summary.sweep_param == "k"
    assert [row[0] for row in summary.rows] == [2.0, 4.0]
    assert set(summary.replicates) == {2.0, 4.0}
    for value, mean, median, q10, q90, n_cens in summary.rows:
        reps = summary.replicates[value]
        assert len(reps) == 4
        ranks = [r.rank for r in reps]
        assert all(rk >= 1 for rk in ranks)
        assert mean == pytest.approx(np.mean(ranks))
        assert median == pytest.approx(np.median(ranks))
        assert q10 <= median <= q90
        assert n_cens == sum(r.censored for r in reps)
        # censoring caps the rank at k + 1
        for r in reps:
            assert r.rank <= int(value) + 1
            if r.censored:
                assert r.rank == int(value) + 1


def test_run_rank_experiment_no_sweep_key():
    config = ExperimentConfig(
        design=DesignSpec(kind="iid_gaussian", n=50, p=50),
        coefficients=CoefficientSpec(kind="equal", p=50, magnitude=5.0, k=3),
        sigma=0.0,
        replicates=2,
        seed=12,
        mode="rank",
    )
    summary = run_rank_experiment(config)
    assert summary.sweep_param == ""
    assert [row[0] for row in summary.rows] == [3.0]
    assert set(summary.replicates) == {3.0}


def test_run_rank_experiment_sweep_rho():
    config = ExperimentConfig(
        design=DesignSpec(kind="correlated_gaussian", n=40, p=40, rho=0.0),
        coefficients=CoefficientSpec(kind="equal", p=40, magnitude=8.0, k=3),
        sigma=0.0,
        replicates=2,
        seed=13,
        mode="rank",
        sweep_param="rho",
        sweep_values=(0.0, 0.5),
    )
    summary = run_rank_experiment(config)
    assert [row[0] for row in summary.rows] == [0.0, 0.5]


def test_run_rank_experiment_rho_sweep_jobs_invariant():
    config = ExperimentConfig(
        design=DesignSpec(kind="correlated_gaussian", n=40, p=40, rho=0.0),
        coefficients=CoefficientSpec(kind="equal", p=40, magnitude=5.0, k=10),
        sigma=0.0,
        replicates=3,
        seed=7,
        mode="rank",
        sweep_param="rho",
        sweep_values=(0.0, 0.3, 0.6),
    )
    serial = run_rank_experiment(config, jobs=1)
    pooled = run_rank_experiment(config, jobs=2)
    assert pooled.rows == serial.rows
    for tag, value in enumerate((0.0, 0.3, 0.6)):
        assert pooled.replicates[value] == serial.replicates[value]
        assert [r.seed_key for r in serial.replicates[value]] == [(7, tag, r) for r in range(3)]
    # the sweep values draw different instances, so they must not all agree
    assert len({row[1:] for row in serial.rows}) > 1


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mode", ["tradeoff", "rank"])
def test_failed_replicates_abort_naming_every_key(tmp_path, mode, jobs):
    fpath = tmp_path / "geno.csv"
    np.savetxt(fpath, np.random.default_rng(8).integers(0, 3, size=(40, 7)), delimiter=",")
    config = ExperimentConfig(
        design=DesignSpec(kind="genotype_file", n=40, p=7, path=str(fpath)),
        coefficients=CoefficientSpec(kind="equal", p=7, magnitude=5.0, k=2),
        sigma=0.1,
        replicates=2,
        seed=9,
        mode=mode,
        tpp_grid=(0.5,) if mode == "tradeoff" else (),
        sweep_param="k" if mode == "rank" else "",
        sweep_values=(1, 2) if mode == "rank" else (),
    )
    fpath.unlink()  # every replicate now fails while sampling its design
    run = run_tradeoff_experiment if mode == "tradeoff" else run_rank_experiment
    with pytest.raises(RuntimeError) as info:
        run(config, jobs=jobs)
    tags = (0,) if mode == "tradeoff" else (0, 1)
    message = str(info.value)
    for tag in tags:
        for rep in range(2):
            assert str((9, tag, rep)) in message
    assert isinstance(info.value.__cause__, FileNotFoundError)


# --- JSON configs --------------------------------------------------------------------


def test_config_json_round_trip_exact():
    prior = DiscretePrior.from_levels(0.25, (2.0, 8.0), (0.5, 0.5))
    config = ExperimentConfig(
        design=DesignSpec(kind="correlated_gaussian", n=100, p=200, rho=0.5),
        coefficients=CoefficientSpec(kind="prior_sample", p=200, prior=prior),
        sigma=0.5,
        replicates=7,
        seed=42,
        mode="tradeoff",
        tpp_grid=(0.25, 0.5, 0.75),
    )
    assert config_from_json(config_to_json(config)) == config

    fixed = ExperimentConfig(
        design=DesignSpec(kind="iid_gaussian", n=50, p=50),
        coefficients=CoefficientSpec(kind="linear", p=50, k=10),
        sigma=0.0,
        replicates=3,
        seed=1,
        mode="rank",
        sweep_param="k",
        sweep_values=(5.0, 10.0),
    )
    assert config_from_json(config_to_json(fixed)) == fixed

    # a prior reads back exactly as written, through JSON text: 1 to 5 atoms
    # with random values and Dirichlet weights, as in acceptance criterion 9
    rng = np.random.default_rng(2020)
    for _ in range(1000):
        n_atoms = int(rng.integers(1, 6))
        values = rng.uniform(0.1, 100.0, n_atoms) * rng.choice([-1.0, 1.0], n_atoms)
        weights = rng.dirichlet(np.ones(n_atoms))
        prior = DiscretePrior.from_levels(rng.uniform(0.01, 0.99), values, weights)
        sampled = dataclasses.replace(
            config, coefficients=dataclasses.replace(config.coefficients, prior=prior)
        )
        assert config_from_json(json.dumps(config_to_json(sampled))) == sampled

    # JSON -> config -> JSON on the config echoed in each simulation golden's
    # header, compared as text so that an int and a float differ
    golden = Path(__file__).with_name("golden")
    paths = [*golden.glob("path*.csv"), golden / "simulate.csv", *golden.glob("rank_*.csv")]
    assert len(paths) == 6
    for path in paths:
        header = json.loads(path.read_text().splitlines()[1].removeprefix("# config: "))
        echoed = config_to_json(config_from_json(header["config"]))
        assert json.dumps(echoed, sort_keys=True) == json.dumps(header["config"], sort_keys=True)


_RANK_JSON = {
    "design": {"kind": "correlated_gaussian", "n": 30, "p": 30, "rho": 0.2},
    "coefficients": {"kind": "linear", "k": 3},
    "sigma": 0.5,
    "replicates": 2,
    "seed": 1,
    "mode": "rank",
}
_RANK_SWEEPS = (
    {"sweep_param": "rho", "sweep_values": [0.0, 0.3]},
    {"sweep_param": "k", "sweep_values": [2, 4]},
)
# where a value goes: a field of the config or of a spec, or one sweep value
_PLACES = [
    *((name,) for name in ("sigma", "replicates", "seed", "mode", "tpp_grid", "sweep_param")),
    ("sweep_values",),
    *(("design", name) for name in ("kind", "n", "p", "rho", "structure", "path")),
    ("design", "variance_scale"),
    *(("coefficients", name) for name in ("kind", "p", "k", "magnitude", "values", "counts")),
    ("coefficients", "prior"),
    ("sweep_values", 0),
    ("sweep_values", 1),
]
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 40),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "0.3", "2", "k", "rho", "linear", "toeplitz", "rank"]),
)


def _json_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same_json(held, given):
    """Whether a config holds ``given`` up to JSON number type: no JSON boolean,
    string, list or null turns into a number, nor the other way round."""
    if isinstance(given, list) or isinstance(held, tuple):
        return (
            isinstance(given, list)
            and isinstance(held, tuple)
            and len(held) == len(given)
            and all(map(_same_json, held, given))
        )
    if _json_number(given) or _json_number(held):
        return _json_number(given) and _json_number(held) and held == given
    return type(held) is type(given) and held == given


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    sweep=st.sampled_from(_RANK_SWEEPS),
    place=st.sampled_from(_PLACES),
    value=_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3),
)
def test_json_config_is_refused_or_held_as_given(sweep, place, value):
    # one field or sweep value of a valid rank config takes any JSON value:
    # either the config is refused, or it holds the value as given, reads
    # back unchanged from its JSON, and so does each of its settings
    obj = json.loads(json.dumps({**_RANK_JSON, **sweep}))
    *parents, last = place
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        config = config_from_json(obj)
    except ValueError:
        return
    held = config
    for key in place:
        held = held[key] if isinstance(key, int) else getattr(held, key)
    assert _same_json(held, value)
    assert config_from_json(config_to_json(config)) == config
    for _, setting in _settings(config):
        assert config_from_json(config_to_json(setting)) == setting


def test_config_from_json_string_and_defaults():
    config = config_from_json(
        '{"design": {"kind": "iid_gaussian", "n": 20, "p": 30},'
        ' "coefficients": {"kind": "equal", "magnitude": 2.0, "k": 4},'
        ' "tpp_grid": [0.5]}'
    )
    assert config.design.p == 30
    assert config.coefficients.p == 30  # inherits design.p
    assert config.mode == "tradeoff"
    assert config.replicates == 1


def test_config_from_json_error_reporting():
    with pytest.raises(ValueError, match="design"):
        config_from_json({"coefficients": {"kind": "equal", "k": 1, "p": 5}})
    with pytest.raises(ValueError, match="bogus"):
        config_from_json(
            {
                "design": {"kind": "iid_gaussian", "n": 5, "p": 5, "bogus": 1},
                "coefficients": {"kind": "equal", "magnitude": 1.0, "k": 1},
                "tpp_grid": [0.5],
            }
        )
    with pytest.raises(ValueError, match="typo_field"):
        config_from_json(
            {
                "design": {"kind": "iid_gaussian", "n": 5, "p": 5},
                "coefficients": {
                    "kind": "equal",
                    "magnitude": 1.0,
                    "k": 1,
                    "typo_field": 2,
                },
                "tpp_grid": [0.5],
            }
        )
    with pytest.raises(ValueError, match="replicate"):  # a typo is never ignored
        config_from_json(
            {
                "design": {"kind": "iid_gaussian", "n": 5, "p": 5},
                "coefficients": {"kind": "equal", "magnitude": 1.0, "k": 1},
                "tpp_grid": [0.5],
                "replicate": 20,
            }
        )
    with pytest.raises(ValueError, match="disagrees"):
        config_from_json(
            {
                "design": {"kind": "iid_gaussian", "n": 5, "p": 5},
                "coefficients": {"kind": "equal", "magnitude": 1.0, "k": 1, "p": 7},
                "tpp_grid": [0.5],
            }
        )
    # a config built in Python is held to the same rules
    with pytest.raises(ValueError, match="disagrees"):
        ExperimentConfig(
            design=DesignSpec(kind="iid_gaussian", n=5, p=5),
            coefficients=CoefficientSpec(kind="equal", p=7, magnitude=1.0, k=1),
            sigma=0.0,
            replicates=2,
            seed=0,
            mode="tradeoff",
            tpp_grid=(0.5,),
        )
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="seed"):
            _tiny_tradeoff_config(seed=seed)


def test_prior_from_json_kinds_and_errors():
    hom = prior_from_json({"kind": "homogeneous", "epsilon": 0.25, "magnitude": 3.0})
    assert hom.values.tolist() == [3.0]
    het = prior_from_json({"kind": "heterogeneous", "epsilon": 0.2, "m": 3, "base": 10.0})
    assert sorted(het.values.tolist()) == [10.0, 100.0, 1000.0]
    lv = prior_from_json({"kind": "levels", "epsilon": 0.2, "values": [1.0, 2.0]})
    assert len(lv.atoms) == 2
    # without a kind, an object holds DiscretePrior's own fields
    with pytest.raises(ValueError, match=r"unknown prior fields: \['epsilon'\]"):
        prior_from_json({"epsilon": 0.2})
    with pytest.raises(ValueError, match="unknown prior kind"):
        prior_from_json({"kind": "gaussian", "epsilon": 0.2})
    with pytest.raises(ValueError, match="missing field"):
        prior_from_json({"kind": "homogeneous", "epsilon": 0.2})
    # a recipe's fields are its constructor's parameters, read as config fields are
    assert prior_from_json(
        {"kind": "heterogeneous", "epsilon": 0.2, "m": 3.0, "base": 10}
    ) == DiscretePrior.heterogeneous(0.2, 3, 10.0)
    # one malformed field each, refused alone and inside a config
    config = {"design": {"kind": "iid_gaussian", "n": 20, "p": 20}, "tpp_grid": [0.5]}
    for bad in (
        {"kind": "homogeneous", "epsilon": 0.2, "magnitude": True},
        {"kind": "homogeneous", "epsilon": 0.2, "magnitude": "3"},
        {"kind": "heterogeneous", "epsilon": 0.2, "m": True, "base": 2.0},
        {"kind": "levels", "epsilon": 0.2, "values": "12"},
        {"kind": "levels", "epsilon": 0.2, "values": [1.0, 2.0], "weights": [True, 1]},
        {"kind": "levels", "epsilon": 0.2, "values": [1.0], "weight": [1.0]},
    ):
        with pytest.raises(ValueError, match=r"prior(\.| fields)"):
            prior_from_json(bad)
        with pytest.raises(ValueError, match="coefficients.prior: "):
            config_from_json({**config, "coefficients": {"kind": "prior_sample", "prior": bad}})
    # a missing epsilon takes the one given, a given one stays
    assert prior_from_json({"kind": "homogeneous", "magnitude": 3.0}, epsilon=0.25) == hom
    assert prior_from_json(
        {"kind": "homogeneous", "epsilon": 0.25, "magnitude": 3.0}, epsilon=0.5
    ) == hom
    # DiscretePrior's own fields, as config_to_json writes them
    assert config_to_json(het) == {
        "atoms": [(10.0, 0.2 / 3), (100.0, 0.2 / 3), (1000.0, 0.2 / 3)],
        "null_mass": 0.8,
    }
    assert prior_from_json(json.loads(json.dumps(config_to_json(lv)))) == lv
    for bad, message in (
        ({"atoms": [[1.0, 0.2]]}, "missing field 'null_mass'"),
        ({"atoms": [[1.0, 0.2, 0.1]], "null_mass": 0.8}, "expected a list of 2"),
        ({"atoms": [[True, 0.2]], "null_mass": 0.8}, "expected a number"),
        ({"atoms": [[1.0, 0.2]], "null_mass": "0.8"}, "expected a number"),
        ({"atoms": [[1.0, 0.2]], "null_mass": 0.8, "kinds": "levels"}, "unknown prior fields"),
    ):
        with pytest.raises(ValueError, match=message):
            prior_from_json(bad)
