"""Release acceptance suite: one test per criterion, numbered 1-10, and
criterion 6's band check repeated at delta = 0.5 next to the theory curve.

Each test prints a single ``criterion N: PASS`` line with the measured
margins (visible with ``pytest -rA`` or ``-s``); the pytest PASSED/FAILED
verdict per test is the machine-readable gate.

Criterion 8 is a known gap: at n = p = 1000 with 50 replicates the
median first-false-rank separation between the linear and the equal
coefficient ladders measures a factor of about 1.9, short of the
required 3.0, and the largest observed rank exceeds the 1.2*n/(2 log p)
+ 1 envelope.  The assertion is kept at full strength so the suite
reports the shortfall honestly instead of hiding it.
"""

import math
import time

import numpy as np
import pytest

from lassocrescent import (
    CoefficientSpec,
    DesignSpec,
    DiscretePrior,
    ExperimentConfig,
    ModelShape,
    cli,
    coefficients_at,
    excess_prob,
    lasso_path,
    mse_null,
    mse_signal,
    q_delta,
    q_nabla,
    residual_correlations,
    run_rank_experiment,
    run_tradeoff_experiment,
    soft_threshold,
    touching_points,
    tradeoff_at_tpp,
    tradeoff_curve,
)

from oracles import cd_lasso, quad_excess, quad_ms

SHAPE = ModelShape(delta=1.0, epsilon=0.2, sigma=0.0)
DESIGN_1000 = DesignSpec(kind="iid_gaussian", n=1000, p=1000)
MC_SEED = 20260815


def _read_table(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    columns = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return columns, rows


def _kkt_violation(X, y, beta, lam):
    c = residual_correlations(X, y, beta)
    worst = np.max(np.abs(c)) - lam
    active = np.abs(beta) > 1e-12
    if np.any(active):
        worst = max(worst, np.max(np.abs(c[active] - lam * np.sign(beta[active]))))
    return max(worst, 0.0)


def test_criterion_01_boundary_command(tmp_path):
    """`boundary --delta 1 --epsilon 0.2`: ordered boundaries in under 2 s."""
    out = tmp_path / "boundary.csv"
    t0 = time.perf_counter()
    rc = cli.main(
        ["boundary", "--delta", "1", "--epsilon", "0.2", "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0
    columns, rows = _read_table(out)
    assert columns == ["u", "t_delta", "q_delta", "varsigma", "t_nabla", "q_nabla"]
    assert len(rows) == 99
    u = np.array([float(r[0]) for r in rows])
    qd = np.array([float(r[2]) for r in rows])
    qn = np.array([float(r[5]) for r in rows])
    assert np.allclose(u, np.arange(1, 100) / 100.0)
    assert np.all(np.diff(qd) > 0)
    assert np.all(np.diff(qn) > 0)
    assert np.all(qd < qn)
    assert q_delta(0.0, SHAPE) == 0.0
    assert elapsed < 2.0
    print(
        "criterion 1: PASS — 99 grid points, both edges strictly increasing, "
        "q_delta < q_nabla throughout, q_delta(0) = 0, %.2fs" % elapsed
    )


def test_criterion_02_route_equivalence():
    """Single-magnitude priors at sigma = 0 reproduce the upper edge."""
    t0 = time.perf_counter()
    worst = 0.0
    for mag in (1.0, 10.0):
        prior = DiscretePrior.homogeneous(0.2, mag)
        for u in np.arange(0.05, 0.951, 0.05):
            _, q, _, _ = tradeoff_at_tpp(prior, SHAPE, float(u))
            worst = max(worst, abs(q - q_nabla(float(u), SHAPE)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 5.0
    print(
        "criterion 2: PASS — worst |curve - q_nabla| = %.2e over M in {1, 10}, "
        "%.2fs" % (worst, elapsed)
    )


def test_criterion_03_touching_points():
    """A 5-level ladder with 1000x gaps touches the lower edge 4 times."""
    pts = touching_points([0.2] * 5, SHAPE)
    interior = [(u, q) for u, q in pts if u < 1.0 - 1e-9]
    assert len(interior) == 4
    prior = DiscretePrior.heterogeneous(0.2, 5, 1000.0)
    gaps_at = []
    for u, _ in interior:
        _, q, _, _ = tradeoff_at_tpp(prior, SHAPE, u)
        gaps_at.append(q - q_delta(u, SHAPE))
    mids = [
        0.5 * (interior[i][0] + interior[i + 1][0]) for i in range(len(interior) - 1)
    ]
    mids.append(0.5 * (interior[-1][0] + 1.0))
    gaps_mid = []
    for u in mids:
        _, q, _, _ = tradeoff_at_tpp(prior, SHAPE, u)
        gaps_mid.append(q - q_delta(u, SHAPE))
    assert all(0.0 <= g <= 5e-3 for g in gaps_at)
    assert all(g >= 1e-3 for g in gaps_mid)
    print(
        "criterion 3: PASS — gap to lower edge <= %.2e at the 4 touching TPPs, "
        ">= %.2e midway between them" % (max(gaps_at), min(gaps_mid))
    )


def test_criterion_04_closed_forms_vs_quadrature():
    """mse_null / mse_signal / excess_prob vs adaptive quadrature, 50x50 grid."""
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 10.0, 50)
    als = np.linspace(0.05, 5.0, 50)
    worst = 0.0
    for a in als:
        worst = max(worst, abs(mse_null(a) - quad_ms(0.0, a)))
        for t in ts:
            worst = max(worst, abs(mse_signal(t, a) - quad_ms(t, a)))
            worst = max(worst, abs(excess_prob(t, a) - quad_excess(t, a)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(
        "criterion 4: PASS — worst |closed form - quadrature| = %.2e on the "
        "50x50 grid, %.1fs" % (worst, elapsed)
    )


def test_criterion_05_path_certificates():
    """100 random paths: KKT at 1e-8, coordinate descent at 1e-6, orthogonal at 1e-12."""
    rng = np.random.default_rng(MC_SEED)
    worst_kkt = worst_cd = 0.0
    for _ in range(100):
        n, p, k = 20, 10, 3
        X = rng.normal(size=(n, p)) / np.sqrt(n)
        beta = np.zeros(p)
        beta[rng.choice(p, size=k, replace=False)] = rng.normal(scale=3.0, size=k)
        y = X @ beta + 0.5 * rng.normal(size=n)
        path = lasso_path(X, y)
        for ev in path.events:
            beta_hat = coefficients_at(path, ev.lam)
            worst_kkt = max(worst_kkt, _kkt_violation(X, y, beta_hat, ev.lam))
        lam_lo = max(path.lambda_min_valid, 1e-3 * path.lambda_max)
        for lam in np.linspace(0.9 * path.lambda_max, 1.01 * lam_lo, 5):
            ours = coefficients_at(path, lam)
            ref = cd_lasso(X, y, lam)
            worst_cd = max(worst_cd, np.max(np.abs(ours - ref)))
    assert worst_kkt <= 1e-8
    assert worst_cd <= 1e-6

    X = np.eye(12)
    y = rng.normal(size=12)
    path = lasso_path(X, y, max_active=12)
    lams = [ev.lam for ev in path.events]
    probes = list(lams) + [0.5 * (a + b) for a, b in zip(lams[:-1], lams[1:])]
    worst_orth = max(
        np.max(np.abs(coefficients_at(path, lam) - soft_threshold(y, lam)))
        for lam in probes
    )
    assert worst_orth <= 1e-12
    print(
        "criterion 5: PASS — worst KKT violation %.2e, worst gap to coordinate "
        "descent %.2e, worst orthogonal gap %.2e" % (worst_kkt, worst_cd, worst_orth)
    )


def test_criterion_06_crescent_containment():
    """Averaged finite-n (TPP, FDP) stays inside the widened crescent band."""
    t0 = time.perf_counter()
    grid = tuple(np.round(np.arange(0.10, 0.901, 0.05), 2))
    arms = {
        "high": CoefficientSpec(
            kind="fixed_levels",
            p=1000,
            values=(1.0, 10.0, 100.0, 1000.0),
            counts=(50, 50, 50, 50),
        ),
        "moderate": CoefficientSpec(
            kind="fixed_levels", p=1000, values=(100.0, 50.0), counts=(100, 100)
        ),
        "low": CoefficientSpec(kind="equal", p=1000, magnitude=100.0, k=200),
    }
    lo_band = np.array([q_delta(g, SHAPE) for g in grid]) - 0.02
    hi_band = np.array([q_nabla(g, SHAPE) for g in grid]) + 0.02
    worst_margin = np.inf
    for name, coef in arms.items():
        config = ExperimentConfig(
            design=DESIGN_1000,
            coefficients=coef,
            sigma=0.0,
            replicates=20,
            seed=MC_SEED,
            mode="tradeoff",
            tpp_grid=grid,
        )
        summary = run_tradeoff_experiment(config)
        assert summary.n_ok == 20
        margin = min(
            np.min(summary.mean_fdp - lo_band), np.min(hi_band - summary.mean_fdp)
        )
        worst_margin = min(worst_margin, margin)
        assert np.all(summary.mean_fdp >= lo_band), f"{name} arm leaves band below"
        assert np.all(summary.mean_fdp <= hi_band), f"{name} arm leaves band above"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        "criterion 6: PASS — 3 heterogeneity levels x 20 replicates inside "
        "[q_delta - 0.02, q_nabla + 0.02]; worst margin %.4f, %.0fs"
        % (worst_margin, elapsed)
    )


def test_delta_half_inside_the_crescent_and_on_theory():
    """At delta = 0.5 (p > n) the averaged FDP stays inside the widened
    crescent band and within 5 SE + 0.001 of tradeoff_at_tpp."""
    shape = ModelShape(delta=0.5, epsilon=0.1, sigma=0.0)
    grid = tuple(np.round(np.arange(0.10, 0.601, 0.05), 2))
    levels = (1.0, 10.0, 100.0, 1000.0)
    arms = {
        "high": (
            CoefficientSpec(kind="fixed_levels", p=1000, values=levels, counts=(25,) * 4),
            DiscretePrior.from_levels(0.1, levels),
        ),
        "equal": (
            CoefficientSpec(kind="equal", p=1000, magnitude=100.0, k=100),
            DiscretePrior.homogeneous(0.1, 100.0),
        ),
    }
    lo_band = np.array([q_delta(g, shape) for g in grid]) - 0.02
    hi_band = np.array([q_nabla(g, shape) for g in grid]) + 0.02
    worst_z = 0.0
    for name, (coef, prior) in arms.items():
        config = ExperimentConfig(
            design=DesignSpec(kind="iid_gaussian", n=500, p=1000),
            coefficients=coef,
            sigma=0.0,
            replicates=20,
            seed=MC_SEED,
            mode="tradeoff",
            tpp_grid=grid,
        )
        summary = run_tradeoff_experiment(config)
        fdp, se = summary.mean_fdp, summary.se_fdp
        assert np.all(fdp >= lo_band), f"{name} arm leaves band below"
        assert np.all(fdp <= hi_band), f"{name} arm leaves band above"
        # over 24 seeds the largest deviation was 4.65 SE; where every
        # replicate reads FDP 0 the SE is 0 and the theory at most 6e-4
        theory = np.array([tradeoff_at_tpp(prior, shape, g)[1] for g in grid])
        assert np.all(np.abs(fdp - theory) <= 5.0 * se + 1e-3), f"{name} arm off theory"
        worst_z = max(worst_z, float(np.max(np.abs(fdp - theory)[se > 0] / se[se > 0])))
    print(
        "criterion 6 at delta = 0.5: PASS — 2 arms x 20 replicates inside the band "
        "and on theory, largest deviation %.2f SE" % worst_z
    )


def test_criterion_07_heterogeneity_ordering():
    """Mean FDP at matched TPP: weak ladder < moderate ladder < equal strengths."""
    grid = tuple(np.round(np.arange(0.30, 0.901, 0.05), 2))
    arm_specs = {
        "weak": CoefficientSpec(
            kind="fixed_levels",
            p=1000,
            values=tuple(np.geomspace(1.0, 100.0, 200)),
            counts=(1,) * 200,
        ),
        "moderate": CoefficientSpec(
            kind="fixed_levels",
            p=1000,
            values=tuple(np.geomspace(10**1.625, 10**2.375, 200)),
            counts=(1,) * 200,
        ),
        "strong": CoefficientSpec(kind="equal", p=1000, magnitude=1000.0, k=200),
    }
    mats = {}
    for name, coef in arm_specs.items():
        config = ExperimentConfig(
            design=DESIGN_1000,
            coefficients=coef,
            sigma=0.01,
            replicates=30,
            seed=MC_SEED,
            mode="tradeoff",
            tpp_grid=grid,
        )
        summary = run_tradeoff_experiment(config)
        mats[name] = np.vstack([r.grid_fdp for r in summary.replicates])
    # identical seeds pair the replicates, so compare mean paired differences
    d_mw = (mats["moderate"] - mats["weak"]).mean(axis=0)
    d_sm = (mats["strong"] - mats["moderate"]).mean(axis=0)
    assert np.all(d_mw > 0), f"moderate - weak min diff {d_mw.min():+.4f}"
    assert np.all(d_sm > 0), f"strong - moderate min diff {d_sm.min():+.4f}"
    print(
        "criterion 7: PASS — FDP ordering holds at all %d TPP grid points; "
        "min paired gaps %.4f (moderate - weak), %.4f (strong - moderate)"
        % (len(grid), d_mw.min(), d_sm.min())
    )


def test_criterion_08_rank_bound_and_separation():
    """First-false-rank envelope and 3x median separation (known shortfall)."""
    arms = {
        "linear": CoefficientSpec(kind="linear", p=1000, k=200),
        "equal": CoefficientSpec(kind="equal", p=1000, magnitude=100.0, k=200),
    }
    stats = {}
    for name, coef in arms.items():
        config = ExperimentConfig(
            design=DESIGN_1000,
            coefficients=coef,
            sigma=1.0,
            replicates=50,
            seed=MC_SEED,
            mode="rank",
        )
        summary = run_rank_experiment(config)
        ranks = np.array([r.rank for r in summary.replicates[200.0]], dtype=float)
        stats[name] = ranks
    bound = 1.2 * 1000 / (2 * math.log(1000)) + 1
    max_t = max(stats["linear"].max(), stats["equal"].max())
    med_lin = float(np.median(stats["linear"]))
    med_eq = float(np.median(stats["equal"]))
    print(
        "criterion 8: measured — max T %.0f vs envelope %.2f; medians "
        "linear %.1f / equal %.1f (ratio %.2f vs required 3.0)"
        % (max_t, bound, med_lin, med_eq, med_lin / med_eq)
    )
    assert max_t <= bound and med_lin >= 3.0 * med_eq, (
        "criterion 8: FAIL — max first-false rank %.0f vs envelope %.2f; "
        "median ratio %.2f below the required 3.0" % (max_t, bound, med_lin / med_eq)
    )
    print("criterion 8: PASS — all ranks inside the envelope, medians separated 3x")


def test_criterion_09_monotonicity_sweep():
    """50 random priors: TPP, FDP, and lambda(alpha) all strictly monotone."""
    rng = np.random.default_rng(MC_SEED)
    for i in range(50):
        n_atoms = int(rng.integers(1, 6))
        atoms = rng.uniform(0.1, 100.0, n_atoms)
        weights = rng.dirichlet(np.ones(n_atoms))
        eps = float(rng.uniform(0.05, 0.4))
        delta = float(rng.uniform(0.8, 2.0))
        sigma = float(rng.choice([0.0, 0.5]))
        shape = ModelShape(delta=delta, epsilon=eps, sigma=sigma)
        prior = DiscretePrior.from_levels(eps, tuple(atoms), tuple(weights))
        curve = tradeoff_curve(prior, shape, 30)
        assert np.all(np.diff(curve.tpp) > 0), f"prior {i}: tpp not increasing"
        assert np.all(np.diff(curve.fdp) > 0), f"prior {i}: fdp not increasing"
        order = np.argsort(curve.alpha)
        assert np.all(np.diff(curve.lam[order]) > 0), f"prior {i}: lambda not monotone"
    print("criterion 9: PASS — 50/50 random priors give strictly monotone curves")


def test_criterion_10_concavity():
    """Parametric (excess_prob, mse_signal) curve is concave for three alphas."""
    worst = -np.inf
    for a in (0.5, 1.0, 2.0):
        t = np.linspace(0.0, 5.0, 1000)
        x = excess_prob(t, a)
        y = mse_signal(t, a)
        dd = np.diff(np.diff(y) / np.diff(x))
        worst = max(worst, float(dd.max()))
    assert worst <= 0.0
    print(
        "criterion 10: PASS — max second divided difference %.2e (<= 0, no slack)"
        % worst
    )
