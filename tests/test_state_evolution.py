"""Calibration fixed point, feasibility limits, and trade-off curves."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lassocrescent import (
    ConvergenceError,
    DiscretePrior,
    InfeasibleRegionError,
    ModelShape,
    StateEvolutionPoint,
    admissible_alpha_lower,
    alpha_min,
    crescent,
    equation_residuals,
    excess_prob,
    lambda_of_alpha,
    mse_null,
    mse_signal,
    noiseless_alpha_floor,
    normal_cdf,
    normal_pdf,
    q_delta,
    q_nabla,
    soft_threshold,
    solve_alpha_given_lambda,
    solve_tau_given_alpha,
    t_delta,
    t_nabla,
    touching_points,
    tradeoff_at_tpp,
    tradeoff_curve,
    tradeoff_point,
    u_star,
    varsigma,
)
from lassocrescent.state_evolution import _CurveSolver

from oracles import (
    alpha_min_scan,
    eps_star,
    exceedance,
    fixed_point_tau,
    mp_alpha_min,
    mp_noiseless_floor,
)

SHAPE = ModelShape(delta=1.0, epsilon=0.2, sigma=0.0)
PRIOR1 = DiscretePrior.homogeneous(0.2, 1.0)


# --- prior construction -----------------------------------------------------


def test_prior_constructors():
    p = DiscretePrior.homogeneous(0.2, 3.0)
    assert p.epsilon == pytest.approx(0.2)
    assert p.values.tolist() == [3.0]
    assert p.probs.tolist() == [pytest.approx(0.2)]
    assert p.second_moment() == pytest.approx(0.2 * 9.0)

    h = DiscretePrior.heterogeneous(0.3, 3, 10.0)
    assert sorted(h.values.tolist()) == [10.0, 100.0, 1000.0]
    assert np.allclose(h.probs, 0.1)

    lv = DiscretePrior.from_levels(0.5, (1.0, 2.0), (0.25, 0.75))
    assert lv.null_mass == pytest.approx(0.5)
    assert lv.second_moment() == pytest.approx(0.5 * (0.25 * 1 + 0.75 * 4))
    # uniform weights by default
    lu = DiscretePrior.from_levels(0.4, (1.0, 2.0))
    assert np.allclose(lu.probs, 0.2)


def test_prior_validation():
    with pytest.raises(ValueError):
        DiscretePrior.from_levels(0.2, ())
    with pytest.raises(ValueError):
        DiscretePrior.from_levels(0.2, (0.0,))  # zero atom
    with pytest.raises(ValueError):
        DiscretePrior.from_levels(0.2, (1.0, 1.0))  # duplicate atoms
    with pytest.raises(ValueError):
        DiscretePrior.from_levels(1.2, (1.0,))  # negative null mass
    with pytest.raises(ValueError):
        DiscretePrior.from_levels(0.2, (1.0, 2.0), (0.5,))  # length mismatch
    with pytest.raises(ValueError):
        DiscretePrior.from_levels(0.2, (1.0, 2.0), (0.5, -0.5))  # negative weight
    with pytest.raises(ValueError):
        DiscretePrior.heterogeneous(0.2, 0, 10.0)
    with pytest.raises(ValueError, match="overflows"):
        DiscretePrior.heterogeneous(0.2, 500, 10.0)


def test_heterogeneous_prior_refuses_a_bad_ladder_before_building_it():
    # a ladder the atom checks would refuse is refused in O(1): at m = 10**6
    # the atom list took 5.7 s and 193 MB before its duplicates were found
    for base, message in ((1.0, "distinct"), (10.0, "overflows")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                DiscretePrior.heterogeneous(0.2, 10**6, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # at the edges, the same messages as the atom checks
    for base, m, message in ((0.0, 1, "nonzero"), (-1.0, 3, "distinct"),
                             (0.5, 1075, "nonzero"), (-10.0, 309, "overflows")):
        with pytest.raises(ValueError, match=message):
            DiscretePrior.heterogeneous(0.2, m, base)
    assert len(DiscretePrior.heterogeneous(0.2, 2, -1.0).atoms) == 2
    assert DiscretePrior.heterogeneous(0.2, 1074, 0.5).values[-1] == 5e-324
    assert DiscretePrior.heterogeneous(0.2, 308, -10.0).values[-1] == 1e308


def test_prior_accepts_a_million_equal_masses():
    # a plain left-to-right sum of 10**6 masses of 2e-7 drifts 3.7e-12 from 1
    m = 10**6
    prior = DiscretePrior(atoms=tuple((float(i), 0.2 / m) for i in range(1, m + 1)), null_mass=0.8)
    assert len(prior.atoms) == m


def test_shape_validation():
    with pytest.raises(ValueError):
        ModelShape(delta=0.0, epsilon=0.2, sigma=0.0)
    with pytest.raises(ValueError):
        ModelShape(delta=1.0, epsilon=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        ModelShape(delta=1.0, epsilon=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        ModelShape(delta=1.0, epsilon=0.2, sigma=-0.1)


# --- feasibility limits -----------------------------------------------------


def test_alpha_min():
    assert alpha_min(ModelShape(delta=1.0, epsilon=0.2)) == 0.0
    assert alpha_min(ModelShape(delta=2.0, epsilon=0.2)) == 0.0
    a = alpha_min(ModelShape(delta=0.5, epsilon=0.2))
    assert a == pytest.approx(0.40523380736278747, abs=1e-12)
    assert a == pytest.approx(alpha_min_scan(0.5), abs=1e-10)
    # defining identity: the null risk exhausts the whole budget there
    assert mse_null(a) == pytest.approx(0.5, abs=1e-12)


def test_noiseless_alpha_floor():
    f = noiseless_alpha_floor(SHAPE)
    assert f == pytest.approx(1.9880129083375568, abs=1e-10)
    # largest root of (1-eps) mse_null(a) + eps (1 + a^2) = delta
    val = 0.8 * mse_null(f) + 0.2 * (1.0 + f * f)
    assert val == pytest.approx(1.0, abs=1e-10)
    # root is the largest: above the floor the left side drops below delta
    above = 0.8 * mse_null(f + 0.1) + 0.2 * (1.0 + (f + 0.1) ** 2)
    assert above > 1.0

    sh_b = ModelShape(delta=0.8, epsilon=1.0 / 6.0, sigma=0.0)
    prior_b = DiscretePrior.homogeneous(1.0 / 6.0, 1.0)
    assert noiseless_alpha_floor(sh_b) == pytest.approx(1.9311886718745748, abs=1e-10)
    assert alpha_min(sh_b) == pytest.approx(0.1366001655354425, abs=1e-10)
    assert admissible_alpha_lower(prior_b, sh_b) == pytest.approx(
        1.9311886718745748, abs=1e-10
    )
    # with noise the floor no longer binds
    sh_noisy = ModelShape(delta=0.8, epsilon=1.0 / 6.0, sigma=0.5)
    assert admissible_alpha_lower(prior_b, sh_noisy) == pytest.approx(
        alpha_min(sh_noisy), abs=1e-12
    )

    # a floor above 60: mse_null underflows to 0 there, so the floor is
    # sqrt(delta/eps - 1)
    f = noiseless_alpha_floor(ModelShape(delta=4.0, epsilon=1e-3, sigma=0.0))
    assert f == pytest.approx(math.sqrt(3999.0), rel=1e-12)
    above = f + np.geomspace(1e-6, f, 30)
    assert np.all(0.999 * mse_null(above) + 1e-3 * (1.0 + above**2) > 4.0)
    # eps below ~1e-14 delta, where eps (1 + delta/eps) - delta rounds to <= 0:
    # the floor is still sqrt(delta/eps - 1)
    for delta, eps in ((1.0, 1e-16), (4.0, 3e-16), (10.0, 1e-15)):
        f = noiseless_alpha_floor(ModelShape(delta=delta, epsilon=eps, sigma=0.0))
        assert f == pytest.approx(math.sqrt(delta / eps - 1.0), rel=1e-15)
    # where delta/eps overflows the floor is not a finite double
    with pytest.raises(ConvergenceError):
        noiseless_alpha_floor(ModelShape(delta=4.0, epsilon=1e-310, sigma=0.0))



def test_noiseless_floor_just_below_the_phase_transition():
    # just below eps*, N's negative window is narrower than the floor's
    # 0.025 grid step; the floor was then read as 0, u_star came out above 1
    # and the homogeneous curve refused every alpha
    for delta in (0.1, 0.3, 0.9):
        es = eps_star(delta)
        for j in (3, 4, 5, 6):
            eps = (1.0 - 10.0**-j) * es
            shape = ModelShape(delta=delta, epsilon=eps)
            f = noiseless_alpha_floor(shape)
            assert f > 0.0
            assert abs((1.0 - eps) * mse_null(f) + eps * (1.0 + f * f) - delta) <= 1e-12
            assert u_star(shape) <= 1.0
            tradeoff_curve(DiscretePrior.homogeneous(eps, 1.0), shape, 5)
            # just above eps*, N > 0 everywhere and the floor is 0
            above = ModelShape(delta=delta, epsilon=(1.0 + 10.0**-j) * es)
            assert noiseless_alpha_floor(above) == 0.0


def test_floor_and_alpha_min_match_the_40_digit_oracle():
    # Each root is solved to full double precision, so it is good to
    # K eps cond, eps = 2^-52: cond = S / |x f'(x)| is the root's relative
    # condition number, with S the sum of the magnitudes of f's terms before
    # they cancel, those of mse_null(a) = 2(1 + a^2) Phi(-a) - 2 a phi(a)
    # among them.  A recorded sweep (80 shapes for the floor, 40 deltas in
    # (0.05, 1) for alpha_min) gave K <= 1.28 and K <= 1.31; K = 4 leaves
    # three times that.  Solved to 1e-13 absolute instead, the floor at
    # (1, 0.2) had K = 34.7 and alpha_min at delta = 0.8 had K = 15.8.
    def null_terms(a):
        return 2.0 * (1.0 + a * a) * normal_cdf(-a) + 2.0 * a * normal_pdf(a)

    def null_slope(a):
        return -4.0 * (normal_pdf(a) - a * normal_cdf(-a))

    def assert_within(x, exact, scale, slope):
        assert abs(float((x - exact) / exact)) <= 4.0 * 2.0**-52 * scale / abs(x * slope)

    for delta, eps in ((1.0, 0.2), (1.2486802634988499, 0.20443735341579522)):
        x = noiseless_alpha_floor(ModelShape(delta=delta, epsilon=eps))
        scale = (1.0 - eps) * null_terms(x) + eps * (1.0 + x * x) + delta
        slope = 2.0 * eps * x + (1.0 - eps) * null_slope(x)
        assert_within(x, mp_noiseless_floor(delta, eps), scale, slope)
    x = alpha_min(ModelShape(delta=0.8, epsilon=0.1))
    assert_within(x, mp_alpha_min(0.8), null_terms(x) + 0.8, null_slope(x))


# --- calibration at fixed alpha ---------------------------------------------


def test_tau_homogeneous_frozen_and_oracle():
    tau = solve_tau_given_alpha(PRIOR1, 2.0, SHAPE)
    assert tau == pytest.approx(0.23902616774600902, abs=1e-12)
    oracle = fixed_point_tau([1.0], [0.2], 0.8, 2.0, 1.0, 0.0)
    assert tau == pytest.approx(oracle, abs=1e-8)
    lam = lambda_of_alpha(PRIOR1, 2.0, SHAPE)
    assert lam == pytest.approx(0.3664264662786521, abs=1e-12)
    lam_oracle = (1.0 - exceedance([1.0], [0.2], 0.8, 2.0, tau) / 1.0) * 2.0 * tau
    assert lam == pytest.approx(lam_oracle, abs=1e-10)


def test_tau_noisy_frozen_and_oracle():
    prior = DiscretePrior.homogeneous(0.2, 4.0)
    shape = ModelShape(delta=1.0, epsilon=0.2, sigma=0.25)
    tau = solve_tau_given_alpha(prior, 1.5, shape)
    assert tau == pytest.approx(0.44653909285203225, abs=1e-12)
    oracle = fixed_point_tau([4.0], [0.2], 0.8, 1.5, 1.0, 0.25)
    assert tau == pytest.approx(oracle, abs=1e-8)
    lam = lambda_of_alpha(prior, 1.5, shape)
    assert lam == pytest.approx(0.46425004650105495, abs=1e-12)


def test_tau_negligible_signal_matches_null_closed_form():
    # an atom far below noise scale behaves like no signal at all, where the
    # fixed point is solvable by hand: tau^2 = sigma^2 + tau^2 mse_null / delta
    prior = DiscretePrior.from_levels(0.2, (1e-300,))
    shape = ModelShape(delta=1.0, epsilon=0.2, sigma=0.5)
    tau = solve_tau_given_alpha(prior, 2.0, shape)
    expected = 0.5 / np.sqrt(1.0 - mse_null(2.0) / 1.0)
    assert tau == pytest.approx(expected, rel=1e-10)


def test_tau_overflowing_second_moment():
    # atoms past ~1e154 overflow E[Pi^2]; the starting point must still be a
    # positive theta.  With sigma = 0 the curve is scale-free in the atoms.
    huge = tradeoff_curve(DiscretePrior.homogeneous(0.2, 1e200), SHAPE, 5)
    ref = tradeoff_curve(DiscretePrior.homogeneous(0.2, 1e15), SHAPE, 5)
    np.testing.assert_allclose(huge.tpp, ref.tpp, rtol=1e-9)
    np.testing.assert_allclose(huge.fdp, ref.fdp, rtol=1e-9)
    np.testing.assert_allclose(huge.tau, ref.tau * 1e185, rtol=1e-9)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    log_atoms=st.lists(st.floats(math.log(1e-3), math.log(1e15)), min_size=1, max_size=3),
    sigma=st.floats(0.0, 2.0),
    delta=st.floats(0.2, 3.0),
    epsilon=st.floats(0.05, 0.5),
    log10_gap=st.floats(-12.0, 1.0),
)
def test_tau_solve_returns_root_or_raises(log_atoms, sigma, delta, epsilon, log10_gap):
    # atoms from 1e-3 to 1e15, alpha just above to well above the admissible
    # lower bound: either a root that passes the residual check or a clean error
    prior = DiscretePrior.from_levels(epsilon, sorted({math.exp(x) for x in log_atoms}))
    shape = ModelShape(delta=delta, epsilon=epsilon, sigma=sigma)
    alpha = admissible_alpha_lower(prior, shape) + 10.0**log10_gap
    try:
        tau = solve_tau_given_alpha(prior, alpha, shape)
    except (InfeasibleRegionError, ConvergenceError):
        return
    r1, _ = equation_residuals(prior, StateEvolutionPoint(alpha, tau, 0.0, shape))
    assert abs(r1) <= 1e-10


def test_tau_solve_past_square_overflow_raises_convergence_error():
    # theta * atom ~ 5e154 squares to inf; the zero tail it multiplies used
    # to make a nan that brentq reported as invalid input (ValueError)
    prior = DiscretePrior.from_levels(0.565, [9.78e103])
    shape = ModelShape(delta=1.32e262, epsilon=0.565, sigma=1.6e-298)
    alpha = admissible_alpha_lower(prior, shape) + 3.4e-8
    with pytest.raises(ConvergenceError), np.errstate(over="ignore"):
        solve_tau_given_alpha(prior, alpha, shape)


def test_equation_residuals_vanish_at_solution():
    pt = solve_alpha_given_lambda(PRIOR1, 0.5, SHAPE)
    r1, r2 = equation_residuals(PRIOR1, pt)
    assert abs(r1) < 1e-10
    assert abs(r2) < 1e-10


def test_equation_residuals_checks_point():
    for alpha in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            equation_residuals(PRIOR1, StateEvolutionPoint(alpha, 0.7, 0.3, SHAPE))
    with pytest.raises(ValueError):
        equation_residuals(PRIOR1, StateEvolutionPoint(2.5, math.nan, 0.3, SHAPE))
    with pytest.raises(ValueError, match="lam"):  # a nan residual at the parent
        equation_residuals(PRIOR1, StateEvolutionPoint(2.5, 0.7, math.nan, SHAPE))


def test_equation_residuals_rejects_nonpositive_tau():
    # tau = 0 used to divide by zero; tau < 0 and tau = inf returned numbers
    for tau in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="tau"):
            equation_residuals(PRIOR1, StateEvolutionPoint(2.5, tau, 0.3, SHAPE))


def test_equation_residuals_overflow_to_inf():
    # (sigma * theta)^2 overflows: inf, not OverflowError
    point = StateEvolutionPoint(2.5, 1.0, 0.3, ModelShape(delta=1.0, epsilon=0.2, sigma=1e200))
    r1, _ = equation_residuals(PRIOR1, point)
    assert r1 == math.inf


def test_equation_residuals_where_theta_overflows():
    # theta * atom = inf, or theta = 1/tau = inf at sigma = 0, made nan residuals:
    # the risk of an atom at +-inf is its limit 1 + alpha^2
    expected = 0.8 * mse_null(1.0) + 0.2 * 2.0 - 1.0
    for prior, tau in ((DiscretePrior.homogeneous(0.2, -1e300), 1e-100), (PRIOR1, 5e-324)):
        with np.errstate(over="ignore"):
            r1, _ = equation_residuals(prior, StateEvolutionPoint(1.0, tau, 0.3, SHAPE))
        assert r1 == pytest.approx(expected, rel=1e-15)


def test_integer_alpha_matches_float():
    # entry points pass alpha on as a float: an integer squared inside the
    # kernels would overflow int64 past alpha ~ 3e9
    noisy = ModelShape(delta=1.0, epsilon=0.2, sigma=0.5)
    for alpha in (3, 4_000_000_000):
        assert solve_tau_given_alpha(PRIOR1, alpha, noisy) == solve_tau_given_alpha(
            PRIOR1, float(alpha), noisy
        )
        assert varsigma(alpha, SHAPE) == varsigma(float(alpha), SHAPE)


def test_infeasible_alpha_messages():
    # below the null-risk cut (delta < 1 so alpha_min > 0)
    with pytest.raises(InfeasibleRegionError, match="alpha_min"):
        solve_tau_given_alpha(
            DiscretePrior.homogeneous(0.2, 1.0), 0.2, ModelShape(delta=0.5, epsilon=0.2)
        )
    # noiseless floor binds even when alpha_min = 0
    with pytest.raises(InfeasibleRegionError, match="noiseless floor 1.988013"):
        solve_tau_given_alpha(PRIOR1, 1.2, SHAPE)
    # the same alpha is fine once there is noise
    noisy = ModelShape(delta=1.0, epsilon=0.2, sigma=0.5)
    assert solve_tau_given_alpha(PRIOR1, 1.2, noisy) > 0


def test_sparsity_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_tau_given_alpha(
            DiscretePrior.homogeneous(0.3, 1.0), 2.0, SHAPE
        )


# --- lambda -> alpha inversion ----------------------------------------------


def test_solve_alpha_given_lambda_roundtrip():
    pt = solve_alpha_given_lambda(PRIOR1, 0.5, SHAPE)
    assert pt.alpha == pytest.approx(2.0890478196352578, abs=1e-10)
    assert lambda_of_alpha(PRIOR1, pt.alpha, SHAPE) == pytest.approx(0.5, abs=1e-10)
    assert pt.lam == pytest.approx(0.5, abs=1e-10)
    assert pt.tau == pytest.approx(solve_tau_given_alpha(PRIOR1, pt.alpha, SHAPE), abs=1e-12)
    # lambda(alpha) stays above 0.21 just over the floor, so the gap to the
    # floor has to shrink once before it brackets the root
    pt = solve_alpha_given_lambda(PRIOR1, 0.21, SHAPE)
    assert pt.alpha == pytest.approx(1.9880129666251494, abs=1e-12)
    assert pt.tau == pytest.approx(0.13852581835734687, abs=1e-12)
    assert all(abs(r) < 1e-10 for r in equation_residuals(PRIOR1, pt))


def test_solve_alpha_given_lambda_validation():
    with pytest.raises(ValueError):
        solve_alpha_given_lambda(PRIOR1, 0.0, SHAPE)
    with pytest.raises(ValueError):
        solve_alpha_given_lambda(PRIOR1, -1.0, SHAPE)
    with pytest.raises(InfeasibleRegionError, match="achievable"):
        solve_alpha_given_lambda(PRIOR1, 1e30, SHAPE)
    # lambda stays near 0.16 as alpha falls to the noiseless floor
    with pytest.raises(InfeasibleRegionError, match="below the achievable"):
        solve_alpha_given_lambda(PRIOR1, 1e-4, SHAPE)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(delta=st.floats(1.0, 4.0), eps=st.floats(0.02, 0.6))
@example(delta=1.2486802634988499, eps=0.20443735341579522)  # N(floor) <= 0 in double
def test_solve_alpha_given_lambda_below_reach_at_the_floor(delta, eps):
    # tau falls to 0 only slowly as alpha falls to the noiseless floor, and
    # lambda stays far above 1e-7 down to the resolution of alpha, where the
    # walk to the floor stops: 1e-7 is below the achievable range.  A walk
    # that reached the floor itself, where N may round to <= 0, raised
    # "at or below the noiseless floor" from the tau solve instead.
    prior = DiscretePrior.homogeneous(eps, 1.0)
    with pytest.raises(InfeasibleRegionError, match="below the achievable"):
        solve_alpha_given_lambda(prior, 1e-7, ModelShape(delta=delta, epsilon=eps))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    delta=st.floats(0.2, 4.0),
    ratio=st.floats(0.02, 0.6),
    sigma=st.sampled_from([0.0, 0.5]),
    rungs=st.integers(1, 4),
    base=st.floats(1.5, 5.0),
    gap=st.floats(-4.0, 0.5).map(lambda e: 10.0**e),
)
@example(delta=0.5, ratio=0.4, sigma=0.0, rungs=1, base=1.5, gap=1e-3)  # the cut binds
@example(delta=0.5, ratio=0.2, sigma=0.5, rungs=3, base=2.0, gap=1e-3)  # here too
def test_solve_alpha_given_lambda_returns_calibrated_points(
    delta, ratio, sigma, rungs, base, gap
):
    # the penalty at a threshold above the curve solver's alpha_lo inverts to
    # a point that solves both calibration equations.  Within ~1e-5 of the
    # noiseless floor lambda(alpha) is steep enough that an alpha good to a
    # few ulps leaves a lambda residual past 1e-10.
    eps = ratio * min(delta, 1.0)
    prior = DiscretePrior.heterogeneous(eps, rungs, base)
    shape = ModelShape(delta=delta, epsilon=eps, sigma=sigma)
    lam = lambda_of_alpha(prior, _CurveSolver(prior, shape).alpha_lo + gap, shape)
    point = solve_alpha_given_lambda(prior, lam, shape)
    assert max(map(abs, equation_residuals(prior, point))) <= 1e-10


# --- asymptotic trade-off ---------------------------------------------------


def test_tradeoff_point_frozen():
    u, q = tradeoff_point(PRIOR1, 2.0, SHAPE)
    assert u == pytest.approx(0.9855057310771503, abs=1e-12)
    assert q == pytest.approx(0.15588864892657198, abs=1e-12)


def test_tradeoff_point_heterogeneous_oracle():
    prior = DiscretePrior.heterogeneous(0.2, 5, 1000.0)
    tau = solve_tau_given_alpha(prior, 2.0, SHAPE)
    assert tau == pytest.approx(286.1935930975694, rel=1e-10)
    u, q = tradeoff_point(prior, 2.0, SHAPE)
    assert u == pytest.approx(0.986486056874014, abs=1e-9)
    assert q == pytest.approx(0.155757863004886, abs=1e-9)
    # independent route: damped fixed point + Gaussian tail sums
    levels = [1000.0**i for i in range(1, 6)]
    probs = [0.04] * 5
    tau_o = fixed_point_tau(levels, probs, 0.8, 2.0, 1.0, 0.0, tau0=300.0)
    assert tau == pytest.approx(tau_o, rel=1e-9)
    # u averages the per-atom exceedance over the five signal levels
    u_o = np.mean([exceedance([lv], [1.0], 0.0, 2.0, tau_o) for lv in levels])
    assert u == pytest.approx(u_o, abs=1e-9)


def test_tradeoff_at_tpp_frozen():
    u, q, alpha, tau = tradeoff_at_tpp(PRIOR1, SHAPE, 0.5)
    assert u == pytest.approx(0.5, abs=1e-12)
    assert q == pytest.approx(0.07817317509324148, abs=1e-10)
    assert alpha == pytest.approx(2.5556060146515596, abs=1e-9)
    assert tau == pytest.approx(0.39129668315427873, abs=1e-9)
    # consistency: the returned (alpha, tau) reproduce the requested TPP
    u_back, q_back = tradeoff_point(PRIOR1, alpha, SHAPE)
    assert u_back == pytest.approx(0.5, abs=1e-9)
    assert q_back == pytest.approx(q, abs=1e-9)
    # a low TPP needs the upper alpha end grown past its starting point;
    # the homogeneous prior's curve is the crescent's upper edge
    u, q, alpha, tau = tradeoff_at_tpp(PRIOR1, SHAPE, 1e-3)
    assert u == pytest.approx(1e-3, abs=1e-15)
    assert q == pytest.approx(0.0004002340294054955, abs=1e-15)
    assert alpha == pytest.approx(5.32654485400956, abs=1e-12)
    assert tau == pytest.approx(0.44716468678214233, abs=1e-12)
    assert alpha == pytest.approx(t_nabla(1e-3, SHAPE)[0], abs=1e-9)


def test_tradeoff_at_tpp_out_of_range():
    # the noiseless TPP rises to 1 at the noiseless floor: levels up to 1 solve
    floor = noiseless_alpha_floor(SHAPE)
    for tpp in (1.0 - 1e-9, 1.0):
        u, _, alpha, _ = tradeoff_at_tpp(PRIOR1, SHAPE, tpp)
        assert u == pytest.approx(tpp, abs=1e-12)
        assert floor < alpha < floor + 1e-9
    for tpp in (1.0 + 1e-6, 0.0):
        with pytest.raises(InfeasibleRegionError):
            tradeoff_at_tpp(PRIOR1, SHAPE, tpp)
    # at (0.5, 0.2) the curve ends at TPP 0.976631, where the penalty reaches 0
    with pytest.raises(InfeasibleRegionError, match="penalty reaches 0"):
        tradeoff_at_tpp(PRIOR1, ModelShape(delta=0.5, epsilon=0.2), 0.98)
    # a non-finite level is invalid input, not an infeasible one
    for tpp in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tpp"):
            tradeoff_at_tpp(PRIOR1, SHAPE, tpp)


def test_feasible_alpha_lo_grows_to_positive_penalty():
    # no prior found so far has a nonpositive penalty at max(2 alpha, 1), so
    # the upward walk is driven by a stand-in penalty with its root at 5
    solver = _CurveSolver(PRIOR1, SHAPE)
    solver.lam = lambda a: a - 5.0
    assert solver.feasible_alpha_lo() == 5.0 + 5e-9
    solver.lam = lambda a: -1.0
    with pytest.raises(InfeasibleRegionError, match="never becomes positive"):
        solver.feasible_alpha_lo()


def test_curve_solver_finds_its_penalty_cut_once(monkeypatch):
    # the cut binds on both curves, and their 97 and 31 targets all start
    # from it: each solver finds it once
    solvers = []
    find = _CurveSolver.feasible_alpha_lo
    monkeypatch.setattr(
        _CurveSolver, "feasible_alpha_lo", lambda self: solvers.append(self) or find(self)
    )
    assert len(crescent(ModelShape(delta=0.5, epsilon=0.2), n_points=99)) == 97
    prior = DiscretePrior.from_levels(0.1, (1.0, 3.0, -8.0))  # golden curve_sigma05.csv
    assert len(tradeoff_curve(prior, ModelShape(0.5, 0.1, 0.5), 30).tpp) == 30
    assert len(solvers) == 2
    assert all(s.alpha_lo > s.start for s in solvers)


def test_tradeoff_curve_monotone():
    curve = tradeoff_curve(PRIOR1, SHAPE, 25)
    assert len(curve.tpp) == 25
    assert np.all(np.diff(curve.tpp) > 0)
    assert np.all(np.diff(curve.fdp) > 0)
    # lambda increases with alpha along the curve
    order = np.argsort(curve.alpha)
    assert np.all(np.diff(curve.lam[order]) > 0)
    assert curve.tpp[0] == pytest.approx(0.01, abs=1e-12)
    assert curve.tpp[-1] == pytest.approx(0.99, abs=1e-12)


def test_tradeoff_curve_truncates_above_phase_transition():
    # delta < 1 with large eps: full power is unattainable, the curve stops
    # at the attainable TPP ceiling instead of failing
    shape = ModelShape(delta=0.3, epsilon=0.25, sigma=0.0)
    prior = DiscretePrior.homogeneous(0.25, 5.0)
    curve = tradeoff_curve(prior, shape, 25)
    assert curve.tpp[-1] < 0.99
    assert np.all(np.diff(curve.tpp) > 0)
    assert np.all(np.diff(curve.fdp) > 0)


def test_tradeoff_curve_needs_two_points():
    for n_points in (1, 2.5, True, 3.0):
        with pytest.raises(ValueError):
            tradeoff_curve(PRIOR1, SHAPE, n_points)
    assert len(tradeoff_curve(PRIOR1, SHAPE, np.int64(3)).tpp) == 3


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    delta=st.floats(0.2, 4.0),
    ratio=st.floats(0.02, 0.6),
    sigma=st.sampled_from([0.0, 0.5]),
    rungs=st.integers(1, 4),
    base=st.floats(1.5, 5.0),
)
def test_tradeoff_curve_points_are_calibrated_lasso_points(delta, ratio, sigma, rungs, base):
    # every point solves both calibration equations at a penalty >= 0 and
    # sits on the even TPP grid between the curve's ends
    eps = ratio * min(delta, 1.0)
    prior = DiscretePrior.heterogeneous(eps, rungs, base)
    shape = ModelShape(delta=delta, epsilon=eps, sigma=sigma)
    curve = tradeoff_curve(prior, shape, 12)
    assert 0.01 - 1e-9 <= curve.tpp[0] and curve.tpp[-1] <= 0.99 + 1e-9
    targets = np.linspace(curve.tpp[0], curve.tpp[-1], 12)
    assert np.max(np.abs(curve.tpp - targets)) <= 1e-9
    for a, tau, lam in zip(curve.alpha, curve.tau, curve.lam):
        assert lam >= 0.0
        point = StateEvolutionPoint(alpha=a, tau=tau, lam=lam, shape=shape)
        assert max(map(abs, equation_residuals(prior, point))) <= 1e-10



def test_larger_weak_effects_raise_the_fdp_at_low_tpp():
    # the paper's headline (arXiv 2007.00566): with half the signal mass at
    # 100 and half at a, raising the weak effect a toward 100 raises the
    # asymptotic FDP at a fixed TPP; at sigma = 0 and u = 0.3 it goes
    # 0.00970, 0.00975, 0.01042, 0.01693, 0.04550.  The claim is asserted at
    # u = 0.3 and 0.5 only.  At u = 0.7 it does not hold: at sigma = 0 the
    # FDP is flat (0.09927) for a <= 30, and at sigma = 0.5 the weak effects
    # sit under the noise at a = 1, where the FDP (0.373) exceeds that of
    # a = 100 (0.111).
    def fdp(a, sigma, u):
        prior = (
            DiscretePrior.homogeneous(0.2, 100.0)
            if a == 100
            else DiscretePrior.from_levels(0.2, (a, 100))
        )
        return tradeoff_at_tpp(prior, ModelShape(delta=1.0, epsilon=0.2, sigma=sigma), u)[1]

    for sigma in (0.0, 0.5):
        for u in (0.3, 0.5):
            q = [fdp(a, sigma, u) for a in (1, 3, 10, 30, 100)]
            assert all(x < y for x, y in zip(q, q[1:])), (sigma, u, q)
    assert fdp(1, 0.5, 0.7) > fdp(100, 0.5, 0.7)


# --- error taxonomy under stress ------------------------------------------------


def _log_uniform(lo, hi):
    """10**e for e uniform in [lo, hi]: magnitudes spread over many decades."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


_EDGES = st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf])
_LEVELS = _EDGES | st.floats(0.0, 1.0)  # TPP or u
_POINTS = _EDGES | st.floats(-10.0, 10.0) | _log_uniform(-300, 300)  # x, t
_THRESHOLDS = _EDGES | st.floats(-1.0, 10.0) | _log_uniform(-300, 3)  # alpha, lambda
_SIGMAS = st.sampled_from([0.0, 5e-324, 1e200]) | _log_uniform(-323, 200)
_TAUS = _THRESHOLDS | st.sampled_from([5e-324, 1e-310])  # 1/tau overflows
# delta over 1e-300..1e300, moderate shapes, and delta/eps > 3600
_DELTAS = _log_uniform(-300, 300) | st.floats(0.2, 5.0)
_EPSILONS = _log_uniform(-6, -0.01) | st.floats(0.05, 0.5)


def _numbers(out):
    """Every number in a return value: scalars, arrays, tuples, dataclasses."""
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    if isinstance(out, (tuple, list)):
        return [x for item in out for x in _numbers(item)]
    return np.ravel(np.asarray(out, dtype=float)).tolist()


def _crescent_numbers(shape):
    # t_delta is +inf, with q_delta = 0, only where delta / (u eps) overflows
    points = crescent(shape, 3)
    assert all(p.q_delta == 0.0 for p in points if p.t_delta == math.inf)
    return [(p.u, p.q_delta, p.varsigma, p.t_nabla, p.q_nabla) for p in points]


def _t_delta_numbers(u, shape):
    # t_delta is +inf only where delta / (u eps) overflows, the root's limit
    t = t_delta(u, shape)
    if t == math.inf:
        ue = u * shape.epsilon
        assert ue == 0.0 or shape.delta / ue == math.inf, (u, shape)
        return []
    return [t]


def _theory_calls(draw):
    """{name: (call, valid)} for each public theory-half function on drawn
    inputs; ``valid`` says whether the inputs lie in the function's domain."""
    delta, epsilon = draw(_DELTAS), draw(_EPSILONS)
    shape = ModelShape(delta=delta, epsilon=epsilon, sigma=draw(_SIGMAS))
    noiseless = ModelShape(delta=delta, epsilon=epsilon)
    atoms = draw(st.lists(_log_uniform(-300, 300), min_size=1, max_size=3, unique=True))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
    prior = DiscretePrior.from_levels(epsilon, [a * s for a, s in zip(atoms, signs)])
    x, a, tau, level = draw(_POINTS), draw(_THRESHOLDS), draw(_TAUS), draw(_LEVELS)
    near_floor, gap = draw(st.booleans()), draw(_log_uniform(-12, 1))
    rungs = draw(st.integers(1, 4))
    real, threshold = math.isfinite(x), math.isfinite(a) and a >= 0.0
    floored = near_floor or threshold

    def alpha(on):  # the drawn threshold, or one just above the admissible floor
        return admissible_alpha_lower(prior, on) + gap if near_floor else a

    point = StateEvolutionPoint(alpha=a, tau=tau, lam=x, shape=shape)
    return {
        "normal_pdf": (lambda: normal_pdf(x), real),
        "normal_cdf": (lambda: normal_cdf(x), real),
        "soft_threshold": (lambda: soft_threshold(x, a), real and threshold),
        "excess_prob": (lambda: excess_prob(x, a), real and threshold),
        "mse_null": (lambda: mse_null(a), threshold),
        "mse_signal": (lambda: mse_signal(x, a), real and threshold),
        "alpha_min": (lambda: alpha_min(shape), True),
        "noiseless_alpha_floor": (lambda: noiseless_alpha_floor(shape), True),
        "admissible_alpha_lower": (lambda: admissible_alpha_lower(prior, shape), True),
        "solve_tau_given_alpha": (
            lambda: solve_tau_given_alpha(prior, alpha(shape), shape), floored
        ),
        "lambda_of_alpha": (lambda: lambda_of_alpha(prior, alpha(shape), shape), floored),
        "tradeoff_point": (lambda: tradeoff_point(prior, alpha(shape), shape), floored),
        # far off the solution the first residual overflows to +inf
        "equation_residuals": (
            lambda: [r for r in equation_residuals(prior, point) if r != math.inf],
            real and threshold and math.isfinite(tau) and tau > 0.0,
        ),
        "solve_alpha_given_lambda": (
            lambda: solve_alpha_given_lambda(prior, a, shape), threshold and a > 0.0
        ),
        "tradeoff_at_tpp": (lambda: tradeoff_at_tpp(prior, shape, level), math.isfinite(level)),
        "tradeoff_curve": (lambda: tradeoff_curve(prior, shape, 2), True),
        "t_delta": (lambda: _t_delta_numbers(level, noiseless), 0.0 < level <= 1.0),
        "q_delta": (lambda: q_delta(level, noiseless), 0.0 <= level <= 1.0),
        "u_star": (lambda: u_star(noiseless), True),
        "varsigma": (lambda: varsigma(alpha(noiseless), noiseless), floored),
        "t_nabla": (lambda: t_nabla(level, noiseless), 0.0 < level <= 1.0),
        "q_nabla": (lambda: q_nabla(level, noiseless), 0.0 < level <= 1.0),
        "crescent": (lambda: _crescent_numbers(noiseless), True),
        "touching_points": (lambda: touching_points([1.0 / rungs] * rungs, noiseless), True),
    }


# calls of up to tens of milliseconds: each example runs one of them on
# inputs in its domain, and all of them on inputs outside
_SLOW_CALLS = (
    "crescent",
    "q_nabla",
    "solve_alpha_given_lambda",
    "t_nabla",
    "touching_points",
    "tradeoff_at_tpp",
    "tradeoff_curve",
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_theory_calls_keep_the_error_taxonomy(data):
    # far-out shapes, atoms, thresholds and levels: a call in its domain returns
    # finite numbers or raises one of the solver errors; one outside raises
    # ValueError.  Intermediate overflow and underflow are expected here.
    calls = _theory_calls(data.draw)
    slow = data.draw(st.sampled_from(_SLOW_CALLS))
    for name, (call, valid) in calls.items():
        if valid and name in _SLOW_CALLS and name != slow:
            continue
        try:
            with np.errstate(over="ignore", under="ignore"):
                out = call()
        except ValueError:
            assert not valid, name
            continue
        except (InfeasibleRegionError, ConvergenceError):
            assert valid, name
            continue
        assert valid, name
        assert all(map(math.isfinite, _numbers(out))), (name, out)
