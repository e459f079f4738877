"""Crescent edge curves, their defining equations, and touching levels."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lassocrescent import (
    DiscretePrior,
    InfeasibleRegionError,
    ModelShape,
    alpha_min,
    crescent,
    excess_prob,
    mse_null,
    mse_signal,
    noiseless_alpha_floor,
    normal_cdf,
    q_delta,
    q_nabla,
    solve_tau_given_alpha,
    t_delta,
    t_nabla,
    touching_points,
    tradeoff_curve,
    u_star,
    varsigma,
)
from lassocrescent.crescent import _upper_solver

from oracles import (
    eps_star,
    q_form,
    t_delta_grid,
    t_delta_scan,
    t_nabla_scan,
    touching_points_iteration,
    varsigma_scan,
)

SHAPE = ModelShape(delta=1.0, epsilon=0.2, sigma=0.0)
SHAPE_B = ModelShape(delta=0.8, epsilon=1.0 / 6.0, sigma=0.0)


def _penalty(t, u, delta, eps):
    # the penalty factor 1 - P(|Pi + tau W| > t tau) / delta at threshold t and
    # TPP u; a Lasso point selects at most n variables, so it is >= 0 there
    return 1.0 - (eps * u + 2.0 * (1.0 - eps) * normal_cdf(-t)) / delta


def _edge_level(t, delta, eps):
    # u(t) = 1 - N(t)(1 - 2 Phi(-t)) / D(t): the level whose balance t solves
    mn = mse_null(t)
    n_term = (1.0 - eps) * mn + eps * (1.0 + t * t) - delta
    return 1.0 - n_term * (1.0 - 2.0 * normal_cdf(-t)) / (eps * (1.0 + t * t - mn))


# --- lower edge ---------------------------------------------------------------


def test_t_delta_frozen_and_scan():
    t = t_delta(0.5, SHAPE)
    assert t == pytest.approx(3.003860978334683, abs=1e-10)
    assert t == pytest.approx(t_delta_scan(0.5, 1.0, 0.2), abs=1e-9)


def test_q_delta_frozen_and_form():
    q = q_delta(0.5, SHAPE)
    assert q == pytest.approx(0.020880859607870447, abs=1e-12)
    assert q == pytest.approx(q_form(t_delta(0.5, SHAPE), 0.5, 0.2), abs=1e-12)
    assert q_delta(0.0, SHAPE) == 0.0


def test_q_delta_small_u_root_diverges():
    # far down the edge the threshold runs past t = 60, where the root is
    # sqrt(delta/(u eps) - 1) and the FDP is exactly zero
    assert t_delta(1e-4, SHAPE) == pytest.approx(math.sqrt(49999.0), rel=1e-11)  # 223.6
    assert q_delta(1e-4, SHAPE) == 0.0
    shape = ModelShape(delta=4.0, epsilon=1e-3, sigma=0.0)
    assert t_delta(0.2, shape) == pytest.approx(math.sqrt(19999.0), rel=1e-13)
    assert t_delta(0.1, shape) == pytest.approx(math.sqrt(39999.0), rel=1e-11)  # 200
    assert q_delta(0.1, shape) == 0.0
    # only a root that is not a finite double diverges: t_delta returns inf
    shape = ModelShape(delta=1.0, epsilon=1e-300, sigma=0.0)
    assert t_delta(1e-10, shape) == math.inf
    assert q_delta(1e-10, shape) == 0.0


def test_t_delta_validation():
    with pytest.raises(ValueError):
        t_delta(0.0, SHAPE)
    with pytest.raises(ValueError):
        t_delta(1.5, SHAPE)
    with pytest.raises(ValueError):
        q_delta(-0.1, SHAPE)


def test_lower_edge_refuses_points_past_the_penalty_cut():
    # these roots solve the balance but select more than delta
    for delta, eps, u in [(0.3, 0.25, 0.51), (0.5, 0.4, 0.68)]:
        shape = ModelShape(delta=delta, epsilon=eps, sigma=0.0)
        with pytest.raises(InfeasibleRegionError, match="selects more than delta"):
            t_delta(u, shape)
        with pytest.raises(InfeasibleRegionError, match="penalty factor"):
            q_delta(u, shape)
    t = t_delta(0.5, ModelShape(delta=0.3, epsilon=0.25, sigma=0.0))
    assert t == pytest.approx(1.195159461488667, abs=1e-10)
    assert _penalty(t, 0.5, 0.3, 0.25) == pytest.approx(0.0033, abs=1e-4)


def test_lower_edge_reaches_its_end_u_star():
    # at (0.5, 0.2) the balance G(., u) is negative only on a window narrower
    # than 0.05 next to the edge's end (t 0.850-0.884 at u = 0.97764): a scan
    # in steps of 0.05 stepped over these roots and raised
    shape = ModelShape(delta=0.5, epsilon=0.2, sigma=0.0)
    end = u_star(shape)
    assert end == pytest.approx(0.977838, abs=1e-6)
    for u in (0.97764, 0.9777, 0.97783):
        t = t_delta(u, shape)
        assert _penalty(t, u, 0.5, 0.2) >= 0.0
        assert abs(_edge_level(t, 0.5, 0.2) - u) <= 1e-9
        assert t == pytest.approx(t_delta_scan(u, 0.5, 0.2), abs=1e-9)
    q = q_delta(0.97764, shape)
    assert math.isfinite(q) and q > 0.0
    with pytest.raises(InfeasibleRegionError, match="past the lower edge's end"):
        t_delta(end + 1e-9, shape)


def test_u_star_is_the_largest_achievable_tpp():
    # Su, Bogdan & Candes (2017): for delta < 1 past the phase transition,
    # eps > eps*(delta), the largest achievable TPP is
    # u* = 1 - (1 - delta)(eps - eps*) / (eps (1 - eps*)); otherwise it is 1.
    # eps* comes from the minimax risk M(eps) in the oracle, not from t_cut
    rng = np.random.default_rng(2017)
    for _ in range(24):
        delta = rng.uniform(0.02, 0.98)
        es = eps_star(delta)
        eps = es + rng.uniform(0.001, 0.999) * (0.99 - es)
        want = 1.0 - (1.0 - delta) * (eps - es) / (eps * (1.0 - es))
        assert u_star(ModelShape(delta, eps)) == pytest.approx(want, rel=0, abs=1e-12)
    for delta in (0.1, 0.5, 0.9):
        for ratio in (0.1, 0.5, 0.99):
            assert u_star(ModelShape(delta, ratio * eps_star(delta))) == 1.0
    for delta in (1.0, 1.5, 4.0):
        for eps in (0.01, 0.2, 0.5, 0.9):
            assert u_star(ModelShape(delta, eps)) == 1.0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(delta=st.floats(0.05, 4.0), ratio=st.floats(0.01, 0.99))
def test_lower_edge_is_feasible_on_one_interval_where_it_falls(delta, ratio):
    # the premise of t_delta's bracket: above the noiseless floor the points
    # of u(t) that select at most delta (penalty factor >= 0) form one
    # interval [t_cut, inf), on which u(t) falls, from u_star = u(t_cut)
    eps = ratio * min(delta, 1.0)
    shape = ModelShape(delta=delta, epsilon=eps)
    t = np.linspace(noiseless_alpha_floor(shape), 60.0, 601)[1:]
    u = _edge_level(t, delta, eps)
    feasible = _penalty(t, u, delta, eps) >= 0.0
    k = int(np.argmax(feasible))
    assert np.all(feasible[k:]) and not np.any(feasible[:k])
    assert np.all(np.diff(u[k:]) < 0.0)
    assert u[k] <= u_star(shape) <= 1.0


def test_lower_edge_monotone():
    us = np.linspace(0.05, 0.95, 19)
    qs = [q_delta(float(u), SHAPE) for u in us]
    assert np.all(np.diff(qs) > 0)
    ts = [t_delta(float(u), SHAPE) for u in us]
    assert np.all(np.diff(ts) < 0)  # threshold falls as power rises


# --- upper edge ---------------------------------------------------------------


def test_varsigma_frozen_and_identity():
    vs = varsigma(2.2, SHAPE)
    assert vs == pytest.approx(0.7780000395488886, abs=1e-10)
    # defining identity, via the library closed forms
    resid = 0.8 * mse_null(2.2) + 0.2 * mse_signal(vs + 2.2, 2.2) - 1.0
    assert abs(resid) < 1e-9
    # and via independent quadrature
    assert vs == pytest.approx(varsigma_scan(2.2, 1.0, 0.2), abs=1e-9)
    # just above the noiseless floor the root lies far out, where the equation
    # is so flat that rounding moves its double-precision root by ~1e-9 (a
    # 40-digit solve at this alpha, 1.9880129183375332, gives 5.5456908030):
    # hence the looser scan match
    a = noiseless_alpha_floor(SHAPE) + 1e-8
    vs = varsigma(a, SHAPE)
    assert vs == pytest.approx(5.545690804410249, abs=1e-10)
    assert abs(0.8 * mse_null(a) + 0.2 * mse_signal(vs + a, a) - 1.0) < 1e-9
    assert vs == pytest.approx(varsigma_scan(a, 1.0, 0.2), abs=1e-6)


def test_varsigma_matches_homogeneous_calibration():
    # on the upper edge the normalized magnitude equals M / tau for the
    # homogeneous prior whose noiseless calibration lands at the same alpha
    tau = solve_tau_given_alpha(DiscretePrior.homogeneous(0.2, 1.0), 2.0, SHAPE)
    assert varsigma(2.0, SHAPE) == pytest.approx(1.0 / tau - 2.0, abs=1e-8)


def test_varsigma_infeasible_below_floor():
    with pytest.raises(InfeasibleRegionError, match="noiseless floor"):
        varsigma(1.2, SHAPE)
    with pytest.raises(InfeasibleRegionError, match="alpha_min"):
        varsigma(0.1, ModelShape(delta=0.5, epsilon=0.2, sigma=0.0))
    with pytest.raises(ValueError):
        varsigma(-1.0, SHAPE)


def test_t_nabla_frozen_and_scan():
    alpha, vs = t_nabla(0.5, SHAPE)
    assert alpha == pytest.approx(2.5556060146515596, abs=1e-9)
    # round trip: the edge parameterization reproduces the TPP level
    assert excess_prob(vs + alpha, alpha) == pytest.approx(0.5, abs=1e-9)
    assert vs == pytest.approx(varsigma(alpha, SHAPE), abs=1e-10)
    a_scan, _ = t_nabla_scan(0.5, 1.0, 0.2)
    assert alpha == pytest.approx(a_scan, abs=1e-8)
    # far down the edge alpha walks up past its start
    for u, frozen, a_max in [(1e-40, 15.54698934892496, 16.0),
                             (1e-200, 32.441662157079435, 33.0)]:
        alpha, vs = t_nabla(u, SHAPE)
        assert alpha == pytest.approx(frozen, abs=1e-9)
        assert excess_prob(vs + alpha, alpha) == pytest.approx(u, rel=1e-9)
        assert alpha == pytest.approx(t_nabla_scan(u, 1.0, 0.2, a_max=a_max)[0], abs=1e-8)
    # above the TPP at the curve's start alpha walks toward the noiseless
    # floor, where u -> 1; at u = 1 the walk stops at the resolution of alpha
    floor = noiseless_alpha_floor(SHAPE)
    for u, frozen in [(1.0 - 1e-9, 1.9880129090104814), (1.0, 1.988012908337557)]:
        alpha, vs = t_nabla(u, SHAPE)
        assert alpha == pytest.approx(frozen, abs=1e-12)
        assert floor < alpha < floor + 1e-9
        assert excess_prob(vs + alpha, alpha) == pytest.approx(u, abs=1e-12)
        assert vs == varsigma(alpha, SHAPE)


def test_t_nabla_raises_where_its_point_misses_the_level():
    # at (0.5, 0.2) u(alpha) rises from 0.6853 at alpha_min to 0.9768 near
    # alpha = 0.865 before it falls; the edge starts where the calibrated
    # penalty reaches 0, at u = 0.976631, and reaches every level below it
    shape = ModelShape(delta=0.5, epsilon=0.2, sigma=0.0)
    alpha, vs = t_nabla(0.9, shape)
    assert alpha == pytest.approx(1.16456059951168, abs=1e-9)
    assert excess_prob(vs + alpha, alpha) == pytest.approx(0.9, abs=1e-9)
    # the penalty factor 1 - P(|Pi + tau W| > alpha tau) / delta
    assert 1.0 - (0.2 * 0.9 + 2.0 * 0.8 * normal_cdf(-alpha)) / 0.5 == pytest.approx(0.249, abs=1e-3)
    with pytest.raises(InfeasibleRegionError, match="penalty reaches 0"):
        t_nabla(0.98, shape)
    pts = crescent(shape, n_points=99)
    assert len(pts) == 97 and pts[-1].u == pytest.approx(0.97)
    for p in pts:
        assert excess_prob(p.varsigma + p.t_nabla, p.t_nabla) == pytest.approx(p.u, abs=1e-9)
    # the levels 0.89, 0.93 and 0.97 against the independent scan
    for p in pts[88::4]:
        assert p.t_nabla == pytest.approx(t_nabla_scan(p.u, 0.5, 0.2, a_max=1.5)[0], abs=1e-8)


def test_q_nabla_frozen_both_shapes():
    assert q_nabla(0.5, SHAPE) == pytest.approx(0.0781731750932415, abs=1e-10)
    alpha_b, _ = t_nabla(0.5, SHAPE_B)
    assert alpha_b == pytest.approx(2.5078457396603775, abs=1e-9)
    assert q_nabla(0.5, SHAPE_B) == pytest.approx(0.10831294427498986, abs=1e-10)


def test_upper_edge_monotone_and_above_lower():
    us = np.linspace(0.05, 0.95, 19)
    qn = [q_nabla(float(u), SHAPE) for u in us]
    qd = [q_delta(float(u), SHAPE) for u in us]
    assert np.all(np.diff(qn) > 0)
    assert all(lo < hi for lo, hi in zip(qd, qn))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    delta=st.floats(0.2, 4.0),
    ratio=st.floats(0.02, 0.6),
    atoms=st.lists(
        st.floats(-1.0, 3.0).map(lambda e: 10.0**e), min_size=1, max_size=4, unique=True
    ),
)
def test_instance_curves_lie_in_the_crescent(delta, ratio, atoms):
    # the paper's containment claim: every noiseless instance curve lies
    # between the edges, q_delta(u) <= q <= q_nabla(u), at each of its levels
    # where both edges exist.  A one-atom prior lies on the upper edge, so the
    # bound holds there only to rounding.  Both points solve the same level to
    # full precision, so their thresholds agree to a relative few ulps, and
    # ln q moves by about t dt with t <= sqrt(delta / eps) <= 32 in this draw
    # (Phi(-t) / phi(t) >= t / (1 + t^2)): t^2 x 4e-15 <= 4e-12.  Hence a
    # relative slack of 1e-11.  A recorded run of 60 draws (351 points) had
    # q / q_nabla - 1 <= 7.1e-14, at a one-atom prior with q ~ 1e-39.
    eps = ratio * min(delta, 1.0)
    shape = ModelShape(delta=delta, epsilon=eps)
    curve = tradeoff_curve(DiscretePrior.from_levels(eps, atoms), shape, 6)
    solver = _upper_solver(shape)
    for u, q in zip(curve.tpp.tolist(), curve.fdp.tolist()):
        try:
            lower = q_delta(u, shape)
            upper = q_form(t_nabla(u, shape, solver)[0], u, eps)
        except InfeasibleRegionError:
            continue
        assert lower * (1.0 - 1e-11) <= q <= upper * (1.0 + 1e-11), (u, q, lower, upper)


# --- assembled crescent -------------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(delta=st.floats(0.1, 4.0), ratio=st.floats(0.01, 0.95))
def test_crescent_upper_points_solve_their_level_at_a_nonnegative_penalty(delta, ratio):
    # every point of both edges reproduces its TPP level and lies on the
    # Lasso's side of the penalty cut, the lower point at least as far in
    eps = ratio * min(delta, 1.0)
    shape = ModelShape(delta=delta, epsilon=eps)
    pts = crescent(shape, n_points=19)
    for p in pts:
        assert abs(excess_prob(p.varsigma + p.t_nabla, p.t_nabla) - p.u) <= 1e-9
        if math.isfinite(p.t_delta):
            # N(t) / D(t) (1 - 2 Phi(-t)) = 1 - u
            t, mn = p.t_delta, mse_null(p.t_delta)
            n_term = (1.0 - eps) * mn + eps * (1.0 + t * t) - delta
            balance = n_term / (eps * (1.0 + t * t - mn)) * (1.0 - 2.0 * normal_cdf(-t))
            assert abs(balance - (1.0 - p.u)) <= 1e-9
        upper = _penalty(p.t_nabla, p.u, delta, eps)
        assert _penalty(p.t_delta, p.u, delta, eps) >= upper >= 0.0
    # a lower root past the crescent's last level is a Lasso point too, and so
    # lies above alpha_min
    for j in range(round(20 * pts[-1].u) + 1, 20):
        try:
            t = t_delta(j / 20.0, shape)
        except InfeasibleRegionError:
            continue
        assert _penalty(t, j / 20.0, delta, eps) >= 0.0
        assert t >= alpha_min(shape) - 1e-9


def test_crescent_grid():
    pts = crescent(SHAPE, n_points=9)
    assert len(pts) == 9
    assert [p.u for p in pts] == pytest.approx([j / 10.0 for j in range(1, 10)])
    mid = pts[4]
    assert mid.u == pytest.approx(0.5)
    assert mid.q_delta == pytest.approx(q_delta(0.5, SHAPE), abs=1e-12)
    assert mid.q_nabla == pytest.approx(q_nabla(0.5, SHAPE), abs=1e-12)
    assert mid.t_delta == pytest.approx(t_delta(0.5, SHAPE), abs=1e-12)
    for p in pts:
        assert p.q_delta < p.q_nabla
        assert math.isfinite(p.t_nabla) and p.varsigma > -p.t_nabla


def test_crescent_diverging_lower_edge():
    # at a large delta and small eps the lower-edge root at u = 0.1 lies past
    # t = 60: the point carries that root and the q_delta limit 0
    shape = ModelShape(delta=4.0, epsilon=0.01, sigma=0.0)
    pt = crescent(shape, n_points=9)[0]
    assert pt.u == pytest.approx(0.1)
    assert pt.t_delta == pytest.approx(math.sqrt(3999.0), rel=1e-11)  # 63.24
    assert pt.q_delta == 0.0 == q_delta(0.1, shape)
    assert math.isfinite(pt.t_nabla)


def test_crescent_truncates_infeasible_levels():
    # above the phase transition high TPP levels drop off the grid: the upper
    # edge ends at u = 0.48896, where the calibrated penalty reaches 0
    pts = crescent(ModelShape(delta=0.3, epsilon=0.25, sigma=0.0), n_points=9)
    assert 0 < len(pts) < 9
    assert pts[-1].u == pytest.approx(0.4)


def test_crescent_fully_infeasible_raises():
    with pytest.raises(InfeasibleRegionError):
        crescent(ModelShape(delta=0.05, epsilon=0.9, sigma=0.0), n_points=1)


def test_crescent_validation():
    for n_points in (0, 2.5, True, 3.0):
        with pytest.raises(ValueError):
            crescent(SHAPE, n_points=n_points)
    assert len(crescent(SHAPE, n_points=np.int64(3))) == 3
    with pytest.raises(ValueError):
        crescent(ModelShape(delta=1.0, epsilon=0.2, sigma=0.5), n_points=9)


def test_extreme_inputs_raise_solver_errors():
    # cases the error-taxonomy stress test found; each raised another error type
    with np.errstate(over="ignore", under="ignore"):
        # alpha**2 overflowed: OverflowError; brentq's own non-convergence:
        # RuntimeError.  Far above the floor the root m = sqrt(delta/eps) is
        # tiny against alpha, so varsigma = m - alpha rounds to -alpha
        for alpha, shape in ((1e200, SHAPE), (2.3755269386315396e61, ModelShape(1.0, 0.0180544))):
            assert varsigma(alpha, shape) == -alpha
        # u far above the upper edge's reach: f(0) >= 0 by rounding made brentq's
        # sign check fail with ValueError
        with pytest.raises(InfeasibleRegionError):
            t_nabla(0.5, ModelShape(delta=1e-3, epsilon=0.5))
    # 1 - eps rounds to 1, so no prior has the shape's null mass: ValueError
    with pytest.raises(InfeasibleRegionError, match="rounds"):
        t_nabla(0.5, ModelShape(delta=1.0, epsilon=1e-17))
    # u * eps underflowed to 0: ZeroDivisionError
    assert q_delta(5e-324, ModelShape(delta=3.4, epsilon=0.056)) == 0.0


# --- touching levels ----------------------------------------------------------


def test_touching_points_fixed_point_property():
    gamma = [0.2] * 5
    pts = touching_points(gamma, SHAPE)
    assert len(pts) == 5
    us = [u for u, _ in pts]
    assert us == sorted(us)
    assert us[-1] == 1.0
    # each interior level solves u = 2 Phi(-t_delta(u)) (1 - g) + g for the
    # matching suffix mass g; points come back sorted by u, i.e. by g
    masses = sorted(np.cumsum(gamma[::-1]))
    for (u, q), g in zip(pts[:-1], masses[:-1]):
        t = t_delta(u, SHAPE)
        assert u == pytest.approx(2.0 * normal_cdf(-t) * (1.0 - g) + g, abs=1e-9)
        # the level's threshold is the noiseless floor at sparsity g eps
        assert t == pytest.approx(noiseless_alpha_floor(ModelShape(1.0, g * 0.2)), abs=1e-9)
        assert q == pytest.approx(q_delta(u, SHAPE), abs=1e-12)
    # interior levels sit close to the even grid their suffix masses suggest
    assert us[:-1] == pytest.approx([0.2, 0.4, 0.6, 0.8], abs=6e-3)


def test_touching_points_single_mass():
    pts = touching_points([1.0], SHAPE)
    assert len(pts) == 1
    assert pts[0][0] == 1.0
    assert pts[0][1] == pytest.approx(q_delta(1.0, SHAPE), abs=1e-12)


def test_touching_points_two_masses_frozen():
    pts = touching_points([0.5, 0.5], SHAPE)
    assert len(pts) == 2
    assert pts[0][0] == pytest.approx(0.5013526118013145, abs=1e-8)
    assert pts[1][0] == 1.0


def test_touching_points_tiny_suffix_masses():
    # suffix masses of ~0.002 push t_delta past t = 60, where its tail is 0;
    # the final residual check must use the same zero-tail limit as the
    # iteration
    gamma = [0.5736725315817366, 0.31013495884975584, 0.11183897626176695,
             0.0024298878750228813, 0.0019236454317179007]
    pts = touching_points(gamma, ModelShape(1.8868386382108695, 0.19707059313819575))
    us = [u for u, _ in pts]
    assert len(us) == 5
    assert np.all(np.diff(us) > 0)
    assert us[-1] == 1.0
    # subnormal suffix masses: delta / (g eps) overflows, or g eps underflows
    # to 0, so the level is (g, 0) with no warning raised
    half = touching_points([0.5, 0.5], SHAPE)[0]
    top = (1.0, q_delta(1.0, SHAPE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert touching_points([1 - 1e-300, 1e-300], SHAPE) == [(1e-300, 0.0), top]
        assert touching_points([0.5, 0.5 - 1e-310, 1e-310], SHAPE) == [(1e-310, 0.0), half, top]
        assert touching_points([1 - 5e-324, 5e-324], SHAPE) == [(5e-324, 0.0), top]


def test_touching_points_match_the_damped_iteration():
    # 200 random shapes and 2-5 rung ladders: each interior level, read from
    # the noiseless floor at sparsity g eps, is checked against the damped
    # fixed-point iteration; where it solves, h(u) = u - 2 Phi(-t_delta(u))
    # (1 - g) - g crosses zero once upward on a 64-point grid of [g, 1], so
    # the level is the only one
    rng = np.random.default_rng(2020)
    raised = 0
    for _ in range(200):
        shape = ModelShape(rng.uniform(0.2, 4.0), rng.uniform(0.01, 0.5))
        gamma = rng.dirichlet(np.ones(rng.integers(2, 6))).tolist()
        try:
            want = touching_points_iteration(gamma, shape)
        except InfeasibleRegionError:
            with pytest.raises(InfeasibleRegionError):
                touching_points(gamma, shape)
            raised += 1
            continue
        got = touching_points(gamma, shape)
        assert [u for u, _ in got] == pytest.approx([u for u, _ in want], rel=0, abs=1e-12)
        for g in np.cumsum(gamma[::-1])[:-1]:
            us = np.linspace(g, 1.0, 64)
            h = us - 2.0 * normal_cdf(-t_delta_grid(us, shape.delta, shape.epsilon)) * (1 - g) - g
            assert np.sum((h[:-1] <= 0.0) & (h[1:] > 0.0)) == 1
            assert not np.any((h[:-1] > 0.0) & (h[1:] <= 0.0))
    assert 10 <= raised <= 40


def test_touching_points_validation():
    with pytest.raises(ValueError):
        touching_points([], SHAPE)
    with pytest.raises(ValueError):
        touching_points([0.5, 0.4], SHAPE)
    with pytest.raises(ValueError):
        touching_points([0.5, -0.5, 1.0], SHAPE)
