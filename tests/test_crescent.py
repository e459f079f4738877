"""Crescent edge curves, their defining equations, and touching levels."""

import math

import numpy as np
import pytest

from lassocrescent import (
    ConvergenceError,
    DiscretePrior,
    DivergingRootError,
    InfeasibleRegionError,
    ModelShape,
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
    varsigma,
)

from oracles import q_form, t_delta_scan, t_nabla_scan, varsigma_scan

SHAPE = ModelShape(delta=1.0, epsilon=0.2, sigma=0.0)
SHAPE_B = ModelShape(delta=0.8, epsilon=1.0 / 6.0, sigma=0.0)


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
    # far down the edge the threshold runs past the t = 60 scan, where the
    # root is sqrt(delta/(u eps) - 1) and the FDP is exactly zero
    assert t_delta(1e-4, SHAPE) == pytest.approx(math.sqrt(49999.0), rel=1e-11)  # 223.6
    assert q_delta(1e-4, SHAPE) == 0.0
    shape = ModelShape(delta=4.0, epsilon=1e-3, sigma=0.0)
    assert t_delta(0.2, shape) == pytest.approx(math.sqrt(19999.0), rel=1e-13)
    assert t_delta(0.1, shape) == pytest.approx(math.sqrt(39999.0), rel=1e-11)  # 200
    assert q_delta(0.1, shape) == 0.0
    # only a root that is not a finite double diverges
    shape = ModelShape(delta=1.0, epsilon=1e-300, sigma=0.0)
    with pytest.raises(DivergingRootError, match="overflows"):
        t_delta(1e-10, shape)
    assert q_delta(1e-10, shape) == 0.0


def test_t_delta_validation():
    with pytest.raises(ValueError):
        t_delta(0.0, SHAPE)
    with pytest.raises(ValueError):
        t_delta(1.5, SHAPE)
    with pytest.raises(ValueError):
        q_delta(-0.1, SHAPE)


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
    # just above the noiseless floor the root lies far out, so the bracket
    # has to grow; the equation is flat there, hence the looser scan match
    a = noiseless_alpha_floor(SHAPE) + 1e-8
    vs = varsigma(a, SHAPE)
    assert vs == pytest.approx(5.545690397161071, abs=1e-10)
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
    # u below the cached table: the bracket grows past its last entry
    for u, frozen, a_max in [(1e-40, 15.54698934892496, 16.0),
                             (1e-200, 32.441662157079435, 33.0)]:
        alpha, vs = t_nabla(u, SHAPE)
        assert alpha == pytest.approx(frozen, abs=1e-9)
        assert excess_prob(vs + alpha, alpha) == pytest.approx(u, rel=1e-9)
        assert alpha == pytest.approx(t_nabla_scan(u, 1.0, 0.2, a_max=a_max)[0], abs=1e-8)
    # u above the cached table: the lower end walks toward the noiseless
    # floor, where u -> 1; at u = 1 the walk stops one step off the floor
    floor = noiseless_alpha_floor(SHAPE)
    for u, frozen in [(1.0 - 1e-9, 1.9880129090104814), (1.0, 1.988012908337557)]:
        alpha, vs = t_nabla(u, SHAPE)
        assert alpha == pytest.approx(frozen, abs=1e-12)
        assert floor < alpha < floor + 1e-9
        assert excess_prob(vs + alpha, alpha) == pytest.approx(u, abs=1e-12)
        assert vs == varsigma(alpha, SHAPE)


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


# --- assembled crescent -------------------------------------------------------


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
    # the t = 60 scan: the point carries that root and the q_delta limit 0
    shape = ModelShape(delta=4.0, epsilon=0.01, sigma=0.0)
    pt = crescent(shape, n_points=9)[0]
    assert pt.u == pytest.approx(0.1)
    assert pt.t_delta == pytest.approx(math.sqrt(3999.0), rel=1e-11)  # 63.24
    assert pt.q_delta == 0.0 == q_delta(0.1, shape)
    assert math.isfinite(pt.t_nabla)


def test_crescent_truncates_infeasible_levels():
    # above the phase transition high TPP levels drop off the grid
    pts = crescent(ModelShape(delta=0.3, epsilon=0.25, sigma=0.0), n_points=9)
    assert 0 < len(pts) < 9
    assert pts[-1].u == pytest.approx(0.5)


def test_crescent_fully_infeasible_raises():
    with pytest.raises(InfeasibleRegionError):
        crescent(ModelShape(delta=0.05, epsilon=0.9, sigma=0.0), n_points=1)


def test_crescent_validation():
    with pytest.raises(ValueError):
        crescent(SHAPE, n_points=0)
    with pytest.raises(ValueError):
        crescent(ModelShape(delta=1.0, epsilon=0.2, sigma=0.5), n_points=9)


def test_extreme_inputs_raise_solver_errors():
    # cases the error-taxonomy stress test found; each raised another error type
    with np.errstate(over="ignore", under="ignore"):
        # alpha**2 overflowed: OverflowError; brentq's own non-convergence: RuntimeError
        for alpha, shape in ((1e200, SHAPE), (2.3755269386315396e61, ModelShape(1.0, 0.0180544))):
            with pytest.raises(ConvergenceError):
                varsigma(alpha, shape)
        # u far above the upper edge's reach: f(0) >= 0 by rounding made brentq's
        # sign check fail with ValueError
        with pytest.raises(InfeasibleRegionError):
            t_nabla(0.5, ModelShape(delta=1e-3, epsilon=0.5))
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
        tail = normal_cdf(-t_delta(u, SHAPE))
        assert u == pytest.approx(2.0 * tail * (1.0 - g) + g, abs=1e-9)
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


def test_touching_points_validation():
    with pytest.raises(ValueError):
        touching_points([], SHAPE)
    with pytest.raises(ValueError):
        touching_points([0.5, 0.4], SHAPE)
    with pytest.raises(ValueError):
        touching_points([0.5, -0.5, 1.0], SHAPE)
