"""Soft-threshold Gaussian moments: closed forms vs quadrature and basics."""

import numpy as np
import pytest
from scipy.stats import norm

from lassocrescent import excess_prob, mse_null, mse_signal, normal_cdf, normal_pdf, soft_threshold

from oracles import gl_mse, quad_excess, quad_ms


def test_soft_threshold_basics():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-1.0, 1.0) == 0.0
    x = np.array([-2.0, -0.3, 0.0, 0.3, 2.0])
    out = soft_threshold(x, 0.5)
    assert np.allclose(out, [-1.5, 0.0, 0.0, 0.0, 1.5])
    # shrinks toward zero by exactly the threshold wherever nonzero
    y = np.linspace(-4, 4, 81)
    s = soft_threshold(y, 1.2)
    nz = s != 0
    assert np.all(np.abs(y[nz]) - np.abs(s[nz]) == pytest.approx(1.2))
    assert np.all(np.sign(s[nz]) == np.sign(y[nz]))


def test_normal_pdf_cdf_match_scipy():
    x = np.linspace(-10, 10, 201)
    assert np.max(np.abs(normal_pdf(x) - norm.pdf(x))) < 1e-14
    assert np.max(np.abs(normal_cdf(x) - norm.cdf(x))) < 1e-14
    # far tails stay finite and ordered
    assert 0.0 <= normal_cdf(-40.0) < 1e-300
    assert normal_cdf(40.0) == 1.0


def test_mse_null_frozen_and_limits():
    assert mse_null(1.0) == pytest.approx(0.15067956668754148, abs=1e-14)
    assert mse_null(0.0) == pytest.approx(1.0, abs=1e-14)
    # strictly decreasing in the threshold, vanishing for large thresholds
    a = np.linspace(0.0, 8.0, 161)
    vals = mse_null(a)
    assert np.all(np.diff(vals) < 0)
    assert mse_null(12.0) < 1e-25
    # past ~1.3e154, alpha^2 overflows to inf where phi(alpha) is 0
    with np.errstate(over="ignore"):
        assert mse_null(1e155) == 0.0
    assert isinstance(mse_null(1.0), np.floating)


def test_mse_null_vs_quadrature():
    for alpha in np.linspace(0.05, 5.0, 21):
        assert mse_null(alpha) == pytest.approx(gl_mse(0.0, alpha), abs=1e-12)


def test_mse_signal_frozen_and_shape():
    assert mse_signal(2.0, 1.0) == pytest.approx(1.593130386654162, abs=1e-14)
    # equals the null risk at t = 0, symmetric in t, saturates at 1 + alpha^2
    for alpha in (0.5, 1.0, 2.0):
        assert mse_signal(0.0, alpha) == pytest.approx(mse_null(alpha), abs=1e-14)
        for t in (0.3, 1.7, 4.0):
            assert mse_signal(t, alpha) == pytest.approx(mse_signal(-t, alpha), abs=1e-14)
        assert mse_signal(1e6, alpha) == pytest.approx(1.0 + alpha**2, rel=1e-12)
        # past ~1.3e154, t^2 overflows to inf where the tail difference is 0
        with np.errstate(over="ignore"):
            assert mse_signal(1e155, alpha) == pytest.approx(1.0 + alpha**2, rel=1e-12)
    # a threshold past ~1.3e154 kills every signal below it, so the risk is t^2
    with np.errstate(over="ignore"):
        assert mse_signal(0.0, 1e155) == 0.0
        assert mse_signal(3.0, 1e155) == pytest.approx(9.0, rel=1e-12)
        assert mse_signal(1e155, 1e300) == np.inf
    assert isinstance(mse_signal(2.0, 1.0), np.floating)


def test_mse_signal_vs_quadrature():
    for t in (0.0, 0.7, 2.0, 5.5, 9.0):
        for alpha in (0.1, 1.0, 3.0):
            assert mse_signal(t, alpha) == pytest.approx(quad_ms(t, alpha), abs=1e-10)
            assert mse_signal(t, alpha) == pytest.approx(gl_mse(t, alpha), abs=1e-12)


def test_excess_prob_frozen_and_clipping():
    assert excess_prob(2.0, 1.0) == pytest.approx(0.842694644100173, abs=1e-14)
    # agrees with Phi(t - alpha) + Phi(-t - alpha)
    assert excess_prob(2.0, 1.0) == pytest.approx(
        normal_cdf(1.0) + normal_cdf(-3.0), abs=1e-15
    )
    assert excess_prob(0.0, 1.0) == pytest.approx(2.0 * normal_cdf(-1.0), abs=1e-15)
    # stays a probability even in extreme regimes
    assert excess_prob(1e9, 0.5) == 1.0
    assert 0.0 <= excess_prob(0.0, 40.0) <= 1.0


def test_excess_prob_vs_quadrature():
    for t in (0.0, 0.7, 2.0, 5.5):
        for alpha in (0.1, 1.0, 3.0):
            assert excess_prob(t, alpha) == pytest.approx(quad_excess(t, alpha), abs=1e-10)


def test_excess_prob_monotone_in_t():
    alpha = 1.5
    t = np.linspace(0.0, 6.0, 121)
    vals = excess_prob(t, alpha)
    assert np.all(np.diff(vals) > 0)


def test_input_validation():
    with pytest.raises(ValueError):
        mse_null(-0.5)
    with pytest.raises(ValueError):
        mse_null(np.nan)
    with pytest.raises(ValueError):
        mse_signal(np.inf, 1.0)
    with pytest.raises(ValueError):
        excess_prob(1.0, -2.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            normal_pdf(bad)
        with pytest.raises(ValueError, match="finite"):
            normal_cdf(bad)
    with pytest.raises(ValueError, match="finite"):
        soft_threshold(np.nan, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        soft_threshold(1.0, -0.5)
    # one bad entry anywhere in an array is enough
    last_inf = np.array([0.0, 1.0, np.inf])
    with pytest.raises(ValueError, match="finite"):
        mse_signal(last_inf, 1.0)
    with pytest.raises(ValueError, match="finite"):
        excess_prob(last_inf, 1.0)
