"""Gaussian kernels used throughout the soft-thresholding calibration equations.

All functions are elementwise: they accept floats or NumPy arrays and
broadcast.  The two risk kernels have closed forms in terms of the standard
normal pdf/cdf; they are written so that every product of a density with a
polynomial factor is grouped before any subtraction, which keeps them accurate
in the far tails (the terms underflow to zero together instead of cancelling).

Each formula is written once, as an unchecked ``_`` kernel (``_pdf``,
``_cdf``, ``_mills``, ``_excess_prob``, ``_mse_null``, ``_mse_signal``) that
calls only other kernels and assumes finite input with nonnegative
thresholds.  The solvers in ``state_evolution`` and ``crescent`` call the
kernels, once their own entry points have checked the inputs.  The public
functions check each argument once (finite; thresholds nonnegative), raise
``ValueError`` otherwise, and return their kernel's result.

Conventions
-----------
``normal_cdf`` is evaluated through the complementary error function, which is
accurate to ~1e-16 relative error deep into the lower tail (where the naive
``1 - cdf(-x)`` form would lose all digits).

``scipy.special`` (``erfc``, ``erfcx``) is imported on the first kernel call,
not with this module: the simulation half (``lasso_path``, ``harness``) loads
``gauss`` through ``state_evolution`` but never evaluates a kernel, and the
import costs each of its processes ~0.05 s and ~4 MB (2-vCPU VM).  The first
access to ``special`` replaces the placeholder with the module itself, so
later calls pay one global lookup, as a top-level import would.

``mse_null(alpha)``    = E[eta(W; alpha)^2]          for W ~ N(0, 1)
``mse_signal(t, alpha)`` = E[(eta(t + W; alpha) - t)^2] for W ~ N(0, 1)
``excess_prob(t, alpha)`` = P(|t + W| > alpha)

where ``eta(x; c) = sign(x) * max(|x| - c, 0)`` is the soft-threshold map.
"""

import numpy as np

_SQRT2 = np.sqrt(2.0)
_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class _Special:
    """Placeholder for ``scipy.special`` until a kernel first needs it."""

    def __getattr__(self, name):
        global special
        import scipy.special as special

        return getattr(special, name)


special = _Special()


def _checked(name, x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _check_nonneg(name, x):
    arr = _checked(name, x)
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative, got {x!r}")
    return arr


# --- unchecked kernels --------------------------------------------------------


def _pdf(x):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def _cdf(x):
    return 0.5 * special.erfc(-x / _SQRT2)


def _mills(alpha):
    # Phi(-a) / phi(a) for a >= 0, computed without underflow via the
    # scaled complementary error function.
    return _SQRT_HALF_PI * special.erfcx(alpha / _SQRT2)


def _excess_prob(t, alpha):
    p = _cdf(t - alpha) + _cdf(-t - alpha)
    # the two-tail sum can exceed 1 by an ulp when alpha ~ 0
    return np.clip(p, 0.0, 1.0)


def _mse_null(alpha):
    pdf = _pdf(alpha)
    bracket = (1.0 + np.square(alpha)) * _mills(alpha) - alpha
    # where phi(alpha) is 0 the value is 0, even once alpha^2 overflows to inf
    return 2.0 * pdf * np.where(pdf == 0.0, 0.0, bracket)


def _mse_signal(t, alpha):
    a2 = np.square(alpha)
    t2 = np.square(t)
    outer = _cdf(t - alpha) + _cdf(-t - alpha)
    tail = _cdf(alpha - t) - _cdf(-alpha - t)
    below, above = _pdf(alpha - t), _pdf(alpha + t)
    val = (
        # where a tail or density is 0 its term is 0, even once alpha^2, t^2
        # or t itself overflows to inf
        np.where(outer == 0.0, 0.0, 1.0 + a2) * outer
        + np.where(tail == 0.0, 0.0, t2) * tail
        - np.where(below == 0.0, 0.0, alpha + t) * below
        - np.where(above == 0.0, 0.0, alpha - t) * above
    )
    # guard against a sub-ulp negative from cancellation at extreme alpha
    return np.maximum(val, 0.0)


# --- checked public functions -----------------------------------------------


def normal_pdf(x):
    """Standard normal density phi(x)."""
    return _pdf(_checked("x", x))


def normal_cdf(x):
    """Standard normal distribution function Phi(x), via erfc.

    Accurate to full double precision in both tails; Phi(-38) underflows
    cleanly to 0 and Phi(38) rounds to 1.
    """
    return _cdf(_checked("x", x))


def soft_threshold(x, c):
    """Soft-threshold map eta(x; c) = sign(x) * max(|x| - c, 0), c >= 0."""
    x = _checked("x", x)
    c = _check_nonneg("c", c)
    return np.sign(x) * np.maximum(np.abs(x) - c, 0.0)


def excess_prob(t, alpha):
    """P(|t + W| > alpha) for W ~ N(0,1) and threshold alpha >= 0."""
    return _excess_prob(_checked("t", t), _check_nonneg("alpha", alpha))


def mse_null(alpha):
    """E[eta(W; alpha)^2] = 2[(1 + alpha^2) Phi(-alpha) - alpha phi(alpha)].

    Evaluated in the grouped form 2 phi(alpha) [(1 + alpha^2) R(alpha) - alpha]
    with R the Mills ratio, so the bracket stays positive (classic Mills bound
    R > alpha / (1 + alpha^2)) and the whole expression underflows to 0
    together with phi(alpha) instead of cancelling.

    Decreases from 1 at alpha = 0 toward 0.
    """
    return _mse_null(_check_nonneg("alpha", alpha))


def mse_signal(t, alpha):
    """E[(eta(t + W; alpha) - t)^2] for W ~ N(0,1).

    Closed form:

        (1 + a^2) [Phi(t-a) + Phi(-t-a)] + t^2 [Phi(a-t) - Phi(-a-t)]
            - (a+t) phi(a-t) - (a-t) phi(a+t)

    Symmetric in t; equals ``mse_null(alpha)`` at t = 0 and increases to
    1 + alpha^2 as |t| -> infinity.
    """
    return _mse_signal(_checked("t", t), _check_nonneg("alpha", alpha))
