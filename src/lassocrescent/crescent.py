"""Lasso crescent: the envelope boundaries of instance-specific trade-offs.

Over all eps-sparse priors at a fixed shape (delta, eps), the noiseless
asymptotic TPP/FDP pairs of the Lasso sweep out a crescent-shaped region.
This module computes both edges as parametric curves in the TPP level u:

* lower edge ``q_delta``: attained in the limit of maximally heterogeneous
  (infinitely spread-out) effect sizes.  Its threshold parameter t_delta(u)
  is the largest root of a rational balance between the null risk excess

      N(t) = (1-eps) mse_null(t) + eps (1 + t^2) - delta

  and the signal-capacity margin D(t) = eps[(1 + t^2) - mse_null(t)]:

      N(t) / D(t) = (1 - u) / (1 - 2 Phi(-t)).

* upper edge ``q_nabla``: attained by homogeneous (single effect size)
  priors.  For a threshold alpha above the noiseless floor, the normalized
  magnitude mtilde(alpha) solves

      (1-eps) mse_null(alpha) + eps mse_signal(mtilde, alpha) = delta,

  u(alpha) = excess_prob(mtilde(alpha), alpha) is strictly decreasing, and
  t_nabla(u) inverts it.  ``varsigma`` reports mtilde - alpha.

Both edges share the FDP form q = 2(1-eps)Phi(-t) / (2(1-eps)Phi(-t) + eps u).

``touching_points`` locates the TPP levels at which the trade-off curve of a
geometric-ladder prior with mass split gamma touches the lower edge (in the
limit of unbounded separation between consecutive effect sizes): one level
per proper suffix mass of gamma, plus u = 1 where the crescent closes.

Like ``state_evolution``, this module imports no part of ``scipy.optimize``
when it is loaded, so that the simulation commands, which load it through
the CLI, never pay for it: ``brentq`` is ``state_evolution.brentq``, and
``_mtilde_grid`` imports ``elementwise`` where it uses it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DivergingRootError, InfeasibleRegionError
# Unchecked kernels, bound to the public names that perfbench/tracing.py wraps
from .gauss import _cdf as normal_cdf, _excess_prob as excess_prob
from .gauss import _mse_null as mse_null, _mse_signal as mse_signal
from .state_evolution import ModelShape, _bracket_walk, _check_alpha, _fdp_at
from .state_evolution import alpha_min, brentq, noiseless_alpha_floor

_T_MAX = 60.0
_SCAN_STEP = 0.05
_EQ_TOL = 1e-9


@dataclass(frozen=True)
class CrescentPoint:
    """One u-slice of the crescent: both edge parameters and FDP values.

    ``t_delta`` is +inf (with q_delta = 0) only where delta / (u eps)
    overflows, so the lower-edge root is not a finite double; all finite
    parameters satisfy their defining equations to within 1e-9.
    """

    u: float
    t_delta: float
    q_delta: float
    varsigma: float
    t_nabla: float
    q_nabla: float


def _lower_gap(t, u, shape):
    # G(t) = N(t)(1 - 2 Phi(-t)) - (1-u) D(t); largest root = t_delta(u).
    # G -> +inf with t, and multiplying through by D(t) > 0 keeps the root set.
    t = np.asarray(t, dtype=float)
    mn = mse_null(t)
    one_plus = 1.0 + np.square(t)
    n_term = (1.0 - shape.epsilon) * mn + shape.epsilon * one_plus - shape.delta
    d_term = shape.epsilon * (one_plus - mn)
    return n_term * (1.0 - 2.0 * normal_cdf(-t)) - (1.0 - u) * d_term


def t_delta(u, shape):
    """Lower-edge threshold: largest root of the heterogeneous-limit balance.

    Scans downward from t = 60 in steps of 0.05 for a sign change, then
    bisects.  A root above 60 has the closed form sqrt(delta/(u eps) - 1).
    Raises ``DivergingRootError`` when delta/(u eps) overflows (u small
    enough that the root is not a finite double) and
    ``InfeasibleRegionError`` when no root exists above the admissible
    threshold range (u beyond the phase-transition cut).
    """
    if not (0.0 < u <= 1.0):
        raise ValueError(f"u must lie in (0, 1], got {u!r}")
    grid = np.arange(_T_MAX, _SCAN_STEP / 2.0, -_SCAN_STEP)
    vals = _lower_gap(grid, u, shape)
    if vals[0] < 0.0:
        # past t = 60, Phi(-t) and mse_null(t) are 0 in double, so G(t) =
        # u eps (1 + t^2) - delta, whose root is above 60 exactly when G(60) < 0
        ue = u * shape.epsilon  # 0 for a subnormal u
        ratio = shape.delta / ue if ue > 0.0 else math.inf
        if not math.isfinite(ratio):
            raise DivergingRootError(
                f"lower-edge root sqrt(delta/(u eps) - 1) overflows at u = {u} for {shape}"
            )
        root = math.sqrt(ratio - 1.0)
    else:
        below = np.nonzero(vals < 0.0)[0]
        if len(below) == 0:
            raise InfeasibleRegionError(
                f"no lower-edge root in (0, {_T_MAX}] at u = {u} for {shape}"
            )
        k = below[0]
        root = brentq(
            lambda t: float(_lower_gap(t, u, shape)),
            grid[k],
            grid[k - 1],
            xtol=1e-13,
            rtol=8.9e-16,
        )
    if root < alpha_min(shape) - 1e-9:
        raise InfeasibleRegionError(
            f"lower-edge root {root:.6f} falls below alpha_min at u = {u} "
            f"(beyond the phase-transition range for {shape})"
        )
    # residual of N(t)/D(t) (1 - 2 Phi(-t)) = 1 - u, which is G(t)/D(t)
    resid = float(_lower_gap(root, u, shape)) / (shape.epsilon * (1.0 + root * root - mse_null(root)))
    if not abs(resid) <= _EQ_TOL:
        raise ConvergenceError(f"lower-edge residual {resid:.2e} at u = {u}")
    return root


def _t_delta_or_inf(u, shape):
    # a root that overflows diverges: t = inf gives FDP 0 and tail mass 0
    try:
        return t_delta(u, shape)
    except DivergingRootError:
        return math.inf


def q_delta(u, shape):
    """Lower edge of the crescent at TPP level u (0 at u = 0)."""
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    if u == 0.0:
        return 0.0
    return _fdp_at(_t_delta_or_inf(u, shape), u, shape.epsilon)


def varsigma(alpha, shape):
    """Normalized homogeneous effect size (minus alpha) calibrated at alpha.

    Solves (1-eps) mse_null(alpha) + eps mse_signal(m, alpha) = delta for the
    largest root m (the equation is strictly increasing in m >= 0, so the
    root is unique once it exists) and returns m - alpha.
    """
    alpha = _check_alpha(alpha)
    eps = shape.epsilon
    mn = mse_null(alpha)
    target = (shape.delta - (1.0 - eps) * mn) / eps

    def f(m):
        return mse_signal(m, alpha) - target

    # f(0) = mse_null(alpha) - target, evaluated as brentq below will see it
    if f(0.0) >= 0.0:
        raise InfeasibleRegionError(
            f"alpha = {alpha} at or below alpha_min for {shape}"
        )
    if target >= 1.0 + alpha * alpha:  # float ** would raise OverflowError
        raise InfeasibleRegionError(
            f"alpha = {alpha} at or below the noiseless floor "
            f"{noiseless_alpha_floor(shape):.6f} for {shape}"
        )

    walk = _bracket_walk(alpha + 5.0, lambda m: 2.0 * m, lambda m: f(m) <= 0.0, tries=61)
    if walk is None:
        raise ConvergenceError(f"failed to bracket mtilde at alpha = {alpha}")
    mtilde = brentq(f, 0.0, walk[1], xtol=1e-13, rtol=8.9e-16)
    resid = (1.0 - eps) * mn + eps * mse_signal(mtilde, alpha) - shape.delta
    if abs(resid) > _EQ_TOL:
        raise ConvergenceError(f"upper-edge residual {resid:.2e} at alpha = {alpha}")
    return mtilde - alpha


def _upper_tpp(alpha, shape):
    return float(excess_prob(varsigma(alpha, shape) + alpha, alpha))


def _mtilde_grid(alphas, shape):
    # vectorized counterpart of the root solve in ``varsigma``
    from scipy.optimize import elementwise

    eps = shape.epsilon
    mn = mse_null(alphas)
    target = (shape.delta - (1.0 - eps) * mn) / eps

    def f(m, a, t):
        return mse_signal(m, a) - t

    args = (alphas, target)
    bracket = elementwise.bracket_root(f, alphas + 5.0, xmin=0.0, args=args).bracket
    root = elementwise.find_root(f, bracket, args=args)
    if not np.all(root.success):  # also false where no bracket was found
        raise ConvergenceError(f"failed to solve mtilde on the upper-edge table for {shape}")
    return root.x


@lru_cache(maxsize=64)
def _upper_tpp_table(delta, epsilon):
    """Coarse decreasing table u(alpha) on the upper edge, for bracketing."""
    shape = ModelShape(delta=delta, epsilon=epsilon, sigma=0.0)
    floor = max(noiseless_alpha_floor(shape), alpha_min(shape))
    step0 = max(1e-9, 1e-9 * floor)
    hi = max(floor + 12.0, math.sqrt(shape.delta / shape.epsilon) + 12.0)
    # geometric refinement toward the floor (u -> 1 there), linear beyond
    near = floor + step0 * np.geomspace(1.0, 1e7, 36)
    far = np.linspace(near[-1] * 2.0 - floor, hi, 480)
    alphas = np.unique(np.concatenate([near, far]))
    mt = _mtilde_grid(alphas, shape)
    us = excess_prob(mt, alphas)
    return floor, alphas, us


def t_nabla(u, shape):
    """Upper-edge threshold at TPP level u, with its varsigma value.

    u(alpha) falls to 0 (from 1 at the noiseless floor), so the root is
    found by monotone bracketing, seeded from a cached coarse table per
    shape.  Returns (alpha, varsigma), or raises ``InfeasibleRegionError``
    where the point found misses u(alpha) = u by more than 1e-9: a u past
    the edge's reach, or one the bracket missed where u(alpha) first rises
    from alpha_min.
    """
    if not (0.0 < u <= 1.0):
        raise ValueError(f"u must lie in (0, 1], got {u!r}")
    floor, alphas, us = _upper_tpp_table(shape.delta, shape.epsilon)

    def gap(a):
        return _upper_tpp(a, shape) - u

    # us decreases with alpha: find the first table entry at or below u
    k = int(np.searchsorted(-us, -u))
    if k == 0:
        # u above the whole table: shrink the lower end's width above the
        # floor; a width below the resolution ends the walk untested
        tol = 1e-15 * max(1.0, floor)
        _, width = _bracket_walk(
            alphas[0] - floor,
            lambda w: w / 64.0,
            lambda w: w >= tol and gap(floor + w) < 0.0,
        )
        lo, hi = floor + width, alphas[0]
        if width < tol:
            hi = lo
    elif k >= len(alphas):
        walk = _bracket_walk(
            2.0 * alphas[-1], lambda a: 2.0 * a, lambda a: gap(a) > 0.0, prev=alphas[-1]
        )
        if walk is None:
            raise ConvergenceError(f"failed to bracket upper-edge root at u = {u}")
        lo, hi = walk
    else:
        lo, hi = alphas[max(k - 1, 0)], alphas[k]
    alpha = lo if lo == hi else brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16)
    vs = varsigma(alpha, shape)
    resid = float(excess_prob(vs + alpha, alpha)) - u
    if not abs(resid) <= _EQ_TOL:
        raise InfeasibleRegionError(
            f"upper edge misses u = {u} at alpha = {alpha:.6f} by {resid:.2e} for {shape}"
        )
    return alpha, vs


def q_nabla(u, shape):
    """Upper edge of the crescent at TPP level u."""
    t, _ = t_nabla(u, shape)
    return _fdp_at(t, u, shape.epsilon)


def crescent(shape, n_points=99):
    """Both crescent edges sampled on the even TPP grid j/(n_points+1).

    Where the shape sits above the phase transition the grid is truncated to
    the feasible u-range (callers can compare the returned u values against
    the requested grid); an entirely infeasible shape raises
    ``InfeasibleRegionError``.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    if shape.sigma != 0.0:
        raise ValueError("crescent edges are defined for noiseless shapes (sigma = 0)")
    points = []
    for j in range(1, n_points + 1):
        u = j / (n_points + 1.0)
        try:
            td = _t_delta_or_inf(u, shape)
            qd = _fdp_at(td, u, shape.epsilon)
            tn, vs = t_nabla(u, shape)
            qn = _fdp_at(tn, u, shape.epsilon)
        except InfeasibleRegionError:
            continue
        points.append(
            CrescentPoint(u=u, t_delta=td, q_delta=qd, varsigma=vs, t_nabla=tn, q_nabla=qn)
        )
    if not points:
        raise InfeasibleRegionError(f"no feasible TPP level for {shape}")
    return points


def touching_points(gamma, shape):
    """TPP levels where a geometric-ladder prior's curve meets the lower edge.

    ``gamma`` is the mass split over the ladder rungs (positive, summing to
    one).  In the limit of unbounded separation between rungs the curve
    touches the lower edge once per proper suffix mass g of gamma, at the
    root of

        h(u) = u - 2 Phi(-t_delta(u)) (1 - g) - g,

    found by one ``brentq`` on [g, 1], where h(g) <= 0 <= h(1).
    The full-mass suffix g = 1 gives u = 1 exactly, where the crescent
    closes.  Returns [(u_1, q_delta(u_1)), ...] sorted by increasing u; the
    first len(gamma) - 1 entries are interior touching levels.
    """
    gamma = [float(g) for g in gamma]
    if not gamma or any(not math.isfinite(g) or g <= 0.0 for g in gamma):
        raise ValueError("gamma must be a nonempty list of positive weights")
    if abs(sum(gamma) - 1.0) > 1e-12:
        raise ValueError(f"gamma sums to {sum(gamma)}, expected 1")
    suffix = np.cumsum(gamma[::-1])[::-1]  # suffix[i] = gamma_i + ... + gamma_m

    def h(u, g):
        return u - 2.0 * normal_cdf(-_t_delta_or_inf(u, shape)) * (1.0 - g) - g

    points = []
    for g in suffix:
        if g >= 1.0 - 1e-15:
            u = 1.0
        else:
            u = brentq(h, g, 1.0, args=(g,), xtol=1e-13, rtol=8.9e-16)
            resid = h(u, g)
            if abs(resid) > _EQ_TOL:
                raise ConvergenceError(
                    f"touching-point residual {resid:.2e} at suffix mass {g}"
                )
        points.append((float(u), q_delta(u, shape)))
    points.sort(key=lambda p: p[0])
    return points
