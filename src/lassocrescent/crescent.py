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
  priors, whose noiseless trade-off curve does not depend on the magnitude.
  t_nabla(u) is the threshold alpha at which the curve of the magnitude-1
  prior reaches TPP u, found by ``state_evolution``'s curve solver.  There
  the normalized magnitude mtilde = 1/tau solves

      (1-eps) mse_null(alpha) + eps mse_signal(mtilde, alpha) = delta,

  and u = excess_prob(mtilde, alpha); ``varsigma`` reports mtilde - alpha.
  Like every such curve, the edge ends where the calibrated penalty
  reaches 0, or else at u = 1 at the noiseless floor.

Both edges share the FDP form q = 2(1-eps)Phi(-t) / (2(1-eps)Phi(-t) + eps u).

``touching_points`` locates the TPP levels at which the trade-off curve of a
geometric-ladder prior with mass split gamma touches the lower edge (in the
limit of unbounded separation between consecutive effect sizes): one level
per proper suffix mass g of gamma, plus u = 1 where the crescent closes.
That suffix acts like a problem of sparsity g eps: its level is
u = g + (1 - g) 2 Phi(-t), at the noiseless floor t of (delta, g eps).

Like ``state_evolution``, this module imports no part of ``scipy.optimize``
when it is loaded, so that the simulation commands, which load it through
the CLI, never pay for it: ``brentq`` is ``state_evolution.brentq``.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergingRootError, InfeasibleRegionError
# Unchecked kernels and solver helpers, bound to the names that
# perfbench/tracing.py wraps: it patches each of them, called here or not
from .gauss import _cdf as normal_cdf, _excess_prob as excess_prob
from .gauss import _mse_null as mse_null, _mse_signal as mse_signal
from .state_evolution import DiscretePrior, ModelShape, _CurveSolver, _check_alpha
from .state_evolution import _fdp_at, _penalty_factor
from .state_evolution import alpha_min, brentq, noiseless_alpha_floor

_T_MAX = 60.0
_SCAN_STEP = 0.05
_EQ_TOL = 1e-9


@dataclass(frozen=True)
class CrescentPoint:
    """One u-slice of the crescent: both edge parameters and FDP values.

    ``t_delta`` is +inf (with q_delta = 0) only where delta / (u eps)
    overflows, so the lower-edge root is not a finite double; all finite
    parameters satisfy their defining equations to within 1e-9.  Both points
    are Lasso points, with penalty lambda >= 0.
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


def _check_lower_point(t, u, shape):
    # a lower-edge point is a Lasso point, penalty factor >= 0, that solves the
    # balance; the factor goes first, as D(0) = 0 where a floor of 0 gives t = 0
    factor = _penalty_factor(t, u, shape)
    if factor < 0.0:
        raise InfeasibleRegionError(
            f"lower-edge point t = {t:.6f} at u = {u} selects more than delta: "
            f"penalty factor {factor:.3g} below 0 for {shape}"
        )
    # residual of N(t)/D(t) (1 - 2 Phi(-t)) = 1 - u, which is G(t)/D(t)
    resid = float(_lower_gap(t, u, shape)) / (shape.epsilon * (1.0 + t * t - mse_null(t)))
    if not abs(resid) <= _EQ_TOL:
        raise ConvergenceError(f"lower-edge residual {resid:.2e} at u = {u}")


def t_delta(u, shape):
    """Lower-edge threshold: largest root of the heterogeneous-limit balance.

    Scans downward from t = 60 in steps of 0.05 for a sign change, then
    bisects.  A root above 60 has the closed form sqrt(delta/(u eps) - 1).
    Raises ``DivergingRootError`` when delta/(u eps) overflows (u small
    enough that the root is not a finite double) and
    ``InfeasibleRegionError`` when no root exists in (0, 60] or when the
    root's penalty factor 1 - (eps u + 2(1-eps) Phi(-t)) / delta is below 0:
    its point selects more than delta, so it is no Lasso point.
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
    _check_lower_point(root, u, shape)
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


def _upper_solver(shape):
    # the upper edge is the noiseless trade-off curve of equal effect sizes,
    # which does not depend on their magnitude
    if 1.0 - shape.epsilon == 1.0:  # no prior has this null mass in double
        raise InfeasibleRegionError(f"epsilon = {shape.epsilon} rounds 1 - epsilon to 1")
    return _CurveSolver(
        DiscretePrior.homogeneous(shape.epsilon, 1.0), ModelShape(shape.delta, shape.epsilon)
    )


def varsigma(alpha, shape):
    """Normalized homogeneous effect size (minus alpha) calibrated at alpha.

    Returns mtilde - alpha, where mtilde = 1/tau is the noiseless calibration
    of the magnitude-1 homogeneous prior at alpha: the root of
    (1-eps) mse_null(alpha) + eps mse_signal(mtilde, alpha) = delta.
    """
    alpha = _check_alpha(alpha)
    return 1.0 / _upper_solver(shape).tau(alpha) - alpha


def t_nabla(u, shape, solver=None):
    """Upper-edge threshold at TPP level u, with its varsigma value.

    alpha is where the homogeneous prior's noiseless trade-off curve has TPP
    u (``_CurveSolver.alpha_at_tpp``); ``solver``, built by ``_upper_solver``,
    carries its solved points from one level to the next.  Returns
    (alpha, varsigma(alpha, shape)), or raises ``InfeasibleRegionError`` for a
    u past the edge's reach: where the calibrated penalty reaches 0, or above
    the TPP at the noiseless floor.
    """
    if not (0.0 < u <= 1.0):
        raise ValueError(f"u must lie in (0, 1], got {u!r}")
    alpha = (solver or _upper_solver(shape)).alpha_at_tpp(u)
    return alpha, varsigma(alpha, shape)


def q_nabla(u, shape):
    """Upper edge of the crescent at TPP level u."""
    t, _ = t_nabla(u, shape)
    return _fdp_at(t, u, shape.epsilon)


def crescent(shape, n_points=99):
    """Both crescent edges sampled on the even TPP grid j/(n_points+1).

    The grid ends where the upper edge meets the penalty cut, lambda = 0
    (callers can compare the returned u values against the requested grid);
    the lower edge, whose threshold is the larger, reaches at least as far.
    An entirely infeasible shape raises ``InfeasibleRegionError``.
    """
    if isinstance(n_points, bool) or not isinstance(n_points, numbers.Integral) or n_points < 1:
        raise ValueError(f"n_points must be a positive integer, got {n_points!r}")
    if shape.sigma != 0.0:
        raise ValueError("crescent edges are defined for noiseless shapes (sigma = 0)")
    solver = _upper_solver(shape)
    points = []
    for j in range(1, n_points + 1):
        u = j / (n_points + 1.0)
        try:
            td = _t_delta_or_inf(u, shape)
            qd = _fdp_at(td, u, shape.epsilon)
            tn, vs = t_nabla(u, shape, solver)
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
    level u = g + (1 - g) 2 Phi(-t) with t = t_delta(u), and that t is the
    noiseless floor at sparsity g eps, so no root in u is solved.  There
    1 - u = (1 - g)(1 - 2 Phi(-t)), so G(t, u) = 0 reduces to N(t) = (1 - g)
    D(t), the floor equation N = 0 at sparsity g eps.  Above its largest root,
    G(t', u) > (1 - 2 Phi(-t')) [N(t') - (1 - g) D(t')] > 0, so that root is
    t_delta(u).  Where delta / (g eps) is not a finite double, t = inf and
    the level is (g, 0).  The full-mass suffix g = 1 gives u = 1 exactly,
    where the crescent closes.  Returns [(u_1, q_delta(u_1)), ...] sorted by
    increasing u; the first len(gamma) - 1 entries are interior touching
    levels.
    """
    gamma = [float(g) for g in gamma]
    if not gamma or any(not math.isfinite(g) or g <= 0.0 for g in gamma):
        raise ValueError("gamma must be a nonempty list of positive weights")
    if abs(sum(gamma) - 1.0) > 1e-12:
        raise ValueError(f"gamma sums to {sum(gamma)}, expected 1")
    # suffix[i] = gamma_i + ... + gamma_m, as floats, whose overflow never warns
    suffix = np.cumsum(gamma[::-1])[::-1].tolist()
    points = []
    for g in suffix:
        if g >= 1.0 - 1e-15:
            points.append((1.0, q_delta(1.0, shape)))
            continue
        ge = g * shape.epsilon
        finite = ge > 0.0 and math.isfinite(shape.delta / ge)
        t = noiseless_alpha_floor(ModelShape(shape.delta, ge)) if finite else math.inf
        u = float(g + (1.0 - g) * 2.0 * normal_cdf(-t))
        if finite:
            _check_lower_point(t, u, shape)
        points.append((u, _fdp_at(t, u, shape.epsilon)))
    points.sort(key=lambda p: p[0])
    return points
