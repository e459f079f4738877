"""Lasso crescent: the envelope boundaries of instance-specific trade-offs.

Over all eps-sparse priors at a fixed shape (delta, eps), the noiseless
asymptotic TPP/FDP pairs of the Lasso sweep out a crescent-shaped region.
This module computes both edges as parametric curves in the TPP level u:

* lower edge ``q_delta``: attained in the limit of maximally heterogeneous
  (infinitely spread-out) effect sizes.  Its threshold t_delta(u) solves a
  balance between the null risk excess

      N(t) = (1-eps) mse_null(t) + eps (1 + t^2) - delta

  and the signal-capacity margin D(t) = eps[(1 + t^2) - mse_null(t)],
  G(t, u) = N(t)(1 - 2 Phi(-t)) - (1 - u) D(t) = 0.  G is linear in u, so
  the edge is the closed-form curve u(t) = 1 - N(t)(1 - 2 Phi(-t)) / D(t).
  On t >= t_cut, where its point selects at most delta (penalty factor
  >= 0), u(t) falls from u(t_cut) toward 0, and t_delta inverts it there.
  t_cut is the noiseless floor, where u = 1, unless the penalty factor is
  below 0 there (delta < 1 past the phase transition, where the floor is
  0); then the edge ends at Su, Bogdan & Candes's (2017) largest achievable
  TPP u*(delta, eps) < 1 (``u_star``).

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
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, InfeasibleRegionError
# Unchecked kernels and solver helpers, bound to the names that
# perfbench/tracing.py wraps: it patches each of them, called here or not
from .gauss import _cdf as normal_cdf, _excess_prob as excess_prob
from .gauss import _mse_null as mse_null, _mse_signal as mse_signal
from .state_evolution import DiscretePrior, ModelShape, _CurveSolver, _check_alpha
from .state_evolution import _fdp_at, _penalty_factor
from .state_evolution import alpha_min, brentq, noiseless_alpha_floor

_T_MAX = 60.0
_EQ_TOL = 1e-9


@dataclass(frozen=True)
class CrescentPoint:
    """One u-slice of the crescent: both edge parameters and FDP values.

    ``t_delta`` is +inf (with q_delta = 0) only where delta / (u eps)
    overflows, so the lower-edge root is not a finite double; all finite
    parameters satisfy their defining equations to within 1e-9.  Both points
    are Lasso points, with penalty lambda >= 0, so u is at most
    ``u_star(shape)``, where the lower edge ends.
    """

    u: float
    t_delta: float
    q_delta: float
    varsigma: float
    t_nabla: float
    q_nabla: float


def _lower_u(t, shape):
    # u(t) = 1 - N(t)(1 - 2 Phi(-t)) / D(t), the level whose balance t solves
    # (G(t, u) is linear in u), as (D - N + 2 N Phi(-t)) / D with
    # D - N = delta - mse_null: 1 - N/D would cancel, and small levels far
    # out would lose their relative precision
    if t == 0.0:  # D(0) = 0 = 1 - 2 Phi(0): the limit t -> 0+
        return 1.0 - (1.0 - shape.delta) / (2.0 * shape.epsilon)
    mn = mse_null(t)
    one_plus = 1.0 + t * t
    n_term = (1.0 - shape.epsilon) * mn + shape.epsilon * one_plus - shape.delta
    d_term = shape.epsilon * (one_plus - mn)
    return float((shape.delta - mn + 2.0 * n_term * normal_cdf(-t)) / d_term)


@lru_cache(maxsize=256)
def _lower_end_cached(delta, epsilon):
    # (t_cut, u(t_cut)): the lower edge is u(t) on [t_cut, inf), where u <= 1
    # (t above the noiseless floor) and the penalty factor along u(t) is >= 0.
    # At the floor u = 1, and the factor there, 1 - (eps + 2(1-eps) Phi(-t)) /
    # delta, is >= 1 - 1/delta.  Where it is below 0 (delta < 1 past the phase
    # transition, where the floor is 0 and the factor tends to
    # (delta - 1) / (2 delta) as t -> 0+), it is 1 - 1/3601 > 0 at t = 60, and
    # t_cut is its one root between
    shape = ModelShape(delta, epsilon)
    floor = noiseless_alpha_floor(shape)
    if _penalty_factor(floor, 1.0, shape) >= 0.0:
        return floor, 1.0
    factor = lambda t: _penalty_factor(t, _lower_u(t, shape), shape)
    cut = brentq(factor, floor, _T_MAX)
    return cut, _lower_u(cut, shape)


def u_star(shape):
    """Largest TPP level on the lower edge, where it ends.

    This is u(t_cut), the level at the smallest threshold t_cut at which the
    lower edge's point selects at most delta (penalty factor >= 0).  It is 1
    for delta >= 1 and below the phase transition, and otherwise Su, Bogdan
    & Candes's (2017) largest achievable TPP
    u* = 1 - (1 - delta)(eps - eps*) / (eps (1 - eps*)), where eps* is the
    phase-transition sparsity.  ``t_delta`` raises above it; at u* < 1
    itself the factor is 0 to rounding, and may round below it.
    """
    return _lower_end_cached(shape.delta, shape.epsilon)[1]


def _check_lower_point(t, u, shape):
    # a lower-edge point is a Lasso point, penalty factor >= 0, that solves the
    # balance; the factor goes first, as D(0) = 0 where a floor of 0 gives t = 0
    factor = _penalty_factor(t, u, shape)
    if factor < 0.0:
        raise InfeasibleRegionError(
            f"lower-edge point t = {t:.6f} at u = {u} selects more than delta: "
            f"penalty factor {factor:.3g} below 0 for {shape}"
        )
    # residual of the balance, u(t) - u = -G(t, u) / D(t)
    resid = _lower_u(t, shape) - u
    if not abs(resid) <= _EQ_TOL:
        raise ConvergenceError(f"lower-edge residual {resid:.2e} at u = {u}")


def t_delta(u, shape):
    """Lower-edge threshold: the t >= t_cut at which u(t) = u.

    The balance G(t, u) = N(t)(1 - 2 Phi(-t)) - (1 - u) D(t) is linear in u,
    so the lower edge is the curve u(t) = 1 - N(t)(1 - 2 Phi(-t)) / D(t).  It
    falls from u(t_cut) = ``u_star(shape)`` toward 0 as t grows, and one
    ``brentq`` on [t_cut, 60] inverts it.  Past t = 60, u(t) = delta /
    (eps (1 + t^2)) in double, whose root is sqrt(delta/(u eps) - 1); where
    that is not a finite double, t = inf.  Raises ``InfeasibleRegionError``
    for u above ``u_star(shape)``, where no point of the edge selects at
    most delta.
    """
    if not (0.0 < u <= 1.0):
        raise ValueError(f"u must lie in (0, 1], got {u!r}")
    if u <= _lower_u(_T_MAX, shape):  # past t = 60: u(t) = delta / (eps (1 + t^2))
        ue = u * shape.epsilon  # 0 for a subnormal u
        root = math.sqrt(shape.delta / ue - 1.0) if ue > 0.0 else math.inf
        if root == math.inf:  # no finite double: the limit, where the FDP is 0
            return root
    else:
        cut, top = _lower_end_cached(shape.delta, shape.epsilon)
        if u > top:
            raise InfeasibleRegionError(
                f"u = {u} lies past the lower edge's end u* = {top!r} for {shape}: "
                f"a root there selects more than delta (penalty factor below 0)"
            )
        gap = lambda t: _lower_u(t, shape) - u
        # at the floor, u(t_cut) = 1 may round a hair below u = 1
        root = cut if gap(cut) <= 0.0 else brentq(gap, cut, _T_MAX)
    _check_lower_point(root, u, shape)
    return root


def q_delta(u, shape):
    """Lower edge of the crescent at TPP level u (0 at u = 0)."""
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    if u == 0.0:
        return 0.0
    return _fdp_at(t_delta(u, shape), u, shape.epsilon)


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
            td = t_delta(u, shape)
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
    where the crescent closes.  For delta < 1 past the phase transition
    (eps > eps*) the lower edge ends below 1, at ``u_star(shape)``, so that
    level, and with it the call, raises ``InfeasibleRegionError``.  Returns
    [(u_1, q_delta(u_1)), ...] sorted by increasing u; the first
    len(gamma) - 1 entries are interior touching levels.
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
