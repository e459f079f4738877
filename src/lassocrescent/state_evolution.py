"""State evolution for the Lasso with an i.i.d. Gaussian design.

In the proportional regime (n/p -> delta, coefficients drawn i.i.d. from an
eps-sparse prior, noise level sigma) the Lasso estimate at penalty lambda
behaves marginally like a soft-thresholded Gaussian observation of the truth:
eta(Pi + tau W; alpha tau) with W ~ N(0,1).  The pair (alpha, tau) is pinned
down by two calibration equations,

    tau^2   = sigma^2 + E[ (eta(Pi + tau W; alpha tau) - Pi)^2 ] / delta
    lambda  = alpha tau (1 - P(|Pi + tau W| > alpha tau) / delta),

and the asymptotic true/false positive proportions are read off from the
exceedance probabilities.  This module solves the calibration equations for
discrete priors and produces instance-specific TPP/FDP trade-off curves.

The first equation is solved in the variable theta = 1/tau, in which the
(normalized, dimensionless) residual

    R(theta) = sigma^2 theta^2
             + [ (1-eps) mse_null(alpha) + sum_i p_i mse_signal(v_i theta, alpha) ] / delta
             - 1

is strictly increasing, so bracketed root finding is safe.  For sigma = 0 the
limit R(inf) equals N(alpha)/delta, where

    N(alpha) = (1-eps) mse_null(alpha) + eps (1 + alpha^2) - delta

does not depend on the atom values; the equation is solvable exactly when
N(alpha) > 0, i.e. above the noiseless floor returned by
``noiseless_alpha_floor``.

Every root of the theory half, here and in ``crescent``, is solved by this
module's ``brentq`` to full double precision; no call site picks its own
tolerance.  The wrapper keeps that name because ``perfbench/tracing.py``
wraps it.  It imports ``scipy.optimize`` on the first root solve, not with
this module: the simulation half (``lasso_path``, ``harness``) imports this
module for ``DiscretePrior`` but never solves a root, and the import costs
each of its processes ~0.15-0.2 s and ~17 MB (2-vCPU VM).
"""

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, InfeasibleRegionError
# Unchecked kernels, bound to the public names that perfbench/tracing.py wraps
from .gauss import _cdf as normal_cdf, _excess_prob as excess_prob, _pdf as normal_pdf
from .gauss import _mse_null as mse_null, _mse_signal as mse_signal

_RESIDUAL_TOL = 1e-10
_T_MAX = 60.0  # bracket end of the noiseless roots, where mse_null has underflowed to 0
_TPP_WINDOW = (0.01, 0.99)  # the TPP range tradeoff_curve samples, where achievable


def brentq(f, a, b):
    """The root of f on [a, b] to full double precision: ``scipy.optimize.brentq``
    at xtol=1e-300, rtol=8.9e-16 (4 ulps), maxiter=200, imported on first use,
    with its failure to converge raised as ``ConvergenceError``."""
    from scipy.optimize import brentq

    try:
        return brentq(f, a, b, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    except (InfeasibleRegionError, ConvergenceError):  # raised by f
        raise
    except RuntimeError as exc:  # "Failed to converge after 200 iterations."
        raise ConvergenceError(f"brentq on [{a}, {b}]: {exc}") from exc


@dataclass(frozen=True)
class ModelShape:
    """Problem shape: aspect ratio delta = n/p, sparsity eps, noise sigma."""

    delta: float
    epsilon: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be a positive finite number, got {self.delta!r}")
        if not (math.isfinite(self.epsilon) and 0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie strictly in (0, 1), got {self.epsilon!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma!r}")


@dataclass(frozen=True)
class DiscretePrior:
    """A sparse discrete prior: P(v_i) = p_i on nonzero atoms, P(0) = null_mass.

    ``atoms`` is a tuple of (value, probability) pairs with distinct nonzero
    values and positive probabilities; together with ``null_mass`` the
    probabilities must sum to one.
    """

    atoms: tuple[tuple[float, float], ...]
    null_mass: float

    def __post_init__(self):
        atoms = tuple((float(v), float(p)) for v, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("prior needs at least one nonzero atom")
        vals = [v for v, _ in atoms]
        if any(not math.isfinite(v) or v == 0.0 for v in vals):
            raise ValueError("atom values must be finite and nonzero")
        if len(set(vals)) != len(vals):
            raise ValueError("atom values must be distinct")
        if any(not math.isfinite(p) or p <= 0.0 for _, p in atoms):
            raise ValueError("atom probabilities must be positive")
        total = math.fsum([self.null_mass, *(p for _, p in atoms)])
        if not math.isfinite(self.null_mass) or not 0.0 <= self.null_mass < 1.0:
            raise ValueError(f"null_mass must lie in [0, 1), got {self.null_mass!r}")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def homogeneous(cls, epsilon: float, magnitude: float):
        """Single-effect-size prior: magnitude with probability epsilon."""
        return cls(atoms=((magnitude, epsilon),), null_mass=1.0 - epsilon)

    @classmethod
    def heterogeneous(cls, epsilon: float, m: int, base: float):
        """Geometric ladder of m atoms base^1, ..., base^m, equal mass eps/m."""
        if m < 1:
            raise ValueError("m must be at least 1")
        # refuse before building the m atoms what __post_init__ would refuse:
        # repeated values, and a last atom |base|**m that leaves the float range
        base = float(base)
        size = abs(base)
        if size == 1.0 and m > (1 if base > 0.0 else 2):
            raise ValueError("atom values must be distinct")
        try:
            last = size**m
        except OverflowError:  # the power, or m itself, is past the float range
            last = math.inf if size > 1.0 else 0.0
        if not math.isfinite(last):
            raise ValueError(f"base**{m} overflows")
        if last == 0.0:
            raise ValueError("atom values must be finite and nonzero")
        values = [base**i for i in range(1, m + 1)]
        return cls(
            atoms=tuple((v, epsilon / m) for v in values),
            null_mass=1.0 - epsilon,
        )

    @classmethod
    def from_levels(
        cls, epsilon: float, values: tuple[float, ...], weights: tuple[float, ...] = None
    ):
        """Atoms at ``values`` carrying total mass epsilon split by ``weights``
        (uniform when omitted)."""
        values = [float(v) for v in values]
        if weights is None:
            weights = [1.0] * len(values)
        weights = [float(w) for w in weights]
        if len(weights) != len(values):
            raise ValueError("values and weights must have the same length")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        wsum = sum(weights)
        return cls(
            atoms=tuple((v, epsilon * w / wsum) for v, w in zip(values, weights)),
            null_mass=1.0 - epsilon,
        )

    @cached_property
    def values(self):
        return np.array([v for v, _ in self.atoms])

    @cached_property
    def probs(self):
        return np.array([p for _, p in self.atoms])

    @property
    def epsilon(self):
        return 1.0 - self.null_mass

    def second_moment(self):
        return float(np.sum(self.probs * np.square(self.values)))


@dataclass(frozen=True)
class StateEvolutionPoint:
    """A solved calibration point (alpha, tau, lam) for a given shape."""

    alpha: float
    tau: float
    lam: float
    shape: ModelShape


@dataclass(frozen=True)
class TradeoffCurve:
    """Sampled instance-specific trade-off curve, ordered by increasing TPP."""

    tpp: np.ndarray
    fdp: np.ndarray
    alpha: np.ndarray
    lam: np.ndarray
    tau: np.ndarray
    prior: DiscretePrior
    shape: ModelShape


def _bracket_walk(x, step, ahead, tries=41, prev=None):
    """Step x -> step(x) while ahead(x) holds, testing at most ``tries`` points.

    Returns (prev, x) for the first x where ``ahead`` fails, prev being the
    point tested before it (the ``prev`` argument if x is the start), or None
    when every point holds.
    """
    for _ in range(tries):
        if not ahead(x):
            return prev, x
        prev, x = x, step(x)
    return None


def _check_alpha(alpha):
    if not isinstance(alpha, float):  # np.float64 is a float and passes as is
        alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be nonnegative, got {alpha!r}")
    return alpha


def _require_matching_sparsity(prior, shape):
    if abs(prior.epsilon - shape.epsilon) > 1e-9:
        raise ValueError(
            f"prior has nonzero mass {prior.epsilon} but shape.epsilon = {shape.epsilon}"
        )


@lru_cache(maxsize=256)
def _alpha_min_cached(delta):
    # unique root of mse_null(a) = delta on (0, inf); mse_null decreases 1 -> 0
    return brentq(lambda a: mse_null(a) - delta, 0.0, 40.0)


def alpha_min(shape):
    """Smallest normalized threshold at which the null equation is solvable.

    Zero when delta >= 1; otherwise the unique root of
    ``mse_null(alpha) = delta`` (equivalently
    2[(1 + a^2) Phi(-a) - a phi(a)] = delta).
    """
    if shape.delta >= 1.0:
        return 0.0
    return _alpha_min_cached(shape.delta)


def _null_excess(alpha, shape):
    # N(alpha): sign decides noiseless solvability; independent of atom values
    eps = shape.epsilon
    return (1.0 - eps) * mse_null(alpha) + eps * (1.0 + alpha * alpha) - shape.delta


@lru_cache(maxsize=256)
def _noiseless_floor_cached(delta, eps):
    shape = ModelShape(delta=delta, epsilon=eps, sigma=0.0)
    excess = lambda a: _null_excess(a, shape)
    if excess(_T_MAX) <= 0.0:
        root = math.sqrt(delta / eps - 1.0)
        if not math.isfinite(root):
            raise ConvergenceError(f"noiseless floor sqrt(delta/eps - 1) overflows for {shape}")
        return root
    # N is convex (mse_null'' = 4 Phi(-t)), and its slope
    # N'(t) = 2 eps t - 4 (1 - eps)(phi(t) - t Phi(-t)) rises from
    # -4 (1 - eps) phi(0) at 0 to 120 eps at 60
    slope = lambda t: 2.0 * eps * t - 4.0 * (1.0 - eps) * (normal_pdf(t) - t * normal_cdf(-t))
    t_m = brentq(slope, 0.0, _T_MAX)
    if excess(t_m) >= 0.0:
        return 0.0
    return brentq(excess, t_m, _T_MAX)


def noiseless_alpha_floor(shape):
    """Largest root of N(alpha) = 0, or 0 when N > 0 everywhere.

    With sigma = 0 the first calibration equation is solvable exactly for
    alpha above this floor; as alpha decreases to it, tau -> 0 and the
    asymptotic TPP increases to 1.  Where N(60) <= 0 the root lies above 60,
    where N(alpha) = eps (1 + alpha^2) - delta in double, and is
    sqrt(delta/eps - 1).  Otherwise N, which is convex, is negative
    somewhere exactly where it is at its minimiser t_m, the root of N' on
    [0, 60], and then the root is bracketed by [t_m, 60].  Raises
    ``ConvergenceError`` only where delta/eps overflows.
    """
    return _noiseless_floor_cached(shape.delta, shape.epsilon)


def admissible_alpha_lower(prior, shape):
    """Infimum of thresholds alpha at which (tau, lambda) can be calibrated."""
    lo = alpha_min(shape)
    if shape.sigma == 0.0:
        lo = max(lo, noiseless_alpha_floor(shape))
    return lo


def _tau_residual(theta, prior, alpha, null, shape):
    # null = prior.null_mass * mse_null(alpha), which does not depend on theta
    mse = null + float(np.sum(prior.probs * mse_signal(prior.values * theta, alpha)))
    # float ** raises OverflowError where * gives inf; theta = inf (from a
    # subnormal tau) would make 0 * inf = nan at sigma = 0
    st = shape.sigma * theta if shape.sigma else 0.0
    return st * st + mse / shape.delta - 1.0


def solve_tau_given_alpha(prior, alpha, shape, theta_hint=None):
    """Solve the first calibration equation for tau at threshold alpha.

    The equation is solved for theta = 1/tau, in which the normalized
    residual is strictly increasing.  From ``theta_hint``, where positive and
    finite (else from 1/sqrt(sigma^2 + E[Pi^2]/delta)), the bracket walks by
    factors of 8, at most 40 times, toward the sign change before Brent
    refinement.  Raises ``InfeasibleRegionError`` when alpha is at or below
    the admissible lower bound for this shape.
    """
    _require_matching_sparsity(prior, shape)
    alpha = _check_alpha(alpha)
    mn = mse_null(alpha)
    null = prior.null_mass * mn
    seen = {}  # the walk repeats the sign test's point, brentq the walk's, the check its own

    def g(theta):
        r = seen.get(theta)
        if r is None:
            r = seen[theta] = _tau_residual(theta, prior, alpha, null, shape)
        return r

    # quick feasibility screens: R(0+) >= 0 or R(inf) <= 0 mean no root
    if mn >= shape.delta:
        raise InfeasibleRegionError(
            f"alpha = {alpha} is at or below alpha_min for delta = {shape.delta}"
        )
    if shape.sigma == 0.0 and _null_excess(alpha, shape) <= 0.0:
        raise InfeasibleRegionError(
            f"alpha = {alpha} is at or below the noiseless floor "
            f"{noiseless_alpha_floor(shape):.6f} for {shape}"
        )

    if theta_hint is not None and 0.0 < theta_hint < math.inf:
        center = theta_hint
    else:  # hypot factors out the largest term, so sigma or atoms past 1e154 do not overflow
        scale = math.hypot(shape.sigma, *(prior.values * np.sqrt(prior.probs / shape.delta)))
        center = 1.0 / scale if scale > 0 else 1.0
    # The residual is exactly 0 over long stretches where it saturates, so
    # each walk stops at the first point not strictly on its starting side.
    if g(center) > 0.0:
        walk = _bracket_walk(center, lambda t: t / 8.0, lambda t: g(t) > 0.0)
    else:
        walk = _bracket_walk(
            center, lambda t: 8.0 * t, lambda t: g(t) < 0.0, prev=center / 8.0
        )
    if walk is None:
        raise ConvergenceError(f"no sign change for tau equation near theta = {center}")
    theta = brentq(g, min(walk), max(walk))
    if abs(g(theta)) > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"tau equation residual {g(theta):.2e} exceeds {_RESIDUAL_TOL} "
            f"at alpha = {alpha}"
        )
    return 1.0 / theta


def _penalty_factor(t, u, shape):
    # 1 - P(|Pi + tau W| > t tau) / delta at threshold t and TPP u, so that
    # lambda = alpha tau factor; below 0 the point selects more than n variables
    return 1.0 - (shape.epsilon * u + 2.0 * (1.0 - shape.epsilon) * normal_cdf(-t)) / shape.delta


def _lambda_given_tau(prior, alpha, shape, tau):
    u = _tpp_given_tau(prior, alpha, shape, tau)
    return _penalty_factor(alpha, u, shape) * alpha * tau


def lambda_of_alpha(prior, alpha, shape):
    """Penalty level lambda calibrated to the threshold alpha."""
    tau = solve_tau_given_alpha(prior, alpha, shape)
    return _lambda_given_tau(prior, alpha, shape, tau)


def equation_residuals(prior, point):
    """Normalized residuals (first equation, lambda equation) of a solved point."""
    alpha = _check_alpha(point.alpha)
    if not (math.isfinite(point.tau) and point.tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {point.tau!r}")
    if not math.isfinite(point.lam):
        raise ValueError(f"lam must be finite, got {point.lam!r}")
    null = prior.null_mass * mse_null(alpha)
    r1 = _tau_residual(1.0 / point.tau, prior, alpha, null, point.shape)
    lam = _lambda_given_tau(prior, alpha, point.shape, point.tau)
    r2 = (point.lam - lam) / max(1.0, abs(lam))
    return r1, r2


def solve_alpha_given_lambda(prior, lam, shape):
    """Invert the lambda calibration: find alpha with lambda(alpha) = lam.

    lambda(alpha) is strictly increasing on the admissible range, tending to 0
    (or below) at the lower end and to infinity with alpha; the root is found
    by ``_CurveSolver.alpha_at_lambda``.  Raises ``InfeasibleRegionError``
    with the achievable lambda range if ``lam`` cannot be attained.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    solver = _CurveSolver(prior, shape)
    alpha = solver.alpha_at_lambda(lam)
    if alpha is None and solver.lam(solver.start) > lam:
        raise InfeasibleRegionError(
            f"lambda = {lam} is below the achievable range near alpha = {solver.floor:.6g}"
        )
    if alpha is None:
        raise InfeasibleRegionError(f"lambda = {lam} exceeds the achievable range")
    return StateEvolutionPoint(alpha=alpha, tau=solver.tau(alpha), lam=lam, shape=shape)


def tradeoff_point(prior, alpha, shape):
    """Asymptotic (TPP, FDP) of the Lasso calibrated at threshold alpha."""
    _require_matching_sparsity(prior, shape)
    tau = solve_tau_given_alpha(prior, alpha, shape)
    return _tradeoff_given_tau(prior, alpha, shape, tau)


def _fdp_at(t, u, epsilon):
    # asymptotic FDP at threshold t and TPP u: the share of null selections
    null_rate = 2.0 * (1.0 - epsilon) * normal_cdf(-t)
    denom = null_rate + epsilon * u
    return null_rate / denom if denom > 0.0 else 0.0


def _tpp_given_tau(prior, alpha, shape, tau):
    return float(np.sum((prior.probs / shape.epsilon) * excess_prob(prior.values / tau, alpha)))


def _tradeoff_given_tau(prior, alpha, shape, tau):
    tpp = _tpp_given_tau(prior, alpha, shape, tau)
    return tpp, _fdp_at(alpha, tpp, shape.epsilon)


class _CurveSolver:
    """Monotone inversion alpha <-> TPP or lambda for one (prior, shape), with
    warm theta hints shared across solves.  Each bracket comes from one of two
    walks in alpha: up by doublings (``walk_doubling``), or toward the floor
    by factors of 8 down to its resolution (``walk_to_floor``)."""

    def __init__(self, prior, shape):
        _require_matching_sparsity(prior, shape)
        self.prior = prior
        self.shape = shape
        self.floor = admissible_alpha_lower(prior, shape)
        self.start = self.floor + max(1e-7, 1e-7 * self.floor)
        self._tau_cache = {}
        self._hint = None
        self._tpp = {}
        self._alphas = []  # the keys of _tpp, ascending

    def tau(self, alpha):
        tau = self._tau_cache.get(alpha)
        if tau is None:
            tau = solve_tau_given_alpha(
                self.prior, alpha, self.shape, theta_hint=self._hint
            )
            self._hint = 1.0 / tau
            self._tau_cache[alpha] = tau
        return tau

    def tpp(self, alpha):
        u = self._tpp.get(alpha)
        if u is None:
            u = _tpp_given_tau(self.prior, alpha, self.shape, self.tau(alpha))
            self._tpp[alpha] = u
            bisect.insort(self._alphas, alpha)
        return u

    def lam(self, alpha):
        return _lambda_given_tau(self.prior, alpha, self.shape, self.tau(alpha))

    @cached_property
    def alpha_lo(self):
        """``feasible_alpha_lo()``, found once per solver."""
        return self.feasible_alpha_lo()

    def feasible_alpha_lo(self):
        """Smallest usable alpha: ``start``, just above the floor, pushed up to
        where the calibrated penalty becomes positive (the penalty cut)."""
        if self.lam(self.start) > 0.0:
            return self.start
        root = self.alpha_at_lambda(0.0)
        if root is None:
            raise InfeasibleRegionError(
                f"calibrated penalty never becomes positive for {self.shape}"
            )
        return root + max(1e-9, 1e-9 * root)

    def walk_doubling(self, a, ahead):
        """(prev, x) around the first of max(2a, 1) and its doublings where
        ``ahead`` fails, prev being a at the start; None after 41 points."""
        return _bracket_walk(max(2.0 * a, 1.0), lambda x: 2.0 * x, ahead, prev=a)

    def walk_to_floor(self, ahead):
        """(prev, x) around the first point where ``ahead`` fails as the gap
        from ``start`` to the floor shrinks by factors of 8; None where it
        holds down to the resolution of alpha, 1e-15 max(1, floor)."""
        floor = self.floor
        tol = 1e-15 * max(1.0, floor)
        step = lambda x: floor + (x - floor) / 8.0
        walk = _bracket_walk(self.start, step, lambda x: x - floor >= tol and ahead(x))
        return walk if walk and walk[1] - floor >= tol else None

    def alpha_at_lambda(self, target):
        """Threshold at which the calibrated penalty equals ``target``, or None
        where no bracket is found: alpha walks from ``start`` to the floor
        while the penalty is above the target, else up."""
        lam = self.lam
        if lam(self.start) > target:
            walk = self.walk_to_floor(lambda x: lam(x) > target)
        else:
            walk = self.walk_doubling(self.start, lambda x: lam(x) <= target)
        return None if walk is None else brentq(lambda x: lam(x) - target, *sorted(walk))

    def tpp_low_end(self, target):
        """First point of the up-walk from ``alpha_lo`` with TPP <= ``target``,
        or the first past alpha = max(100, 4 alpha_lo)."""
        cap = max(100.0, 4.0 * self.alpha_lo)
        return self.walk_doubling(self.alpha_lo, lambda a: a <= cap and self.tpp(a) > target)[1]

    def alpha_at_tpp(self, target):
        """Threshold at which the TPP equals ``target``.

        TPP falls as alpha rises from ``alpha_lo``.  A lower target is reached
        by ``tpp_low_end``; a higher one, where the penalty cut does not bind,
        by ``walk_to_floor`` (as alpha falls to the noiseless floor, TPP rises
        to 1).  The root is then bracketed by the adjacent pair of alphas
        solved so far whose TPP values straddle the target.  Raises
        ``InfeasibleRegionError`` where the point found misses the target by
        more than 1e-9, and where the penalty cut binds below the target.
        """
        a_min = end = self.alpha_lo
        if target <= self.tpp(a_min):
            end = self.tpp_low_end(target)
            if self.tpp(end) > target:
                raise ConvergenceError(f"failed to bracket TPP = {target} from above")
        elif a_min > self.start:
            raise InfeasibleRegionError(
                f"TPP = {target} lies past the curve's end {self.tpp(a_min):.6f}, "
                f"where the calibrated penalty reaches 0, for {self.shape}"
            )
        else:
            self.walk_to_floor(lambda a: self.tpp(a) < target)
        # TPP at ``end`` is at most the target; below it, binary search finds
        # an adjacent pair across the target even where TPP is not monotone
        hi = bisect.bisect_left(self._alphas, end)
        k = bisect.bisect_left(self._alphas, -target, hi=hi, key=lambda a: -self._tpp[a])
        if k == 0:  # no TPP solved so far reaches the target: the nearest point
            alpha = self._alphas[0]
        else:
            lo, hi = self._alphas[k - 1], self._alphas[k]
            alpha = brentq(lambda a: self.tpp(a) - target, lo, hi)
        if not abs(self.tpp(alpha) - target) <= 1e-9:
            raise InfeasibleRegionError(
                f"TPP = {target} outside the achievable range: the nearest point, "
                f"alpha = {alpha:.6f}, has TPP {self.tpp(alpha):.6f} for {self.shape}"
            )
        return alpha


def tradeoff_curve(prior, shape, n_points):
    """Sample the instance-specific trade-off curve on an even TPP grid.

    The grid spans the fixed window [0.01, 0.99] intersected with the
    achievable TPP range for this prior/shape (the upper end is limited by the
    penalty cut where the calibrated penalty reaches zero), and each target is
    solved by ``_CurveSolver.alpha_at_tpp``.  Returns a ``TradeoffCurve``
    ordered by increasing TPP with at least two points.
    """
    if isinstance(n_points, bool) or not isinstance(n_points, numbers.Integral) or n_points < 2:
        raise ValueError(f"n_points must be an integer of at least 2, got {n_points!r}")
    solver = _CurveSolver(prior, shape)
    u_max_ach = solver.tpp(solver.alpha_lo)
    u_min_ach = solver.tpp(solver.tpp_low_end(_TPP_WINDOW[0]))
    lo = max(_TPP_WINDOW[0], u_min_ach + 1e-12)
    hi = min(_TPP_WINDOW[1], u_max_ach - 1e-12)
    if not lo < hi:
        raise InfeasibleRegionError(
            f"achievable TPP range ({u_min_ach:.4f}, {u_max_ach:.4f}) does not "
            f"meet the window {_TPP_WINDOW}"
        )
    alphas = np.array([solver.alpha_at_tpp(u) for u in np.linspace(lo, hi, n_points)])
    taus = np.array([solver.tau(a) for a in alphas])
    tpps = np.array([solver.tpp(a) for a in alphas])
    fdps = np.array([_fdp_at(a, u, shape.epsilon) for a, u in zip(alphas, tpps)])
    lams = _penalty_factor(alphas, tpps, shape) * alphas * taus

    order = np.argsort(tpps)
    return TradeoffCurve(
        tpp=tpps[order],
        fdp=fdps[order],
        alpha=alphas[order],
        lam=lams[order],
        tau=taus[order],
        prior=prior,
        shape=shape,
    )


def tradeoff_at_tpp(prior, shape, tpp):
    """Point on the instance trade-off curve at a prescribed TPP level."""
    if not math.isfinite(tpp):
        raise ValueError(f"tpp must be finite, got {tpp!r}")
    if not tpp > 0.0:
        raise InfeasibleRegionError(f"TPP = {tpp} outside the achievable range (0, 1]")
    solver = _CurveSolver(prior, shape)
    alpha = solver.alpha_at_tpp(tpp)
    u = solver.tpp(alpha)
    return u, _fdp_at(alpha, u, shape.epsilon), alpha, solver.tau(alpha)
