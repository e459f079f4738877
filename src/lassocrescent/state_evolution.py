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

``scipy.optimize`` is imported on the first root solve, through the module's
``brentq``, not with this module: the simulation half (``lasso_path``,
``harness``) imports this module for ``DiscretePrior`` but never solves a
root, and the import costs each of its processes ~0.15-0.2 s and ~17 MB
(2-vCPU VM).  ``crescent`` solves its roots through the same ``brentq``,
which keeps that name because ``perfbench/tracing.py`` wraps it.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, InfeasibleRegionError
# Unchecked kernels, bound to the public names that perfbench/tracing.py wraps
from .gauss import _cdf as normal_cdf, _excess_prob as excess_prob
from .gauss import _mse_null as mse_null, _mse_signal as mse_signal

_RESIDUAL_TOL = 1e-10
# Usable range of theta = 1/tau hints.  The bracket walk itself is bounded by
# its step count (8**40 either way), not by a range: atom magnitudes of 1e15
# and beyond push the solution theta far below 1e-14.
_THETA_MIN = 1e-18
_THETA_MAX = 1e18


def brentq(f, a, b, **kwargs):
    """``scipy.optimize.brentq``, imported on first use (see the module
    docstring), with its failure to converge raised as ``ConvergenceError``."""
    from scipy.optimize import brentq

    try:
        return brentq(f, a, b, **kwargs)
    except (InfeasibleRegionError, ConvergenceError):  # raised by f
        raise
    except RuntimeError as exc:  # "Failed to converge after 100 iterations."
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
        total = self.null_mass + sum(p for _, p in atoms)
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
        try:
            values = [float(base) ** i for i in range(1, m + 1)]
        except OverflowError:
            raise ValueError(f"base**{m} overflows") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"base**{m} overflows")
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
    return brentq(lambda a: mse_null(a) - delta, 0.0, 40.0, xtol=1e-13)


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
    a = np.asarray(alpha, dtype=float)
    return (
        (1.0 - shape.epsilon) * mse_null(a)
        + shape.epsilon * (1.0 + np.square(a))
        - shape.delta
    )


@lru_cache(maxsize=256)
def _noiseless_floor_cached(delta, epsilon):
    shape = ModelShape(delta=delta, epsilon=epsilon, sigma=0.0)
    # N(a) >= eps > 0 at a^2 = delta/eps, so the scan ends above the largest root
    hi = max(60.0, math.sqrt(delta / epsilon))
    if not math.isfinite(hi):  # delta/eps overflows
        raise ConvergenceError(f"noiseless floor search failed: scan cap {hi} for {shape}")
    grid = np.linspace(0.0, hi, 2401)
    vals = _null_excess(grid, shape)
    if vals[-1] <= 0.0:
        raise ConvergenceError(
            f"noiseless floor search failed: N({hi}) = {vals[-1]} <= 0 for {shape}"
        )
    neg = np.nonzero(vals < 0.0)[0]
    if len(neg) == 0:
        return 0.0
    k = neg[-1]  # last sign change from below zero to above
    return brentq(lambda a: float(_null_excess(a, shape)), grid[k], grid[k + 1], xtol=1e-13)


def noiseless_alpha_floor(shape):
    """Largest root of N(alpha) = 0, or 0 when N > 0 everywhere.

    With sigma = 0 the first calibration equation is solvable exactly for
    alpha above this floor; as alpha decreases to it, tau -> 0 and the
    asymptotic TPP increases to 1.
    """
    return _noiseless_floor_cached(shape.delta, shape.epsilon)


def admissible_alpha_lower(prior, shape):
    """Infimum of thresholds alpha at which (tau, lambda) can be calibrated."""
    lo = alpha_min(shape)
    if shape.sigma == 0.0:
        lo = max(lo, noiseless_alpha_floor(shape))
    return lo


def _tau_residual(theta, prior, alpha, shape):
    mse = prior.null_mass * mse_null(alpha) + float(
        np.sum(prior.probs * mse_signal(prior.values * theta, alpha))
    )
    # float ** raises OverflowError where * gives inf; theta = inf (from a
    # subnormal tau) would make 0 * inf = nan at sigma = 0
    st = shape.sigma * theta if shape.sigma else 0.0
    return st * st + mse / shape.delta - 1.0


def solve_tau_given_alpha(prior, alpha, shape, theta_hint=None):
    """Solve the first calibration equation for tau at threshold alpha.

    The equation is solved for theta = 1/tau, in which the normalized
    residual is strictly increasing.  From ``theta_hint`` (or the default
    1/sqrt(sigma^2 + E[Pi^2]/delta)) the bracket walks by factors of 8, at
    most 40 times, toward the sign change before Brent refinement.  Raises
    ``InfeasibleRegionError`` when alpha is at or below the admissible lower
    bound for this shape.
    """
    _require_matching_sparsity(prior, shape)
    alpha = _check_alpha(alpha)

    def g(theta):
        return _tau_residual(theta, prior, alpha, shape)

    # quick feasibility screens: R(0+) >= 0 or R(inf) <= 0 mean no root
    if mse_null(alpha) >= shape.delta:
        raise InfeasibleRegionError(
            f"alpha = {alpha} is at or below alpha_min for delta = {shape.delta}"
        )
    if shape.sigma == 0.0 and _null_excess(alpha, shape) <= 0.0:
        raise InfeasibleRegionError(
            f"alpha = {alpha} is at or below the noiseless floor "
            f"{noiseless_alpha_floor(shape):.6f} for {shape}"
        )

    if theta_hint is not None and _THETA_MIN < theta_hint < _THETA_MAX:
        center = theta_hint
    else:
        try:  # sigma or atoms beyond ~1.3e154 overflow the square
            with np.errstate(over="ignore"):
                scale = math.sqrt(shape.sigma**2 + prior.second_moment() / shape.delta)
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):  # hypot factors out max|v| instead
            terms = prior.values * np.sqrt(prior.probs / shape.delta)
            scale = math.hypot(shape.sigma, *terms)
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
    theta = brentq(g, min(walk), max(walk), xtol=1e-300, rtol=8.9e-16, maxiter=200)
    if abs(g(theta)) > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"tau equation residual {g(theta):.2e} exceeds {_RESIDUAL_TOL} "
            f"at alpha = {alpha}"
        )
    return 1.0 / theta


def _exceedance(prior, alpha, tau):
    # P(|Pi + tau W| > alpha tau), split over the null mass and the atoms
    tail = float(np.sum(prior.probs * excess_prob(prior.values / tau, alpha)))
    return prior.null_mass * 2.0 * normal_cdf(-alpha) + tail


def _lambda_given_tau(prior, alpha, shape, tau):
    return (1.0 - _exceedance(prior, alpha, tau) / shape.delta) * alpha * tau


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
    r1 = _tau_residual(1.0 / point.tau, prior, alpha, point.shape)
    lam = _lambda_given_tau(prior, alpha, point.shape, point.tau)
    r2 = (point.lam - lam) / max(1.0, abs(lam))
    return r1, r2


def solve_alpha_given_lambda(prior, lam, shape):
    """Invert the lambda calibration: find alpha with lambda(alpha) = lam.

    lambda(alpha) is strictly increasing on the admissible range, tending to 0
    (or below) at the lower end and to infinity with alpha, so the root is
    bracketed by geometric expansion.  Raises ``InfeasibleRegionError`` with
    the achievable lambda range if ``lam`` cannot be attained.
    """
    _require_matching_sparsity(prior, shape)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    floor = admissible_alpha_lower(prior, shape)

    def lam_at(a):
        return lambda_of_alpha(prior, a, shape)

    walk = _bracket_walk(
        floor + max(1e-6, 1e-6 * floor),
        lambda a: floor + (a - floor) / 8.0,
        lambda a: lam_at(a) >= lam,
    )
    if walk is None:
        raise InfeasibleRegionError(
            f"lambda = {lam} is below the achievable range near alpha = {floor:.6g}"
        )
    a_lo = walk[1]
    walk = _bracket_walk(
        max(2.0 * a_lo, 1.0), lambda a: 2.0 * a, lambda a: lam_at(a) <= lam, prev=a_lo
    )
    if walk is None:
        raise InfeasibleRegionError(f"lambda = {lam} exceeds the achievable range")
    a_lo, a_hi = walk
    alpha = brentq(lambda a: lam_at(a) - lam, a_lo, a_hi, xtol=1e-13, rtol=8.9e-16)
    tau = solve_tau_given_alpha(prior, alpha, shape)
    return StateEvolutionPoint(alpha=alpha, tau=tau, lam=lam, shape=shape)


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


def _tradeoff_given_tau(prior, alpha, shape, tau):
    eps = shape.epsilon
    tpp = float(np.sum((prior.probs / eps) * excess_prob(prior.values / tau, alpha)))
    return tpp, _fdp_at(alpha, tpp, eps)


class _CurveSolver:
    """Monotone inversion alpha <-> TPP for one (prior, shape), with warm
    theta hints shared across solves."""

    def __init__(self, prior, shape):
        _require_matching_sparsity(prior, shape)
        self.prior = prior
        self.shape = shape
        self.floor = admissible_alpha_lower(prior, shape)
        self._tau_cache = {}
        self._hint = None

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
        tau = self.tau(alpha)
        return _tradeoff_given_tau(self.prior, alpha, self.shape, tau)[0]

    def lam(self, alpha):
        return _lambda_given_tau(self.prior, alpha, self.shape, self.tau(alpha))

    def feasible_alpha_lo(self):
        """Smallest usable alpha: just above the floor, pushed up to where the
        calibrated penalty becomes positive (the hard phase-transition cut)."""
        a = self.floor + max(1e-7, 1e-7 * self.floor)
        if self.lam(a) > 0.0:
            return a
        walk = _bracket_walk(
            max(2.0 * a, 1.0), lambda x: 2.0 * x, lambda x: self.lam(x) <= 0.0, prev=a
        )
        if walk is None:
            raise InfeasibleRegionError(
                f"calibrated penalty never becomes positive for {self.shape}"
            )
        root = brentq(self.lam, *walk, xtol=1e-13, rtol=8.9e-16)
        return root + max(1e-9, 1e-9 * root)

    def walk_up(self, a_min, tpp, cap):
        """Walk alpha up from max(4 a_min, 4) by factors of 1.5 to the first
        point with TPP <= ``tpp``, or past ``cap``; returns (end, cap used)."""
        a_start = max(4.0 * a_min, 4.0)
        cap = max(a_start, cap)
        _, end = _bracket_walk(
            a_start, lambda a: 1.5 * a, lambda a: a <= cap and self.tpp(a) > tpp
        )
        return end, cap

    def alpha_at_tpp(self, target, a_lo, a_hi):
        return brentq(
            lambda a: self.tpp(a) - target, a_lo, a_hi, xtol=1e-13, rtol=8.9e-16
        )


def tradeoff_curve(prior, shape, n_points, tpp_lo=0.01, tpp_hi=0.99):
    """Sample the instance-specific trade-off curve on an even TPP grid.

    The requested [tpp_lo, tpp_hi] window is intersected with the achievable
    TPP range for this prior/shape (the upper end is limited by the
    phase-transition cut where the calibrated penalty reaches zero).  Returns
    a ``TradeoffCurve`` ordered by increasing TPP with at least two points.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not 0.0 < tpp_lo < tpp_hi < 1.0:
        raise ValueError(f"need 0 < tpp_lo < tpp_hi < 1, got ({tpp_lo}, {tpp_hi})")
    solver = _CurveSolver(prior, shape)
    a_min = solver.feasible_alpha_lo()
    u_max_ach = solver.tpp(a_min)

    a_max, _ = solver.walk_up(a_min, tpp_lo, 80.0)
    u_min_ach = solver.tpp(a_max)

    lo = max(tpp_lo, u_min_ach + 1e-12)
    hi = min(tpp_hi, u_max_ach - 1e-12)
    if not lo < hi:
        raise InfeasibleRegionError(
            f"achievable TPP range ({u_min_ach:.4f}, {u_max_ach:.4f}) does not "
            f"meet the requested window ({tpp_lo}, {tpp_hi})"
        )
    targets = np.linspace(lo, hi, n_points)

    # coarse bracketing table on a geometric alpha grid (TPP is decreasing)
    grid = np.geomspace(a_min, a_max, 48)
    grid_u = np.array([solver.tpp(a) for a in grid])

    # geomspace pins grid[0] = a_min and grid[-1] = a_max, so every target lies
    # in (grid_u[-1], grid_u[0]) and its first k with grid_u[k] <= u has 0 < k < 48
    ks = np.searchsorted(-grid_u, -targets)
    out_alpha = np.array(
        [solver.alpha_at_tpp(u, grid[k - 1], grid[k]) for u, k in zip(targets, ks)]
    )

    tpps = np.empty(n_points)
    fdps = np.empty(n_points)
    lams = np.empty(n_points)
    taus = np.empty(n_points)
    for i, a in enumerate(out_alpha):
        tau = solver.tau(a)
        tpps[i], fdps[i] = _tradeoff_given_tau(prior, a, shape, tau)
        lams[i] = _lambda_given_tau(prior, a, shape, tau)
        taus[i] = tau

    order = np.argsort(tpps)
    return TradeoffCurve(
        tpp=tpps[order],
        fdp=fdps[order],
        alpha=out_alpha[order],
        lam=lams[order],
        tau=taus[order],
        prior=prior,
        shape=shape,
    )


def tradeoff_at_tpp(prior, shape, tpp):
    """Point on the instance trade-off curve at a prescribed TPP level."""
    if not math.isfinite(tpp):
        raise ValueError(f"tpp must be finite, got {tpp!r}")
    solver = _CurveSolver(prior, shape)
    a_min = solver.feasible_alpha_lo()
    if not 0.0 < tpp < solver.tpp(a_min):
        raise InfeasibleRegionError(
            f"TPP = {tpp} outside achievable range (0, {solver.tpp(a_min):.6f})"
        )
    a_hi, cap = solver.walk_up(a_min, tpp, 100.0)
    if a_hi > cap:
        raise ConvergenceError(f"failed to bracket TPP = {tpp} from above")
    alpha = solver.alpha_at_tpp(tpp, a_min, a_hi)
    tau = solver.tau(alpha)
    u, q = _tradeoff_given_tau(prior, alpha, shape, tau)
    return u, q, alpha, tau
