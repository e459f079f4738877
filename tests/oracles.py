"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the library's own closed forms and
solvers: Gaussian moments of the soft threshold are computed by quadrature
(piecewise Gauss-Legendre on a fixed rule, or scipy adaptive quad), the
effective-noise calibration by damped fixed-point iteration, boundary
thresholds by descending grid scans (largest-root semantics) plus Brent
refinement or bisection, Lasso solutions by coordinate descent with a
duality-gap certificate, and correlated designs by factoring the full
p x p covariance.  Two solvers are checked against the form they replaced,
on the same inputs: the path solver's level pass against its first form
(masks and level map by ``np.where``), and the touching levels against the
damped fixed-point iteration over the library's t_delta.  The path solver's
solutions are also checked against the fixed point of approximate message
passing.  The noiseless floor and alpha_min have 40-digit references in
mpmath, from the integral that defines mse_null.
"""

import math

import numpy as np
from mpmath import mp
from scipy.integrate import quad
from scipy.linalg import cholesky, toeplitz
from scipy.optimize import brentq, minimize_scalar
from scipy.special import ndtr
from scipy.stats import norm

from lassocrescent.crescent import q_delta, t_delta
from lassocrescent.gauss import _cdf

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# fixed 160-node Gauss-Legendre rule, applied piecewise between integrand kinks
_GLX, _GLW = np.polynomial.legendre.leggauss(160)


def soft(x, thr):
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


def _piece(v, alpha, a, b):
    """Integral over w in [a, b] of (soft(v+w, alpha) - v)^2 phi(w); a, b arrays."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    w = mid + half * _GLX[None, :]
    d = soft(v[:, None] + w, alpha) - v[:, None]
    return (d * d * norm.pdf(w)) @ _GLW * half[:, 0]


def gl_mse(v, alpha):
    """E (soft(v + W, alpha) - v)^2 for W ~ N(0,1); v scalar or array.

    Piecewise Gauss-Legendre with splits at the kinks w = -alpha - v and
    w = alpha - v, clipped to [-14, 14].  When |v| - alpha >= 14 the threshold
    never binds on the integration window and the integrand is exactly
    (w -+ alpha)^2 phi(w); that branch never forms v + w, which would lose w
    to roundoff for huge v.
    """
    scalar = np.isscalar(v) or np.asarray(v).ndim == 0
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.empty(v.shape)
    sat = np.abs(v) - alpha >= 14.0
    if np.any(sat):
        shift = np.where(v[sat] > 0, -alpha, alpha)[:, None]
        w = 14.0 * _GLX[None, :]
        d = w + shift
        out[sat] = (d * d * norm.pdf(w)) @ _GLW * 14.0
    if np.any(~sat):
        vv = v[~sat]
        k_lo = np.clip(-alpha - vv, -14.0, 14.0)
        k_hi = np.clip(alpha - vv, -14.0, 14.0)
        lo = np.full_like(vv, -14.0)
        hi = np.full_like(vv, 14.0)
        out[~sat] = (
            _piece(vv, alpha, lo, k_lo)
            + _piece(vv, alpha, k_lo, k_hi)
            + _piece(vv, alpha, k_hi, hi)
        )
    return float(out[0]) if scalar else out


def quad_ms(v, alpha):
    """Adaptive-quadrature counterpart of gl_mse for scalar v (fast integrand)."""

    def f(w):
        x = v + w
        s = math.copysign(max(abs(x) - alpha, 0.0), x)
        d = s - v
        return d * d * math.exp(-0.5 * w * w) * _INV_SQRT_2PI

    kinks = sorted(k for k in (alpha - v, -alpha - v) if -8.5 < k < 8.5)
    val, _ = quad(f, -8.5, 8.5, points=kinks or None, epsabs=1e-10, limit=80)
    return val


def quad_excess(v, alpha):
    """P(|v + W| > alpha) by adaptive quadrature of the normal density."""

    def f(w):
        return math.exp(-0.5 * w * w) * _INV_SQRT_2PI

    total = 0.0
    hi_from = max(alpha - v, -8.5)
    if hi_from < 8.5:
        total += quad(f, hi_from, 8.5, epsabs=1e-11, limit=80)[0]
    lo_to = min(-alpha - v, 8.5)
    if lo_to > -8.5:
        total += quad(f, -8.5, lo_to, epsabs=1e-11, limit=80)[0]
    return total


def phi_quad(a, b):
    """Integral of the standard normal density over [a, b] (clipped to +-13)."""
    a, b = max(a, -13.0), min(b, 13.0)
    if a >= b:
        return 0.0
    val, _ = quad(norm.pdf, a, b, epsabs=1e-14, limit=200)
    return val


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_min_scan(delta):
    """Root of 2[(1 + t^2) Phi(-t) - t phi(t)] = delta (0 once delta >= 1)."""
    if delta >= 1.0:
        return 0.0
    g = lambda t: (1.0 + t * t) * norm.cdf(-t) - t * norm.pdf(t) - delta / 2.0
    return bisect_root(g, 0.0, 40.0)


def fixed_point_tau(values, probs, null_mass, alpha, delta, sigma,
                    tau0=1.0, damping=0.5, iters=3000, tol=1e-12):
    """Damped fixed-point iteration for the effective noise scale tau.

    The map is tau -> sqrt(sigma^2 + tau^2 E(soft(Pi/tau + W, alpha) - Pi/tau)^2
    / delta); plain damping converges only linearly, so every third step an
    Aitken extrapolation is tried and accepted when it stays within a factor
    of 4 of the current iterate (the raw formula degenerates on geometric
    transients).
    """
    mn = gl_mse(0.0, alpha)
    vals = np.asarray(values, dtype=float)
    pr = np.asarray(probs, dtype=float)

    def step(tau):
        acc = null_mass * mn + float(pr @ gl_mse(vals / tau, alpha))
        return math.sqrt(sigma * sigma + tau * tau * acc / delta)

    tau = tau0
    hist = []
    for _ in range(iters):
        new = damping * tau + (1.0 - damping) * step(tau)
        if abs(new - tau) <= tol * max(1.0, tau):
            return new
        hist.append(new)
        if len(hist) == 3:
            a0, a1, a2 = hist
            hist = []
            den = a2 - 2.0 * a1 + a0
            if den != 0.0:
                cand = a0 - (a1 - a0) ** 2 / den
                if 0.25 * a2 < cand < 4.0 * a2:
                    new = cand
        tau = new
    raise RuntimeError(f"tau iteration stalled at {tau!r}")


def exceedance(values, probs, null_mass, alpha, tau):
    """P(|Pi + tau W| > alpha tau) for a discrete prior Pi."""
    p = null_mass * 2.0 * norm.cdf(-alpha)
    for v, w in zip(values, probs):
        p += w * (
            norm.sf(alpha * tau, loc=v, scale=tau)
            + norm.cdf(-alpha * tau, loc=v, scale=tau)
        )
    return p


def t_delta_scan(u, delta, eps, step=1e-4, t_max=60.0):
    """Largest root of the lower-edge balance, by dense descending scan.

    The equation equates the ratio of the null-risk excess to the signal
    capacity margin with (1 - u) / (1 - 2 Phi(-t)).
    """
    t = np.arange(t_max, step / 2.0, -step)
    Phi = norm.cdf(-t)
    phi = norm.pdf(t)
    num = 2.0 * (1.0 - eps) * ((1.0 + t * t) * Phi - t * phi) + eps * (1.0 + t * t) - delta
    den = eps * ((1.0 + t * t) * (1.0 - 2.0 * Phi) + 2.0 * t * phi)
    F = num / den - (1.0 - u) / (1.0 - 2.0 * Phi)
    sign = np.sign(F)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if idx.size == 0:
        raise RuntimeError("no sign change in lower-edge scan")
    hi, lo = t[idx[0]], t[idx[0] + 1]

    def f(tt):
        P, p = norm.cdf(-tt), norm.pdf(tt)
        n = 2.0 * (1.0 - eps) * ((1.0 + tt * tt) * P - tt * p) + eps * (1.0 + tt * tt) - delta
        d = eps * ((1.0 + tt * tt) * (1.0 - 2.0 * P) + 2.0 * tt * p)
        return n / d - (1.0 - u) / (1.0 - 2.0 * P)

    return brentq(f, lo, hi, xtol=1e-13, rtol=1e-15)


def eps_star(delta):
    """Phase-transition sparsity eps*(delta) for delta < 1: the root in eps of
    M(eps) = delta, where M(eps) = min_t {eps (1 + t^2) + (1 - eps) mse_null(t)}
    is the noiseless minimax risk of soft thresholding (Donoho, Maleki &
    Montanari 2009).  The convex inner minimum is found by a bounded scalar
    search in t, and mse_null(t) = 2[(1 + t^2) Phi(-t) - t phi(t)] is written
    from erfc; M increases in eps, from ~0 to 1."""

    def mse_null(t):
        tail = 0.5 * math.erfc(t / math.sqrt(2.0))
        return 2.0 * ((1.0 + t * t) * tail - t * _INV_SQRT_2PI * math.exp(-0.5 * t * t))

    def risk(eps):
        return minimize_scalar(
            lambda t: eps * (1.0 + t * t) + (1.0 - eps) * mse_null(t),
            bounds=(0.0, 12.0),
            method="bounded",
            options={"xatol": 1e-10},
        ).fun

    return brentq(lambda e: risk(e) - delta, 1e-12, 1.0 - 1e-12, xtol=1e-15, rtol=8.9e-16)


_MP_DPS = 50  # working digits of the mpmath references, which are quoted to 40


def mp_mse_null(a):
    """E[eta(W; a)^2] = 2 * integral over w > a of (w - a)^2 phi(w) dw, by
    ``mp.quad`` at the working precision (a an mpf)."""
    tail = mp.quad(lambda w: (w - a) ** 2 * mp.exp(-w * w / 2), [a, mp.inf])
    return 2 * tail / mp.sqrt(2 * mp.pi)


def _mp_scan_root(f, a, step):
    # step from a, where f > 0, to the first point where f <= 0, then refine
    # that bracket by a bracketing secant (Anderson-Bjorck)
    b = a + step
    while f(b) > 0:
        a, b = b, b + step
    return mp.findroot(f, (a, b), solver="anderson")


def mp_noiseless_floor(delta, eps):
    """Largest root of N(a) = (1 - eps) mse_null(a) + eps (1 + a^2) - delta
    to 40 digits, for double delta and eps (taken exactly).  At
    a = sqrt(delta/eps - 1), N = (1 - eps) mse_null(a) > 0, and a descending
    scan in steps of 1/16 brackets the root below it; a negative window
    narrower than a step (within a hair of the phase transition) is out of
    its reach."""
    with mp.workdps(_MP_DPS):
        delta, eps = mp.mpf(delta), mp.mpf(eps)
        n = lambda a: (1 - eps) * mp_mse_null(a) + eps * (1 + a * a) - delta
        return _mp_scan_root(n, mp.sqrt(delta / eps - 1), -mp.mpf(1) / 16)


def mp_alpha_min(delta):
    """Root of mse_null(a) = delta for a double delta < 1, to 40 digits:
    mse_null falls from 1 at a = 0, so an ascending scan in steps of 1/16
    brackets it."""
    with mp.workdps(_MP_DPS):
        delta = mp.mpf(delta)
        return _mp_scan_root(lambda a: mp_mse_null(a) - delta, mp.mpf(0), mp.mpf(1) / 16)


def t_delta_grid(us, delta, eps, step=0.05, t_max=60.0, iters=48):
    """Largest lower-edge root at each level of the array us, vectorized.

    A descending scan of G(t) = N(t)(1 - 2 Phi(-t)) - (1 - u) D(t) for its
    first negative value, then bisection of that step; when G(t_max) < 0 the
    root is sqrt(delta/(u eps) - 1), and with no negative value it is NaN.
    """
    us = np.asarray(us, dtype=float)[:, None]

    def gap(t):
        tail = ndtr(-t)
        one_plus = 1.0 + t * t
        mn = 2.0 * (one_plus * tail - t * _INV_SQRT_2PI * np.exp(-0.5 * t * t))
        n_term = (1.0 - eps) * mn + eps * one_plus - delta
        return n_term * (1.0 - 2.0 * tail) - (1.0 - us) * eps * (one_plus - mn)

    t = np.arange(t_max, step / 2.0, -step)
    neg = gap(t[None, :]) < 0.0
    k = np.argmax(neg, axis=1)
    lo, hi = t[k][:, None], t[np.maximum(k - 1, 0)][:, None]
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        above = gap(mid) > 0.0
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    root = np.where(neg[:, 0], np.sqrt(delta / (us[:, 0] * eps) - 1.0), 0.5 * (lo + hi)[:, 0])
    return np.where(neg.any(axis=1), root, np.nan)


def q_form(t, u, eps):
    """FDP at TPP level u for edge threshold t."""
    a = 2.0 * (1.0 - eps) * norm.cdf(-t)
    return a / (a + eps * u)


def varsigma_scan(alpha, delta, eps, step=0.02, s_max=60.0):
    """Largest root s of (1-eps) mse0 + eps gl_mse(s + alpha) = delta.

    mse0 is the null soft-threshold risk at alpha; the scan descends from
    s_max to just above -alpha.
    """
    mn = gl_mse(0.0, alpha)
    grid = np.arange(s_max, -alpha + 1e-9, -step)
    G = (1.0 - eps) * mn + eps * gl_mse(grid + alpha, alpha) - delta
    sign = np.sign(G)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if idx.size == 0:
        raise RuntimeError("no sign change in calibration scan")
    hi, lo = grid[idx[0]], grid[idx[0] + 1]
    f = lambda s: (1.0 - eps) * mn + eps * gl_mse(s + alpha, alpha) - delta
    return brentq(f, lo, hi, xtol=1e-13, rtol=1e-15)


def t_nabla_scan(u, delta, eps, step=0.01, a_max=12.0, recheck_every=25):
    """Largest root in alpha of Phi(s(a)) + Phi(-2a - s(a)) = u.

    s(a) is the calibration root from varsigma_scan; the scan descends in
    alpha with local continuation of s (full rescan every few steps).
    """
    amin = alpha_min_scan(delta)
    alphas = np.arange(a_max, amin + 1e-6, -step)

    def vs_full(a):
        return varsigma_scan(a, delta, eps, step=0.05)

    def vs_local(a, guess):
        mn = gl_mse(0.0, a)
        f = lambda s: (1.0 - eps) * mn + eps * gl_mse(s + a, a) - delta
        lo, hi = guess - 0.3, guess + 0.3
        if f(lo) * f(hi) < 0:
            return brentq(f, lo, hi, xtol=1e-13, rtol=1e-15)
        return vs_full(a)

    prev = None
    last_val = None
    last_a = None
    for i, a in enumerate(alphas):
        s = vs_full(a) if (prev is None or i % recheck_every == 0) else vs_local(a, prev)
        prev = s
        val = norm.cdf(s) + norm.cdf(-2.0 * a - s) - u
        if last_val is not None and np.sign(val) * np.sign(last_val) < 0:

            def h(aa):
                ss = vs_local(aa, prev)
                return norm.cdf(ss) + norm.cdf(-2.0 * aa - ss) - u

            root = brentq(h, a, last_a, xtol=1e-12, rtol=1e-14)
            return root, vs_local(root, prev)
        last_val, last_a = val, a
    raise RuntimeError("no root in upper-edge scan")


def touching_points_iteration(gamma, shape):
    """Reference for ``touching_points``' closed form (the noiseless floor at
    sparsity g eps): each interior level by damped fixed-point iteration of
    u <- 2 Phi(-t_delta(u)) (1 - g) + g (damping 1/2, at most 200 steps),
    with the library's t_delta.  gamma is taken as valid."""
    suffix = np.cumsum(gamma[::-1])[::-1]

    def tail(u):
        return _cdf(-t_delta(u, shape))

    points = []
    for g in suffix:
        if g >= 1.0 - 1e-15:
            u = 1.0
        else:
            u = 0.5 * (1.0 + g)
            for _ in range(200):
                nxt = 0.5 * u + 0.5 * (2.0 * tail(u) * (1.0 - g) + g)
                if abs(nxt - u) < 1e-13:
                    u = nxt
                    break
                u = nxt
            else:
                raise RuntimeError(f"touching-point iteration stalled at u = {u}, mass {g}")
        points.append((float(u), q_delta(u, shape)))
    return sorted(points)


def cd_lasso(X, y, lam, beta0=None, tol=1e-12, max_sweeps=200000):
    """Coordinate-descent Lasso with covariance updates and duality-gap stop."""
    n, p = X.shape
    G = X.T @ X
    c = X.T @ y
    diag = np.diag(G).copy()
    beta = np.zeros(p) if beta0 is None else beta0.copy()
    Gb = G @ beta
    y2 = 0.5 * float(y @ y)
    for sweep in range(max_sweeps):
        max_delta = 0.0
        for j in range(p):
            bj = beta[j]
            rho = c[j] - Gb[j] + diag[j] * bj
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / diag[j]
            if new != bj:
                Gb += (new - bj) * G[:, j]
                beta[j] = new
                max_delta = max(max_delta, abs(new - bj))
        if sweep % 5 == 0 or max_delta == 0.0:
            r = y - X @ beta
            primal = 0.5 * float(r @ r) + lam * float(np.abs(beta).sum())
            xr = X.T @ r
            s = min(1.0, lam / max(np.max(np.abs(xr)), 1e-300))
            dual = y2 - 0.5 * float((y - s * r) @ (y - s * r))
            if primal - dual <= tol * max(1.0, primal):
                return beta
    raise RuntimeError("coordinate descent did not converge")


def amp_lasso(X, y, theta, max_iter=2000):
    """AMP with the fixed threshold ``theta`` (Donoho, Maleki & Montanari 2009),
    run to its fixed point; returns (x, lam).

    x <- soft(x + X'z, theta), then z <- y - X x + z ||x||_0 / n.  At a fixed
    point X'z is theta sign(x) on the support of x and at most theta in size
    off it, and (1 - ||x||_0 / n) z = y - X x, so X'(y - X x) is lam times a
    subgradient of ||x||_1: x is the Lasso solution at
    lam = theta (1 - ||x||_0 / n) (Bayati & Montanari 2012).
    """
    n = X.shape[0]
    x, z = np.zeros(X.shape[1]), y.copy()
    for _ in range(max_iter):
        x_new = soft(x + X.T @ z, theta)
        z = y - X @ x_new + z * (np.count_nonzero(x_new) / n)
        x, step = x_new, np.max(np.abs(x_new - x))
        if step <= 1e-15 * max(1.0, np.max(np.abs(x))):
            return x, theta * (1.0 - np.count_nonzero(x) / n)
    raise RuntimeError(f"AMP did not converge in {max_iter} iterations at theta = {theta}")


def cholesky_design(spec, rng):
    """A ``correlated_gaussian`` draw the direct way: the p x p covariance,
    its upper Cholesky factor U, and ``rng.standard_normal((n, p)) @ U``."""
    if spec.structure == "toeplitz":
        cov = spec.scale * toeplitz(spec.rho ** np.arange(spec.p))
    else:
        cov = spec.scale * ((1.0 - spec.rho) * np.eye(spec.p) + spec.rho)
    upper = cholesky(cov, lower=False)
    return rng.standard_normal((spec.n, spec.p)) @ upper


def path_levels(a, c, lam, dropped, slots, b, d):
    """Each variable's next level on the Lasso path, one array per sign of
    the entry root, each masked and mapped by ``np.where``: lasso_path's
    level pass in its first form.  Arguments as for
    ``lassocrescent.lasso_path._levels``."""
    lo = lam - 1e-12 * max(1.0, lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        plus = np.where(a < 1.0 - 1e-9, (c - lam * a) / (1.0 - a), np.nan)
        minus = np.where(a > 1e-9 - 1.0, (lam * a - c) / (1.0 + a), np.nan)
        drop_at = lam + b / d
    if dropped is not None:
        jd, sd = dropped
        (plus if sd > 0 else minus)[jd] = np.nan
    level = np.maximum(
        np.where((plus > 0.0) & (plus < lo), plus, -np.inf),
        np.where((minus > 0.0) & (minus < lo), minus, -np.inf),
    )
    level[(plus >= lo) | (minus >= lo)] = lam
    level[list(slots)] = np.where(
        (drop_at > 0.0) & (drop_at < lo) & (np.abs(d) >= 1e-300), drop_at, -np.inf
    )
    return level
