"""Exact piecewise-linear Lasso solution paths by homotopy.

Computes every breakpoint of lam -> argmin_b 0.5 ||y - X b||^2 + lam |b|_1
from lam_max = ||X' y||_inf downward.  Between breakpoints the active
coefficients move linearly along d = (X_A' X_A)^{-1} s_A (s_A the active
signs); a breakpoint occurs when an inactive correlation reaches the penalty
level (add) or an active coefficient crosses zero (drop).

Cost and memory: the correlations move along X' X_A d, read from the Gram
columns X' x_v of the active variables (covariance updating, Friedman,
Hastie & Tibshirani 2010).  When p <= n the Gram columns are formed once up
front, and permuted in place so that the active ones come first, in active
order.  That is the whole Gram matrix X'X, one O(n p^2) product held in p^2
doubles, unless a stop set S with 2|S| < p is given: a first-false path only
ever activates variables of S (every add before the stop lies in S, and so
does every drop), and the false entrant that stops it needs only its row of
the active columns.  So it forms just the p x |S| columns X'X_S, one
O(n p |S|) product, which costs fewer flops than X'X exactly when 2|S| < p.
When p > n a p x (max_active + 1) buffer (at most |S| + 2 columns on a
first-false path) takes the column X' x_j as variable j enters, one O(np)
product per entry, so memory stays O(p min(n, p)).  After that each step
reads O(p |A|) data, and finds every level in one pass over the entry
roots of each sign.  With X_A' X_A = L L', the solver carries the inverse
factor R = L^-1, lower triangular in an m x m buffer (m = max_active + 1, so
O(min(n, p)^2) doubles, below the Gram columns' O(p min(n, p))), and every
solve is a numpy product: no part of scipy is loaded.  The direction is
d = R' w with w = R s_A.  An entry appends a row to R from two products of
O(|A|^2), l = R g (g the entrant's Gram row) and r = -R' l / l_kk (see
_inv_append), and one entry to w and to d: d becomes [d + r w_k, w_k / l_kk].
A drop deletes its row and column of R by a closed-form rank-one update of
the rows below it (see _inv_delete): O(|A|^2) work in a few whole-array
passes per block of rows, through dense block arrays of at most 16384
doubles each; w and d are then formed afresh, two products more.  The
active variables, signs, coefficients, w and Gram columns sit in slots, used
through the first |A|; a drop moves the slots after the dropped one down by
one.

Tie handling: each variable has one level, the next penalty value at which
it changes state.  An inactive variable's level is its entry level, the
larger valid root at which its correlation meets the penalty level; one
already at the current lam (an exact tie, as with +-1 designs) whose
correlation the new direction pushes outward gets lam itself, and enters in a
zero-length step: an event at the same lam as the one before.  A correlation
that moves with the penalty level, nearing or leaving it at a rate below
1e-9 per unit of lam, has no entry level: an exact copy of an active column
does so, and rounding alone would decide where it enters and make the active
Gram matrix singular.  An active variable's level is its drop level, where
its coefficient reaches zero.  The next breakpoint is the highest level;
within 1e-12 (relative) of it a drop goes first, then the lowest variable
index.  A variable dropped at one event may re-enter at the next only with
the opposite sign (the LARS-Lasso rule, Efron et al. 2004, section 3): its
correlation meets the penalty level with the old sign exactly at the drop,
and rounding could otherwise put that root just below it.  Coefficients
within 1e-12 of zero are treated as zero in support computations.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_TIE_REL = 1e-12
_COEF_ZERO = 1e-12
_REFRESH_EVERY = 64
# a correlation nearing or leaving the penalty level slower than this (per
# unit decrease of lam) stays out: along the whole path it drifts from the
# level by less than 1e-9 * lam_max
_TIE_RATE = 1e-9
# a drop updates the inverse factor's rows below it a block at a time, through
# dense arrays of at most this many doubles (128 kB) each
_DELETE_BLOCK = 1 << 14


class DegenerateDesignError(ValueError):
    """The active Gram matrix lost rank (duplicate/collinear columns).

    A ValueError (invalid input, exit code 2): only a caller-supplied design
    with collinear columns raises it.  Generated designs are continuous,
    genotype files are jittered, and an exact copy of an active column has no
    entry level (see "Tie handling" above)."""


@dataclass(frozen=True)
class PathEvent:
    """One breakpoint of the path, with the segment that follows it.

    ``coef`` holds the active coefficients exactly at ``lam`` (aligned with
    ``active_set``); ``coef_direction`` is their slope per unit decrease of
    the penalty, valid until the next event.
    """

    lam: float
    kind: str  # "add" | "drop"
    variable: int
    active_set: tuple
    coef: np.ndarray
    coef_direction: np.ndarray


@dataclass(frozen=True)
class LassoPath:
    events: list
    y_norm: float
    lambda_max: float
    lambda_min_valid: float
    p: int
    stopping_reason: str  # "lambda_floor" | "max_active" | "full_path" | "first_false"


class RankResult(NamedTuple):
    """First-false-selection rank; ``censored`` means no false entry occurred
    before the path stopped (rank is then |true support| + 1)."""

    rank: int
    censored: bool


def _tie(level):
    return _TIE_REL * max(1.0, level)


def _levels(a, c, lam, dropped, slots, b, d):
    """Level of every variable at penalty lam (see "Tie handling" above):
    entry levels from the rates a = X' X_A d and correlations c, less the
    sign ``dropped`` (variable, sign) at the last event, and drop levels of
    the active ``slots`` from their coefficients b and direction d.

    Only the sign s = sign(c - lam a) can give a positive entry root,
    |c - lam a| / (1 - s a), kept where s a < 1 - _TIE_RATE.  A root r gives
    r on (0, lo), lam from lo up and -inf otherwise.
    """
    lo = lam - _tie(lam)
    num = c - lam * a
    sa = np.sign(num) * a
    with np.errstate(divide="ignore", invalid="ignore"):
        level = np.abs(num) / (1.0 - sa)
        drop_at = lam + b / d
    np.putmask(level, sa >= 1.0 - _TIE_RATE, -np.inf)
    if dropped is not None and dropped[1] * num[dropped[0]] > 0.0:
        level[dropped[0]] = -np.inf  # no same-sign re-entry right after a drop
    np.putmask(level, level >= lo, lam)
    np.putmask(level, ~(level > 0.0), -np.inf)
    level[slots] = np.where(
        (drop_at > 0.0) & (drop_at < lo) & (np.abs(d) >= 1e-300), drop_at, -np.inf
    )
    return level


def _inv_append(R, k, gram_row, col_sq, variable):
    """Extend the k x k inverse factor R[:k, :k] = L^-1 by the variable's row,
    and return (l, l_kk), its row [l', l_kk] of L.

    With g = gram_row = X_A' x_j, the new row of L is l = R g and
    l_kk = sqrt(||x_j||^2 - l'l); the new row of R is r = -R' l / l_kk with
    1 / l_kk on the diagonal.  Only R[:k, :k] is read and only R[k, :k + 1]
    written, so R's strict upper triangle stays as the caller filled it.
    """
    l = R[:k, :k] @ gram_row
    d2 = col_sq - float(l @ l)
    if d2 <= 1e-12 * col_sq:
        raise DegenerateDesignError(
            f"active Gram matrix became singular when adding variable {variable} "
            f"at step {k + 1} (collinear with the active set)"
        )
    l_kk = math.sqrt(d2)
    np.multiply(l @ R[:k, :k], -1.0 / l_kk, out=R[k, :k])
    R[k, k] = 1.0 / l_kk
    return l, l_kk


def _inv_delete(R, k, j):
    """Remove row and column j from the k x k inverse factor R[:k, :k] = L^-1.

    Rows above j stay as they are.  With x the column j of L below the
    diagonal and T its trailing block, the new trailing block of L is T M,
    with M the lower factor of I + p p' for p = T^-1 x (Gill, Golub, Murray &
    Saunders 1974, Math. Comp. 28).  In R, p = -R[j+1:k, j] / R[j, j], and
    the rows below j of the new inverse factor are M^-1 Y, with Y the rows
    R[j+1:k] + p R[j] less their column j (which is zero).  With t_0 = 1 and
    t_{i+1} = t_i + p_i^2, M has the diagonal sqrt(t_{i+1} / t_i) and the
    entries p_i p_c / sqrt(t_c t_{c+1}) below it, and forward substitution
    with M has a closed form,

        Z_i = (Y_i - p_i S_i / t_i) sqrt(t_i / t_{i+1}),  S_i = sum_{l<i} p_l Y_l,

    an exclusive cumulative sum down the rows.  Z_i becomes row j + i.  The
    rows are read a block at a time into dense arrays of at most
    _DELETE_BLOCK doubles, cut after the block's last diagonal entry, in
    increasing order, with S carried from block to block; a block overwrites
    only rows already read, or row j, whose leading part is copied first.
    Only R[:k, :k] is read or written, and where Y is zero, above the
    diagonal, so is Z: R[:k - 1, :k - 1] stays lower triangular.
    """
    m = k - 1 - j  # rows below j
    if m == 0:  # R[:k - 1, :k - 1] is the new inverse factor
        return
    p = R[j + 1 : k, j] / -R[j, j]
    t = np.empty(m + 1)
    t[0] = 1.0
    np.square(p, out=t[1:])
    np.cumsum(t, out=t)
    q = p / t[:-1]
    scale = np.sqrt(t[:-1] / t[1:])
    row_j = R[j, :j].copy()
    S = np.zeros(k - 1)
    step = max(1, _DELETE_BLOCK // k)
    for r0 in range(0, m, step):
        r1 = min(m, r0 + step)
        cols = j + r1  # through the block's last diagonal entry
        rows = R[j + 1 + r0 : j + 1 + r1]
        Y = np.empty((r1 - r0, cols))
        np.add(rows[:, :j], p[r0:r1, None] * row_j, out=Y[:, :j])
        Y[:, j:] = rows[:, j + 1 : cols + 1]
        acc = np.empty_like(Y)  # S_i of each row of the block
        acc[0] = S[:cols]
        np.multiply(Y[:-1], p[r0 : r1 - 1, None], out=acc[1:])
        np.cumsum(acc, axis=0, out=acc)
        S[:cols] = acc[-1] + p[r1 - 1] * Y[-1]
        acc *= q[r0:r1, None]
        Y -= acc
        Y *= scale[r0:r1, None]
        R[j + r0 : j + r1, :cols] = Y


def _slot_to_end(buf, pos, k):
    """Move slot pos of buf to k - 1 and slots pos + 1 .. k - 1 down by one.

    A chunk of slots at a time, in increasing order: numpy copies an
    overlapping block to a temporary first, which for the Gram columns at
    once would be (k - pos) x p doubles; a chunk holds at most _DELETE_BLOCK.
    """
    moved = buf[pos].copy()
    step = max(1, _DELETE_BLOCK // moved.size)
    for i in range(pos, k - 1, step):
        e = min(k - 1, i + step)
        buf[i:e] = buf[i + 1 : e + 1]
    buf[k - 1] = moved


def lasso_path(X, y, *, lambda_floor=None, max_active=None, stop_outside_support=None):
    """Compute the full breakpoint list of the Lasso path for (X, y).

    Parameters
    ----------
    X, y : design matrix (n x p, no zero columns) and response.
    lambda_floor : stop once the next breakpoint would fall at or below this
        level, a number >= 0 or inf (default 1e-10 * lambda_max).
    max_active : stop once the active set reaches this size, an integer
        in [1, min(n, p)] (default min(n - 1, p), at least 1).
    stop_outside_support : optional stop set S of variable indices, integers
        in [0, p); the path stops immediately after the first add event
        outside it (stopping reason "first_false"), which is all the
        first-false-rank statistic needs.  When p <= n and 2|S| < p only the
        Gram columns of S are formed (see "Cost and memory" above).  A stop
        set of all p variables never stops the path, and is no stop set.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    n, p = X.shape
    if y.shape[0] != n:
        raise ValueError(f"y has length {y.shape[0]}, expected {n}")
    col_sq = np.einsum("ij,ij->j", X, X)
    # a finite col_sq means a finite X, without an n x p temporary; a finite X
    # can overflow col_sq, so only then is X checked, row by row
    finite_x = np.all(np.isfinite(col_sq)) or all(np.isfinite(row).all() for row in X)
    if not (finite_x and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    if np.any(col_sq == 0.0):
        raise DegenerateDesignError(
            f"column {int(np.argmin(col_sq))} of the design is identically zero"
        )
    if max_active is None:
        max_active = max(1, min(n - 1, p))
    if isinstance(max_active, bool) or not isinstance(max_active, numbers.Integral):
        raise ValueError(f"max_active must be an integer, got {max_active!r}")
    if not 0 < max_active <= min(n, p):
        raise ValueError(f"max_active must lie in [1, min(n, p)], got {max_active}")
    allowed = None
    if stop_outside_support is not None:
        support = list(stop_outside_support)
        bad = [v for v in support if not (isinstance(v, numbers.Integral) and 0 <= v < p)]
        if bad:
            raise ValueError(
                f"stop_outside_support must hold integers in [0, {p}), got {bad[0]!r}"
            )
        allowed = frozenset(map(int, support))
        if len(allowed) == p:
            allowed = None

    y_norm = float(np.linalg.norm(y))
    xty = c = X.T @ y
    lam = float(np.max(np.abs(c)))
    if lambda_floor is None:
        lambda_floor = 1e-10 * lam
    if not lambda_floor >= 0:
        raise ValueError(f"lambda_floor must be nonnegative, got {lambda_floor}")
    if lam <= 0.0 or lam <= lambda_floor:
        return LassoPath(
            events=[],
            y_norm=y_norm,
            lambda_max=lam,
            lambda_min_valid=lam,
            p=p,
            stopping_reason="full_path" if lam == 0.0 else "lambda_floor",
        )

    # a first-false path holds at most |S| + 1 active variables
    m = (max_active if allowed is None else min(max_active, len(allowed) + 1)) + 1
    R = np.zeros((m, m))  # the inverse factor L^-1, see _inv_append
    # slot i of G holds X' x_v for the variable v = order[i], the i-th active
    # one for i < |A|; when p <= n, slot[v] = i for every inactive v = order[i]
    gram = p <= n
    slot = np.empty(p, dtype=np.intp)
    if gram:
        # one BLAS-3 product; F-ordered, so slots are columns
        if allowed is not None and 2 * len(allowed) < p:
            order = np.array(sorted(allowed), dtype=np.intp)
            G = (X[:, order].T @ X).T
        else:
            order = np.arange(p)
            G = (X.T @ X).T
        slot[order] = np.arange(len(order))
    else:
        order = np.empty(m, dtype=np.intp)
        G = np.empty((p, m), order="F")
    active = ()  # each event shares this tuple and its int objects
    sgn = np.zeros(m)
    beta = np.zeros(m)
    w = np.zeros(m)  # R s_A, so that the direction is R' w
    d = np.empty(0)
    k = 0
    events = []
    dropped = None  # (variable, sign) removed at the previous event

    # the first event adds the lowest-index variable at the top of the
    # correlation profile
    kind, j = "add", int(np.flatnonzero(np.abs(c) >= lam - _tie(lam)).min())
    while True:
        if kind == "drop":
            pos = active.index(j)
            _inv_delete(R, k, pos)
            dropped = (j, sgn[pos])
            active = active[:pos] + active[pos + 1 :]
            # the dropped slot moves to k - 1, where the full Gram keeps it
            for buf in (sgn, beta, G.T, order):
                _slot_to_end(buf, pos, k)
            slot[j] = k - 1
            k -= 1
            w[:k] = R[:k, :k] @ sgn[:k]
            d = w[:k] @ R[:k, :k]
        else:
            if not gram:
                G[:, k] = X.T @ X[:, j]
                order[k] = j
            # swap j's column into slot k; a variable outside the stop set may
            # have none in G, and the path stops at its entry
            elif allowed is None or j in allowed:
                s = slot[order[k]] = slot[j]  # the variable in slot k moves to s
                G[:, k], G[:, s] = G[:, s], G[:, k].copy()
                order[k], order[s] = order[s], order[k]
            l, l_kk = _inv_append(R, k, G[j, :k].copy(), col_sq[j], j)
            active += (j,)
            sgn[k] = 1.0 if c[j] > 0 else -1.0
            beta[k] = 0.0
            # w and d gain one entry each (see "Cost and memory" above)
            w[k] = (sgn[k] - float(l @ w[:k])) / l_kk
            d = np.concatenate((d + w[k] * R[k, :k], (w[k] / l_kk,)))
            k += 1
            dropped = None

        # the direction d is stored on the event and reused
        events.append(
            PathEvent(
                lam=lam,
                kind=kind,
                variable=j,
                active_set=active,
                coef=beta[:k].copy(),
                coef_direction=d,
            )
        )
        # a dropped variable entered inside the support, so only adds can
        # trigger the first-false stop
        if allowed is not None and j not in allowed:
            stopping, lambda_min_valid = "first_false", lam
            break
        if k >= max_active:
            stopping, lambda_min_valid = "max_active", lam
            break

        b = beta[:k]
        b[np.abs(b) < _COEF_ZERO] = 0.0
        if len(events) % _REFRESH_EVERY == 0:
            c = xty - G[:, :k] @ b

        # next breakpoint: the highest of one level per variable
        a = G[:, :k] @ d
        level = _levels(a, c, lam, dropped, order[:k], b, d)
        cand_lam = float(level.max())
        if cand_lam == -np.inf:
            stopping, lambda_min_valid = "full_path", 0.0
            break
        # within the tie window a drop goes first, then the lowest index
        lo = cand_lam - _tie(cand_lam)
        drops = order[:k][level[order[:k]] >= lo]
        kind = "drop" if drops.size else "add"
        j = int(drops.min() if drops.size else np.flatnonzero(level >= lo)[0])
        if cand_lam <= lambda_floor:
            stopping, lambda_min_valid = "lambda_floor", lambda_floor
            break

        step = lam - cand_lam
        b += step * d
        c = c - step * a
        lam = cand_lam

    return LassoPath(
        events=events,
        y_norm=y_norm,
        lambda_max=float(events[0].lam),
        lambda_min_valid=float(lambda_min_valid),
        p=p,
        stopping_reason=stopping,
    )


def coefficients_at(path, lam):
    """Lasso solution at penalty ``lam``, reconstructed from the path.

    Exact at breakpoints, linear interpolation along the stored directions in
    between.  ``lam`` above lambda_max returns the zero vector; ``lam`` below
    the validity floor of the computed path raises ValueError.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    beta = np.zeros(path.p)
    if not path.events or lam >= path.lambda_max:
        return beta
    if lam < path.lambda_min_valid - 1e-12 * max(1.0, path.lambda_min_valid):
        raise ValueError(
            f"lam = {lam} below the computed range "
            f"[{path.lambda_min_valid}, {path.lambda_max}] "
            f"(path stopped: {path.stopping_reason})"
        )
    # events are nonincreasing in lam (tied entries share one); take the
    # last one at or above lam, which holds the whole active set there
    neg_lams = -np.array([ev.lam for ev in path.events])
    ev = path.events[int(np.searchsorted(neg_lams, -lam, side="right")) - 1]
    vals = ev.coef + (ev.lam - lam) * ev.coef_direction
    beta[list(ev.active_set)] = vals
    return beta


def tpp_fdp_along_path(path, true_support, k=None):
    """(lam, TPP, FDP) at every breakpoint, with 0/0 counted as 0.

    TPP is measured against ``k`` true signals (default: the size of
    ``true_support``); the selected set at a breakpoint is the active set
    just below it, so an entering variable counts immediately.
    """
    true = frozenset(int(v) for v in true_support)
    if k is None:
        k = len(true)
    out, tp = [], 0  # true variables in the active set
    for ev in path.events:
        if ev.variable in true:
            tp += 1 if ev.kind == "add" else -1
        sel = len(ev.active_set)
        out.append((ev.lam, tp / max(k, 1), (sel - tp) / max(sel, 1)))
    return out


def first_false_rank(path, true_support):
    """Rank of the first falsely selected variable along the path.

    The rank is the active-set size right after the first add event outside
    the true support (true selections so far, plus the false one).  Paths
    that stop without a false entry are censored at |true support| + 1.
    """
    true = frozenset(int(v) for v in true_support)
    for ev in path.events:
        if ev.kind == "add" and ev.variable not in true:
            return RankResult(rank=len(ev.active_set), censored=False)
    return RankResult(rank=len(true) + 1, censored=True)


def residual_correlations(X, y, beta):
    """X' (y - X beta): the KKT correlation vector at ``beta``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    return X.T @ (y - X @ beta)
