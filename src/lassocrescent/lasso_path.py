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
reads O(p |A|) data, and finds every level in one pass over the stacked
entry roots of both signs.  The Cholesky factor L of X_A' X_A is stored
packed, row by row in one flat buffer with row i at offset i(i+1)/2, so the
factor of the first k active variables is always a contiguous prefix: an
entry appends a row, and the triangular solves run on that prefix in place
(BLAS tpsv), O(|A|^2) each.  The direction is d = L'^-1 w with w = L^-1 s_A.
w is carried across entries, which extend it by one dot product, and is
solved afresh only after a drop, so an entry makes one solve for d and a
drop two.  A drop deletes its row of L by a closed-form rank-one update of
the m rows below it (see _chol_delete): O(m^2 + |A| m) work in a few
whole-array passes per block of rows, through dense block arrays of at most
16384 doubles each.  The active variables, signs, coefficients, w and Gram
columns sit in slots, used through the first |A|; a drop moves the slots
after the dropped one down by one.

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
from scipy.linalg.blas import ddot, dtpsv, dtrsv

_TIE_REL = 1e-12
_COEF_ZERO = 1e-12
_REFRESH_EVERY = 64
# a correlation nearing or leaving the penalty level slower than this (per
# unit decrease of lam) stays out: along the whole path it drifts from the
# level by less than 1e-9 * lam_max
_TIE_RATE = 1e-9
# row 0 of the stacked entry roots belongs to sign +1, row 1 to sign -1
_PM = np.array([[1.0], [-1.0]])
# a drop updates the trailing Cholesky rows a block at a time, through dense
# arrays of at most this many doubles (128 kB) each
_DELETE_BLOCK = 1 << 14


class DegenerateDesignError(ValueError):
    """The active Gram matrix lost rank (duplicate/collinear columns)."""


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

    Row 1 of the roots over _PM * a is -(c - lam a) / (1 - (-a)), exactly
    (lam a - c) / (1 + a), and its test -a < 1 - 1e-9 is a > 1e-9 - 1.  A
    root r gives r on (0, lo), lam from lo up and -inf otherwise, a map that
    does not decrease, so it is applied once, to the larger root.
    """
    lo = lam - _tie(lam)
    sa = _PM * a
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = _PM * (c - lam * a)
        roots /= 1.0 - sa
        drop_at = lam + b / d
    np.putmask(roots, sa >= 1.0 - _TIE_RATE, -np.inf)
    if dropped is not None:  # no same-sign re-entry right after a drop
        jd, sd = dropped
        roots[0 if sd > 0 else 1, jd] = -np.inf
    level = np.fmax(roots[0], roots[1])
    np.putmask(level, level >= lo, lam)
    np.putmask(level, ~(level > 0.0), -np.inf)
    level[slots] = np.where(
        (drop_at > 0.0) & (drop_at < lo) & (np.abs(d) >= 1e-300), drop_at, -np.inf
    )
    return level


def _chol_append(P, k, gram_col, col_sq, variable):
    """Append the variable's row to the packed k x k lower factor in P, and
    return that row.

    L packed row by row is L' packed column by column, the upper-triangular
    layout tpsv reads: trans=1 solves with L, trans=0 with L'.  tpsv does
    not check the length of P, so every caller keeps k(k+1)/2 <= P.size.
    """
    row = P[k * (k + 1) // 2 : (k + 1) * (k + 2) // 2]
    if k == 0:
        d2 = col_sq
    else:
        row[:k] = dtpsv(k, P, gram_col, trans=1)
        d2 = col_sq - float(row[:k] @ row[:k])
    if d2 <= 1e-12 * col_sq:
        raise DegenerateDesignError(
            f"active Gram matrix became singular when adding variable {variable} "
            f"at step {k + 1} (collinear with the active set)"
        )
    row[k] = math.sqrt(d2)
    return row


def _chol_delete(P, k, j):
    """Remove row/column j from the packed k x k lower factor in P.

    Rows above j stay as they are.  Each row below j moves up one and loses
    column j; its leading columns 0 .. j-1 stay as they are too.  With x the
    removed column below the diagonal and T the m x m trailing block (the
    rows below j, columns j+1 ..), the new trailing block U must satisfy
    U U' = T T' + x x', a positive rank-one update, which has a closed form
    (Gill, Golub, Murray & Saunders 1974, Math. Comp. 28): U = T M, with M
    the lower factor of I + p p' for p = T^-1 x.  With t_0 = 1 and
    t_{c+1} = t_c + p_c^2, M has the diagonal d_c = sqrt(t_{c+1} / t_c) and
    the entries p_i g_c below it, g_c = p_c / sqrt(t_c t_{c+1}).  So
    U[r, c] = d_c T[r, c] + g_c sum_{c < i <= r} T[r, i] p_i, a reverse
    cumulative sum along row r, and U's diagonal d_c T[c, c] is positive by
    construction.  The rows of T are read a block at a time into a dense
    array of at most _DELETE_BLOCK doubles; each block first extends p by
    forward substitution (p_c needs only rows up to c), then is updated in
    whole-array passes, so a drop costs O(m^2 + k m), with no Python loop
    per row.

    First the rows below j move up one row and lose column j, a block of
    whole rows (at most _DELETE_BLOCK doubles) at a time, in increasing
    order.  New row r - 1 takes the place of old row r - 1, which ends where
    old row r starts, so a block overwrites only rows already read (or row
    j), and each block is read before it is written.
    """
    m = k - 1 - j  # rows below j
    if m == 0:  # the first k - 1 rows are the new factor
        return
    rows = np.arange(j + 1, k)
    starts = rows * (rows + 1) // 2
    col_j = starts + j  # column j of the rows below j
    x = P[col_j]
    step = max(1, _DELETE_BLOCK // k)
    for r0 in range(0, m, step):
        r1 = min(m, r0 + step)
        lo, hi = starts[r0], starts[r1 - 1] + rows[r1 - 1] + 1
        keep = np.ones(hi - lo, dtype=bool)
        keep[col_j[r0:r1] - lo] = False
        P[lo - rows[r0] : hi - rows[r1 - 1] - 1] = P[lo:hi][keep]
    base = col_j - rows  # where row r of T starts, now that it moved up
    p, d, g = np.empty(m), np.empty(m), np.empty(m)
    t = np.empty(m + 1)
    t[0] = 1.0
    step = max(1, _DELETE_BLOCK // m)
    for r0 in range(0, m, step):
        r1 = min(m, r0 + step)
        # rows r0 .. r1 - 1 of T, columns 0 .. r1 - 1; past its diagonal a
        # row reads the rows below it, which the mask zeroes
        at = base[r0:r1, None] + np.arange(r1)
        lower = np.tri(r1 - r0, r1, r0, dtype=bool)
        T = np.where(lower, P[at], 0.0)
        # the next block of p by forward substitution
        p[r0:r1] = dtrsv(T[:, r0:], x[r0:r1] - T[:, :r0] @ p[:r0], lower=1)
        t[r0 + 1 : r1 + 1] = p[r0:r1] ** 2
        np.cumsum(t[r0 : r1 + 1], out=t[r0 : r1 + 1])
        d[r0:r1] = np.sqrt(t[r0 + 1 : r1 + 1] / t[r0:r1])
        g[r0:r1] = p[r0:r1] / np.sqrt(t[r0:r1] * t[r0 + 1 : r1 + 1])
        # g_c times the sums over i > c: the inclusive suffix sums of
        # T[r, i] p_i, read one column to the right
        s = (T * p[:r1])[:, ::-1].cumsum(axis=1)[:, -2::-1]
        s *= g[: r1 - 1]
        T *= d[:r1]
        T[:, :-1] += s
        P[at[lower]] = T[lower]


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
    P = np.empty(m * (m + 1) // 2)  # packed Cholesky factor, see _chol_append
    # slot i of G holds X' x_v for the variable v = order[i], the i-th active
    # one for i < |A|
    gram = p <= n
    if gram:
        # one BLAS-3 product; F-ordered, so slots are columns
        if allowed is not None and 2 * len(allowed) < p:
            order = np.array(sorted(allowed), dtype=np.intp)
            G = (X[:, order].T @ X).T
        else:
            order = np.arange(p)
            G = (X.T @ X).T
    else:
        order = np.empty(m, dtype=np.intp)
        G = np.empty((p, m), order="F")
    active = ()  # each event shares this tuple and its int objects
    sgn = np.zeros(m)
    beta = np.zeros(m)
    w = np.zeros(m)  # L^-1 s_A, the first half of the direction's solve
    k = 0
    events = []
    dropped = None  # (variable, sign) removed at the previous event

    # the first event adds the lowest-index variable at the top of the
    # correlation profile
    kind, j = "add", int(np.flatnonzero(np.abs(c) >= lam - _tie(lam)).min())
    while True:
        if kind == "drop":
            pos = active.index(j)
            _chol_delete(P, k, pos)
            dropped = (j, sgn[pos])
            active = active[:pos] + active[pos + 1 :]
            # the dropped slot moves to k - 1, where the full Gram keeps it
            for buf in (sgn, beta, G.T, order):
                _slot_to_end(buf, pos, k)
            k -= 1
            w[:k] = dtpsv(k, P, sgn[:k], trans=1)
        else:
            if not gram:
                G[:, k] = X.T @ X[:, j]
                order[k] = j
            # swap j's column into slot k; a variable outside the stop set may
            # have none in G, and the path stops at its entry
            elif allowed is None or j in allowed:
                s = k + int(np.flatnonzero(order[k:] == j)[0])
                G[:, k], G[:, s] = G[:, s], G[:, k].copy()
                order[k], order[s] = order[s], order[k]
            row = _chol_append(P, k, G[j, :k], col_sq[j], j)
            active += (j,)
            sgn[k] = 1.0 if c[j] > 0 else -1.0
            beta[k] = 0.0
            # the new entry of w: the last step of tpsv's forward solve (a dot
            # product, then a division), so w equals a full solve bit for bit
            w[k] = (sgn[k] - (ddot(row[:k], w[:k]) if k else 0.0)) / row[k]
            k += 1
            dropped = None

        # direction for the new active set; stored on the event and reused
        d = dtpsv(k, P, w[:k])
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
        near = np.flatnonzero(level >= cand_lam - _tie(cand_lam)).tolist()
        drops = [v for v in near if v in active]
        kind, j = ("drop", drops[0]) if drops else ("add", near[0])
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
