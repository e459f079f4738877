"""Exact piecewise-linear Lasso solution paths by homotopy.

Computes every breakpoint of lam -> argmin_b 0.5 ||y - X b||^2 + lam |b|_1
from lam_max = ||X' y||_inf downward.  Between breakpoints the active
coefficients move linearly along d = (X_A' X_A)^{-1} s_A (s_A the active
signs); a breakpoint occurs when an inactive correlation reaches the penalty
level (add) or an active coefficient crosses zero (drop).

Cost and memory: the correlations move along X' X_A d, read from the Gram
columns X' x_v of the active variables (covariance updating, Friedman,
Hastie & Tibshirani 2010).  When p <= n the whole Gram matrix X'X is formed
once, one O(n p^2) product up front held in p^2 doubles, and its columns
are permuted in place so that the active ones come first, in active order.
When p > n a p x (max_active + 1) buffer takes the column X' x_j as
variable j enters, one O(np) product per entry, so memory stays
O(p min(n, p)).  After that each step reads O(p |A|) data.  The Cholesky
factor L of X_A' X_A is stored packed, row by row in one flat buffer with
row i at offset i(i+1)/2, so the factor of the first k active variables is
always a contiguous prefix: an entry appends a row, and both triangular
solves run on that prefix in place (BLAS tpsv), O(|A|^2) each.  The active
signs, coefficients and Gram columns sit in slots, used through the first
|A|; a drop moves the slots after the dropped one down by one.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtpsv

_TIE_REL = 1e-12
_COEF_ZERO = 1e-12
_REFRESH_EVERY = 64
# a correlation nearing or leaving the penalty level slower than this (per
# unit decrease of lam) stays out: along the whole path it drifts from the
# level by less than 1e-9 * lam_max
_TIE_RATE = 1e-9


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


def _givens(a, b):
    r = math.hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


def _chol_append(P, k, gram_col, col_sq, variable):
    """Append the variable's row to the packed k x k lower factor in P.

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


def _chol_delete(P, k, j):
    """Remove row/column j from the packed k x k lower factor in P."""
    rows = np.arange(j + 1, k)
    col_j = rows * (rows + 1) // 2 + j  # column j of the rows below j
    x = P[col_j]
    start, end = j * (j + 1) // 2, k * (k + 1) // 2
    keep = np.ones(end - start, dtype=bool)
    keep[: j + 1] = False  # row j
    keep[col_j - start] = False
    P[start : end - k] = P[start:end][keep]
    # each row r below j moved up to r - 1, where column j + t sits at
    # at_j + t; Givens rotations fold x back into that trailing block
    at_j = rows * (rows - 1) // 2 + j
    for t in range(k - 1 - j):
        c, s, r = _givens(P[at_j[t] + t], x[t])
        P[at_j[t] + t] = r
        below = at_j[t + 1 :] + t
        tail = P[below]
        P[below] = c * tail + s * x[t + 1 :]
        x[t + 1 :] = -s * tail + c * x[t + 1 :]


def _slot_to_end(buf, pos, k):
    """Move slot pos of buf to k - 1 and slots pos + 1 .. k - 1 down by one.

    One slot at a time: numpy copies an overlapping block to a temporary
    first, which for the Gram columns would be (k - pos) x p doubles.
    """
    moved = buf[pos].copy()
    for i in range(pos, k - 1):
        buf[i] = buf[i + 1]
    buf[k - 1] = moved


def lasso_path(X, y, *, lambda_floor=None, max_active=None, stop_outside_support=None):
    """Compute the full breakpoint list of the Lasso path for (X, y).

    Parameters
    ----------
    X, y : design matrix (n x p, no zero columns) and response.
    lambda_floor : stop once the next breakpoint would fall at or below this
        level (default 1e-10 * lambda_max).
    max_active : stop once the active set reaches this size
        (default min(n - 1, p), at least 1).
    stop_outside_support : optional set of variable indices; the path stops
        immediately after the first add event outside it (stopping reason
        "first_false"), which is all the first-false-rank statistic needs.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    n, p = X.shape
    if y.shape[0] != n:
        raise ValueError(f"y has length {y.shape[0]}, expected {n}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    col_sq = np.einsum("ij,ij->j", X, X)
    if np.any(col_sq == 0.0):
        raise DegenerateDesignError(
            f"column {int(np.argmin(col_sq))} of the design is identically zero"
        )
    if max_active is None:
        max_active = max(1, min(n - 1, p))
    if not 0 < max_active <= min(n, p):
        raise ValueError(f"max_active must lie in [1, min(n, p)], got {max_active}")
    allowed = None if stop_outside_support is None else frozenset(
        int(v) for v in stop_outside_support
    )

    y_norm = float(np.linalg.norm(y))
    xty = c = X.T @ y
    lam = float(np.max(np.abs(c)))
    if lambda_floor is None:
        lambda_floor = 1e-10 * lam
    if lambda_floor < 0:
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

    m = max_active + 1
    P = np.empty(m * (m + 1) // 2)  # packed Cholesky factor, see _chol_append
    # slot i of G holds X' x_v for the i-th active variable v
    gram = p <= n
    if gram:
        G = (X.T @ X).T  # one BLAS-3 product; F-ordered, so slots are columns
        order = np.arange(p)  # the variable whose column sits in each slot
    else:
        G = np.empty((p, m), order="F")
    active = ()  # each event shares this tuple and its int objects
    sgn = np.zeros(m)
    beta = np.zeros(m)
    k = 0
    events = []
    dropped = None  # (variable, sign) removed at the previous event
    tie = lambda level: _TIE_REL * max(1.0, level)

    # the first event adds the lowest-index variable at the top of the
    # correlation profile
    kind, j = "add", int(np.flatnonzero(np.abs(c) >= lam - tie(lam)).min())
    while True:
        if kind == "drop":
            pos = active.index(j)
            _chol_delete(P, k, pos)
            dropped = (j, sgn[pos])
            active = active[:pos] + active[pos + 1 :]
            # the dropped slot moves to k - 1, where the full Gram keeps it
            for buf in (sgn, beta, G.T) + ((order,) if gram else ()):
                _slot_to_end(buf, pos, k)
            k -= 1
        else:
            if gram:  # swap j's column into slot k
                s = k + int(np.flatnonzero(order[k:] == j)[0])
                G[:, [k, s]] = G[:, [s, k]]
                order[[k, s]] = order[[s, k]]
            else:
                G[:, k] = X.T @ X[:, j]
            _chol_append(P, k, G[j, :k], col_sq[j], j)
            active += (j,)
            sgn[k] = 1.0 if c[j] > 0 else -1.0
            beta[k] = 0.0
            k += 1
            dropped = None

        # direction for the new active set; stored on the event and reused
        d = dtpsv(k, P, dtpsv(k, P, sgn[:k], trans=1), overwrite_x=1)
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

        # next breakpoint: the highest of one level per variable (see "Tie
        # handling" above)
        a = G[:, :k] @ d
        lo = lam - tie(lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            plus = np.where(a < 1.0 - _TIE_RATE, (c - lam * a) / (1.0 - a), np.nan)
            minus = np.where(a > _TIE_RATE - 1.0, (lam * a - c) / (1.0 + a), np.nan)
            drop_at = lam + b / d
        if dropped is not None:  # no same-sign re-entry right after a drop
            jd, sd = dropped
            (plus if sd > 0 else minus)[jd] = np.nan
        level = np.maximum(
            np.where((plus > 0.0) & (plus < lo), plus, -np.inf),
            np.where((minus > 0.0) & (minus < lo), minus, -np.inf),
        )
        level[(plus >= lo) | (minus >= lo)] = lam
        level[list(active)] = np.where(
            (drop_at > 0.0) & (drop_at < lo) & (np.abs(d) >= 1e-300), drop_at, -np.inf
        )
        cand_lam = float(level.max())
        if cand_lam == -np.inf:
            stopping, lambda_min_valid = "full_path", 0.0
            break
        # within the tie window a drop goes first, then the lowest index
        near = np.flatnonzero(level >= cand_lam - tie(cand_lam)).tolist()
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
    out = []
    for ev in path.events:
        sel = ev.active_set
        tp = sum(1 for v in sel if v in true)
        tpp = tp / max(k, 1)
        fdp = (len(sel) - tp) / max(len(sel), 1)
        out.append((ev.lam, tpp, fdp))
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
