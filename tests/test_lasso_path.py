"""Homotopy path solver: KKT certificates, oracle cross-checks, bookkeeping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky

from lassocrescent import (
    CoefficientSpec,
    DegenerateDesignError,
    DesignSpec,
    coefficients_at,
    first_false_rank,
    lasso_path,
    replicate_rng,
    residual_correlations,
    sample_coefficients,
    sample_design,
    soft_threshold,
    tpp_fdp_along_path,
)

from lassocrescent.lasso_path import _DELETE_BLOCK, _chol_delete, _levels, _slot_to_end
from oracles import amp_lasso, cd_lasso, path_levels


def _random_instance(rng, n=20, p=10, k=3, sigma=0.5):
    X = rng.normal(size=(n, p)) / np.sqrt(n)
    beta = np.zeros(p)
    beta[rng.choice(p, size=k, replace=False)] = rng.normal(scale=3.0, size=k)
    y = X @ beta + sigma * rng.normal(size=n)
    return X, y


def _kkt_violation(X, y, beta, lam):
    """Worst violation of the subgradient conditions at (beta, lam)."""
    c = residual_correlations(X, y, beta)
    worst = np.max(np.abs(c)) - lam  # no correlation may exceed lam
    active = np.abs(beta) > 1e-12
    if np.any(active):
        worst = max(worst, np.max(np.abs(c[active] - lam * np.sign(beta[active]))))
    return max(worst, 0.0)


def test_kkt_certificates_along_random_paths():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X, y = _random_instance(rng)
        path = lasso_path(X, y)
        lams = [ev.lam for ev in path.events]
        assert np.all(np.diff(lams) < 0)
        for ev in path.events:
            beta = coefficients_at(path, ev.lam)
            assert _kkt_violation(X, y, beta, ev.lam) < 1e-8
        # also between breakpoints
        for a, b in zip(lams[:-1], lams[1:]):
            mid = 0.5 * (a + b)
            beta = coefficients_at(path, mid)
            assert _kkt_violation(X, y, beta, mid) < 1e-8


def test_first_event_is_max_correlation():
    rng = np.random.default_rng(11)
    X, y = _random_instance(rng)
    path = lasso_path(X, y)
    c0 = np.abs(X.T @ y)
    assert path.lambda_max == pytest.approx(np.max(c0), abs=1e-12)
    first = path.events[0]
    assert first.kind == "add"
    assert first.variable == int(np.argmax(c0))
    assert first.lam == pytest.approx(path.lambda_max, abs=1e-12)
    # zero solution above lambda_max
    assert np.all(coefficients_at(path, path.lambda_max * 1.5) == 0.0)


def test_matches_coordinate_descent():
    rng = np.random.default_rng(23)
    X, y = _random_instance(rng, n=40, p=15, k=4)
    path = lasso_path(X, y)
    lam_lo = max(path.lambda_min_valid, 1e-3 * path.lambda_max)
    for lam in np.linspace(0.9 * path.lambda_max, 1.01 * lam_lo, 5):
        beta_path = coefficients_at(path, float(lam))
        beta_cd = cd_lasso(X, y, float(lam))
        assert np.max(np.abs(beta_path - beta_cd)) < 1e-6


def test_amp_fixed_point_is_the_path_solution():
    # AMP's fixed point at threshold theta is the Lasso solution at
    # lam = theta (1 - ||x||_0 / n).  Over 20 seeds at n = p = 500 the two
    # agreed to 3.8e-15 of max |x|; the tolerance leaves a factor ~25.
    rng = np.random.default_rng(2012)
    n = p = 500
    X = rng.standard_normal((n, p)) / np.sqrt(n)
    y = X @ np.where(rng.random(p) < 0.2, 2.0, 0.0) + 0.5 * rng.standard_normal(n)
    for theta in (1.0, 2.0):
        x, lam = amp_lasso(X, y, theta)
        beta = coefficients_at(lasso_path(X, y, lambda_floor=lam * (1.0 - 1e-6)), lam)
        np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(x))
        assert np.max(np.abs(beta - x)) <= 1e-13 * np.max(np.abs(x))


def test_orthogonal_design_soft_thresholds():
    rng = np.random.default_rng(3)
    p = 12
    X = np.eye(p)
    y = rng.normal(scale=2.0, size=p)
    path = lasso_path(X, y, max_active=p)
    assert len(path.events) == p  # one entry per coordinate, no drops
    lams = [ev.lam for ev in path.events]
    probes = lams + [0.5 * (a + b) for a, b in zip(lams[:-1], lams[1:])]
    for lam in probes:
        beta = coefficients_at(path, lam)
        assert np.max(np.abs(beta - soft_threshold(y, lam))) < 1e-12


def test_piecewise_linear_between_breakpoints():
    rng = np.random.default_rng(5)
    X, y = _random_instance(rng)
    path = lasso_path(X, y)
    lams = [ev.lam for ev in path.events]
    for a, b in zip(lams[:-1], lams[1:]):
        mid = 0.5 * (a + b)
        left = coefficients_at(path, a)
        right = coefficients_at(path, b)
        middle = coefficients_at(path, mid)
        assert np.max(np.abs(middle - 0.5 * (left + right))) < 1e-10


def test_event_bookkeeping():
    rng = np.random.default_rng(19)
    X, y = _random_instance(rng, n=30, p=12, k=5, sigma=1.0)
    path = lasso_path(X, y)
    active = set()
    for ev in path.events:
        if ev.kind == "add":
            assert ev.variable not in active
            active.add(ev.variable)
        else:
            assert ev.kind == "drop"
            assert ev.variable in active
            active.remove(ev.variable)
        assert set(ev.active_set) == active
        assert len(ev.coef) == len(ev.active_set)
        assert len(ev.coef_direction) == len(ev.active_set)
    assert path.stopping_reason in ("lambda_floor", "max_active", "full_path")


def test_max_active_stop():
    rng = np.random.default_rng(29)
    X, y = _random_instance(rng)
    path = lasso_path(X, y, max_active=3)
    assert path.stopping_reason == "max_active"
    assert max(len(ev.active_set) for ev in path.events) == 3
    with pytest.raises(ValueError):
        lasso_path(X, y, max_active=0)
    with pytest.raises(ValueError):
        lasso_path(X, y, max_active=X.shape[1] + 5)
    # integers only: a float or a boolean is not a size
    for bad in (2.5, 3.0, True, np.True_, "3"):
        with pytest.raises(ValueError):
            lasso_path(X, y, max_active=bad)
    same = lasso_path(X, y, max_active=np.int64(3))
    assert [ev.lam for ev in same.events] == [ev.lam for ev in path.events]


def test_single_observation_default_max_active():
    # n = 1: the default cap is one variable, not n - 1 = 0
    X, y = np.array([[1.0, 2.0, 3.0]]), np.array([1.0])
    path = lasso_path(X, y)
    assert path.stopping_reason == "max_active"
    assert [(ev.kind, ev.variable) for ev in path.events] == [("add", 2)]
    assert np.all(coefficients_at(path, path.lambda_min_valid) == cd_lasso(X, y, 3.0))
    # the recorded segment is the whole remaining path of a rank-one design
    ev = path.events[0]
    for lam in (2.0, 0.5):
        beta = np.zeros(3)
        beta[list(ev.active_set)] = ev.coef + (ev.lam - lam) * ev.coef_direction
        assert np.max(np.abs(beta - cd_lasso(X, y, lam))) < 1e-10


def test_lambda_floor_stop():
    rng = np.random.default_rng(31)
    X, y = _random_instance(rng)
    floor = 0.5 * np.max(np.abs(X.T @ y))
    path = lasso_path(X, y, lambda_floor=floor)
    assert path.stopping_reason == "lambda_floor"
    assert all(ev.lam >= floor - 1e-12 for ev in path.events)
    # asking below the computed range is an error
    with pytest.raises(ValueError):
        coefficients_at(path, 1e-6 * floor)
    for bad in (np.nan, -1.0, -np.inf):
        with pytest.raises(ValueError):
            lasso_path(X, y, lambda_floor=bad)
    # an infinite floor lies above lambda_max: an empty path
    path = lasso_path(X, y, lambda_floor=np.inf)
    assert path.events == [] and path.stopping_reason == "lambda_floor"


def test_tpp_fdp_along_path_toy():
    X = np.eye(3)
    y = np.array([3.0, 1.0, 2.0])
    path = lasso_path(X, y, max_active=3)
    stats = tpp_fdp_along_path(path, true_support=[0, 1])
    # entry order follows |X'y|: variable 0, then 2 (false), then 1
    assert [ev.variable for ev in path.events] == [0, 2, 1]
    assert stats[0][1:] == (0.5, 0.0)
    assert stats[1][1:] == (0.5, 0.5)
    assert stats[2][1:] == (1.0, pytest.approx(1.0 / 3.0))
    # against a larger hypothesized signal count
    stats_k4 = tpp_fdp_along_path(path, true_support=[0, 1], k=4)
    assert stats_k4[0][1] == 0.25


@pytest.fixture(scope="module")
def drops_instance():
    """The path of tests/golden/path_drops.csv: 391 events, 96 of them drops."""
    rng_x, rng_b, rng_z = replicate_rng(7, 0)
    X = sample_design(DesignSpec(kind="iid_gaussian", n=200, p=200), rng_x)
    beta, support = sample_coefficients(
        CoefficientSpec(kind="equal", p=200, magnitude=1000.0, k=40), rng_b
    )
    y = X @ beta + 0.01 * rng_z.standard_normal(200)
    path = lasso_path(X, y)
    assert len(path.events) == 391
    assert sum(ev.kind == "drop" for ev in path.events) == 96
    return X, y, support, path


def test_tpp_fdp_running_count_matches_a_scan_of_each_active_set(drops_instance):
    _, _, support, path = drops_instance
    true = set(support.tolist())
    for k in (None, 50):
        expected = []
        for ev in path.events:
            tp = sum(v in true for v in ev.active_set)
            sel = len(ev.active_set)
            expected.append((ev.lam, tp / (k or len(true)), (sel - tp) / max(sel, 1)))
        assert tpp_fdp_along_path(path, support, k=k) == expected


def test_kkt_at_every_event_of_a_path_with_many_drops(drops_instance):
    X, y, _, path = drops_instance
    limit = 1e-8 * max(1.0, path.lambda_max)
    for ev in path.events:
        assert _kkt_violation(X, y, coefficients_at(path, ev.lam), ev.lam) < limit


def test_first_false_rank_toys():
    X = np.eye(3)
    y = np.array([3.0, 1.0, 2.0])
    path = lasso_path(X, y, max_active=3)
    res = first_false_rank(path, [0, 1])
    assert (res.rank, res.censored) == (2, False)
    # every selection false from the start
    res_empty = first_false_rank(path, [])
    assert (res_empty.rank, res_empty.censored) == (1, False)
    # no false selection at all: censored at k + 1
    res_all = first_false_rank(path, [0, 1, 2])
    assert (res_all.rank, res_all.censored) == (4, True)


def test_stop_outside_support():
    X = np.eye(3)
    y = np.array([3.0, 1.0, 2.0])
    path = lasso_path(X, y, stop_outside_support=[0, 1])
    assert path.stopping_reason == "first_false"
    assert path.events[-1].kind == "add"
    assert path.events[-1].variable == 2
    res = first_false_rank(path, [0, 1])
    assert (res.rank, res.censored) == (2, False)
    for bad in ([0, -1], [0, 3], [0.5]):
        with pytest.raises(ValueError, match="stop_outside_support"):
            lasso_path(X, y, stop_outside_support=bad)
    # an empty stop set stops at the first entry; the full range never stops
    empty = lasso_path(X, y, stop_outside_support=[])
    assert (empty.stopping_reason, len(empty.events)) == ("first_false", 1)
    unstopped = lasso_path(X, y)
    every = lasso_path(X, y, stop_outside_support=range(3))
    assert every.stopping_reason == unstopped.stopping_reason
    assert [(ev.lam, ev.kind, ev.variable) for ev in every.events] == [
        (ev.lam, ev.kind, ev.variable) for ev in unstopped.events
    ]


def _ladder_instance(n, rho, k, sigma, seed):
    """Toeplitz design with the linear ladder beta_j = j on its first k coordinates."""
    rng_x, rng_b, rng_z = replicate_rng(seed, 0)
    X = sample_design(DesignSpec(kind="correlated_gaussian", n=n, p=n, rho=rho), rng_x)
    beta, support = sample_coefficients(CoefficientSpec(kind="linear", p=n, k=k), rng_b)
    return X, X @ beta + sigma * rng_z.standard_normal(n), support


def test_first_false_path_is_a_prefix_of_the_full_path():
    # with 2|S| < p the stopped path forms only the Gram columns of S; it must
    # still follow the unstopped path (full X'X) event for event.  Seed 1 at
    # rho = 0.9 drops twice and lets all of S enter before the false variable.
    seen_all_of_s = seen_drop = False
    for rho in (0.0, 0.6, 0.9):
        for seed in (1, 2):
            X, y, support = _ladder_instance(300, rho, 60, 0.2, seed)
            stopped = lasso_path(X, y, stop_outside_support=support)
            full = lasso_path(X, y)
            assert stopped.stopping_reason == "first_false"
            tol = 1e-12 * max(1.0, full.lambda_max)
            for a, b in zip(stopped.events, full.events):
                assert (a.kind, a.variable, a.active_set) == (b.kind, b.variable, b.active_set)
                assert abs(a.lam - b.lam) <= tol
            assert len(stopped.events) <= len(full.events)
            last = stopped.events[-1]
            assert last.variable not in set(support.tolist())
            seen_all_of_s |= len(last.active_set) == len(support) + 1
            seen_drop |= any(ev.kind == "drop" for ev in stopped.events)
    assert seen_all_of_s and seen_drop


def test_first_false_path_memory_stays_linear_in_p():
    # X'X at n = p = 600 takes 2.9 MB; the columns X'X_S of a 30-variable stop
    # set take 144 kB
    rng = np.random.default_rng(59)
    n = p = 600
    X = rng.normal(size=(n, p)) / np.sqrt(n)
    support = np.arange(30)
    y = X[:, support] @ np.full(30, 5.0) + rng.normal(size=n)
    tracemalloc.start()
    try:
        path = lasso_path(X, y, stop_outside_support=support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stopping_reason == "first_false"
    assert peak < p * p * 8 / 4
    # measured 307 kB: X[:, S] and X'X_S (144 kB each) and a few p-vectors;
    # an n x p temporary (360 kB of booleans for the finiteness check) fails
    assert peak < 2 * n * len(support) * 8 + 64 * p


def test_finiteness_check():
    rng = np.random.default_rng(61)
    X, y = _random_instance(rng, n=30, p=3000)
    for bad in (np.nan, np.inf, -np.inf):
        Xb = X.copy()
        Xb[29, 2999] = bad
        with pytest.raises(ValueError, match="finite"):
            lasso_path(Xb, y)
        yb = y.copy()
        yb[0] = bad
        with pytest.raises(ValueError, match="finite"):
            lasso_path(X, yb)
    # finite entries whose squared column norm overflows pass the check; the
    # factor then finds that column singular
    Xb = X.copy()
    Xb[:, 7] = 1e300
    with np.errstate(over="ignore"), pytest.raises(DegenerateDesignError):
        lasso_path(Xb, y)


def test_zero_column_rejected():
    rng = np.random.default_rng(37)
    X, y = _random_instance(rng)
    X[:, 4] = 0.0
    with pytest.raises(DegenerateDesignError):
        lasso_path(X, y)


def test_duplicate_columns_still_solve():
    # an exact duplicate makes the solution non-unique; the path must pick a
    # valid one (KKT holds, the two copies are never active together)
    rng = np.random.default_rng(41)
    X = rng.normal(size=(20, 6)) / np.sqrt(20)
    X[:, 5] = X[:, 0]
    beta = np.zeros(6)
    beta[0] = 5.0
    y = X @ beta + 0.01 * rng.normal(size=20)
    path = lasso_path(X, y)
    for ev in path.events:
        coef = coefficients_at(path, ev.lam)
        assert _kkt_violation(X, y, coef, ev.lam) < 1e-8
        assert not {0, 5} <= set(ev.active_set)
    # a copy's correlation moves with its original's, at the same rate as the
    # penalty level once the original is active; rounding alone must not let
    # it enter (the active Gram matrix would turn singular), on either side
    # of p <= n and with +-1 entries
    for args in [
        (12, 10, "gaussian", "duplicate", "noisy", 2),
        (10, 12, "sign", "duplicate", "noisy", 1),
        (10, 12, "sign", "scaled", "noisy", 11),
    ]:
        X, y = _stress_instance(*args)
        path = lasso_path(X, y)
        limit = 1e-8 * max(1.0, path.lambda_max)
        for ev in path.events:
            assert _kkt_violation(X, y, coefficients_at(path, ev.lam), ev.lam) < limit


def test_tied_variables_enter_in_zero_length_steps():
    # all three correlations reach lambda_max = 2 together, two with sign +1
    # and one with sign -1; each used to be skipped after the first, since
    # its entry level equals the current one
    X = np.eye(5)[:, :4]
    path = lasso_path(X, np.array([2.0, -2.0, 2.0, 1.0, 0.0]))
    assert [(ev.lam, ev.kind, ev.variable) for ev in path.events] == [
        (2.0, "add", 0),
        (2.0, "add", 1),
        (2.0, "add", 2),
        (1.0, "add", 3),
    ]
    assert np.allclose(coefficients_at(path, 1.5), [0.5, -0.5, 0.5, 0.0])


def test_drop_before_add_in_one_tie_window():
    # at lam = 2 coefficient 0 reaches zero as the correlation of variable 1
    # reaches the penalty level: the drop is processed first, then 1 enters,
    # then 0 re-enters with the opposite sign in a zero-length step
    X = np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 1.0], [1.0, 2.0, 0.0], [-2.0, -2.0, 0.0]])
    y = np.array([0.0, 4.0, -4.0, -1.0])
    path = lasso_path(X, y)
    got = [(ev.kind, ev.variable) for ev in path.events]
    assert got == [("add", 0), ("add", 2), ("drop", 0), ("add", 1), ("add", 0)]
    lams = [ev.lam for ev in path.events]
    assert lams == pytest.approx([6.0, 40.0 / 11.0, 2.0, 2.0, 2.0], rel=1e-14)
    for ev in path.events:
        assert _kkt_violation(X, y, coefficients_at(path, ev.lam), ev.lam) < 1e-12


def _level_inputs(rng, p=300, k=30):
    """Rates a, correlations c, penalty lam, and the active slots (indices
    100 and up) with their coefficients b and direction d."""
    lam = float(rng.choice([1e-3, 0.7, 1.0, 40.0]))
    a = rng.uniform(-3.0, 3.0, p)
    c = lam * rng.uniform(-1.0, 1.0, p)
    slots = 100 + rng.choice(p - 100, size=k, replace=False)
    return a, c, lam, slots, rng.normal(size=k), rng.normal(size=k)


def test_level_pass_matches_the_two_array_form():
    rng = np.random.default_rng(67)
    for trial in range(40):
        a, c, lam, slots, b, d = _level_inputs(rng)
        dropped = (int(rng.integers(100)), 1.0 if trial % 4 else -1.0) if trial % 2 else None
        args = (a, c, lam, dropped, slots, b, d)
        assert _levels(*args).tobytes() == path_levels(*args).tobytes()

    a, c, lam, slots, b, d = _level_inputs(rng)
    lam = 1.0
    lo = lam - 1e-12
    # active rows: a = s exactly, c = lam s
    s = np.where(rng.uniform(size=len(slots)) < 0.5, -1.0, 1.0)
    a[slots], c[slots] = s, lam * s
    # rates at and within 1e-9 of +-1
    edge = 1.0 - 1e-9
    near = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0), 1.0 - 2e-9,
            1.0 - 5e-10, 1.0 + 1e-10, 1.0, np.nextafter(1.0, 0.0)]
    a[:8], a[8:16] = near, np.negative(near)
    c[:8], c[8:16] = (1.0 - 5e-10) * lam, (5e-10 - 1.0) * lam
    # at a = 0 the root is c itself: exactly at lo, just below it, at lam, at 0
    a[20:26] = 0.0
    c[20:26] = [lo, np.nextafter(lo, 0.0), -lo, np.nextafter(-lo, 0.0), lam, 0.0]
    # a variable whose correlation meets -lam (at 0.12 lam), for the
    # dropped-sign rule
    a[30], c[30] = 0.25, 0.1 * lam
    # drop levels: exactly at lo, just below it, and zero directions
    b[:6] = [lo - lam, np.nextafter(lo - lam, -1.0), 0.0, 1.0, -1.0, 1.0]
    d[:6] = [1.0, 1.0, 0.0, 0.0, 0.0, 1e-301]
    for dropped in (None, (30, 1.0), (30, -1.0), (20, 1.0), (22, -1.0)):
        args = (a, c, lam, dropped, slots, b, d)
        level = _levels(*args)
        assert level.tobytes() == path_levels(*args).tobytes()
        if dropped is None:
            assert level[20] == level[22] == level[24] == lam
            assert level[21] == level[23] == np.nextafter(lo, 0.0)
            assert level[25] == -np.inf
            assert level[slots[0]] == -np.inf and level[slots[1]] < lo
            assert np.all(level[slots[2:6]] == -np.inf)
    # variable 30 stays out right after a drop with sign -1, not with +1
    assert _levels(a, c, lam, None, slots, b, d)[30] == pytest.approx(0.12 * lam)
    assert _levels(a, c, lam, (30, 1.0), slots, b, d)[30] == pytest.approx(0.12 * lam)
    assert _levels(a, c, lam, (30, -1.0), slots, b, d)[30] == -np.inf


def _packed(L):
    return np.concatenate([L[i, : i + 1] for i in range(len(L))])


def _unpacked(P, k):
    L = np.zeros((k, k))
    for i in range(k):
        L[i, : i + 1] = P[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]
    return L


def test_chol_delete_matches_the_factor_of_the_reduced_gram():
    rng = np.random.default_rng(3)
    grams = []
    for k in (1, 2, 3, 40, 300):
        X = rng.standard_normal((k + 10, k))
        grams.append(X.T @ X)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    grams.append((q * np.geomspace(1.0, 1e-6, 40)) @ q.T)  # condition number 1e6
    for A in grams:
        k = len(A)
        L = cholesky(A, lower=True)
        for j in sorted({0, 1, k // 2, k - 2, k - 1} & set(range(k))):
            # NaN past the factor: the update must neither read nor write there
            P = np.full(k * (k + 1) // 2 + 8, np.nan)
            P[: k * (k + 1) // 2] = _packed(L)
            _chol_delete(P, k, j)
            assert np.isnan(P[k * (k + 1) // 2 :]).all()
            new = _unpacked(P, k - 1)
            assert np.array_equal(new[:j], L[:j, :-1])  # rows above j
            assert np.array_equal(new[j:, :j], L[j + 1 :, :j])  # leading columns
            assert np.all(np.diag(new) > 0.0)
            if k == 1:
                continue
            keep = np.delete(np.arange(k), j)
            A2 = A[np.ix_(keep, keep)]
            # measured: backward error <= 1.2e-15, forward error <= 7.4e-14
            # (at condition number 1e6)
            assert np.abs(new @ new.T - A2).max() <= 4e-15 * np.abs(A2).max()
            ref = cholesky(A2, lower=True)
            assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
    # memory of one drop at k = 1000, j = 0: block arrays of at most
    # _DELETE_BLOCK entries, never a copy of all 999 trailing rows (4 MB)
    k = 1000
    X = rng.standard_normal((k + 10, k))
    P = _packed(cholesky(X.T @ X, lower=True))
    tracemalloc.start()
    try:
        _chol_delete(P, k, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # measured 0.74 MB


def test_slot_to_end_moves_chunks_in_order():
    # rows of 5000 doubles give chunks of 3 slots; 1-D buffers one chunk
    for width in (None, 5000):
        shape = (11,) if width is None else (11, width)
        buf = np.random.default_rng(4).standard_normal(shape)
        for pos, k in ((0, 11), (2, 9), (7, 8), (4, 5)):
            want = buf.copy()
            want[pos:k] = np.roll(buf[pos:k], -1, axis=0)
            _slot_to_end(buf, pos, k)
            assert np.array_equal(buf, want)
    assert _DELETE_BLOCK // 5000 == 3


def test_deterministic():
    rng = np.random.default_rng(43)
    X, y = _random_instance(rng)
    p1 = lasso_path(X, y)
    p2 = lasso_path(X, y)
    assert len(p1.events) == len(p2.events)
    for a, b in zip(p1.events, p2.events):
        assert a.lam == b.lam
        assert a.kind == b.kind
        assert a.variable == b.variable
        assert np.array_equal(a.coef, b.coef)


def test_path_handles_drops():
    # correlated designs reliably force drop events; the KKT certificate
    # must keep holding through them
    rng = np.random.default_rng(47)
    rho = 0.7
    cov = rho ** np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
    chol = np.linalg.cholesky(cov).T
    seen_drop = False
    for _ in range(40):
        X = (rng.normal(size=(15, 12)) @ chol) / np.sqrt(15)
        beta = np.zeros(12)
        beta[rng.choice(12, size=5, replace=False)] = rng.normal(scale=3.0, size=5)
        y = X @ beta + 1.5 * rng.normal(size=15)
        path = lasso_path(X, y)
        if any(ev.kind == "drop" for ev in path.events):
            seen_drop = True
            for ev in path.events:
                coef = coefficients_at(path, ev.lam)
                assert _kkt_violation(X, y, coef, ev.lam) < 1e-8
            break
    assert seen_drop, "no drop event in 40 correlated instances"


def test_dropped_variable_does_not_reenter_at_next_event():
    # A strong equal ladder at n = p = 1000 drops variable 548 at event 232.
    # Its correlation then sits ~4e-12 below the penalty level, which is
    # inside the rounding error of correlations of size lambda_max ~ 2e3;
    # letting it re-enter at the next event with the wrong direction broke
    # KKT by ~2 lambda on every later event.
    rng_x, rng_b, rng_z = replicate_rng(1, 0)
    X = sample_design(DesignSpec(kind="iid_gaussian", n=1000, p=1000), rng_x)
    beta, _ = sample_coefficients(
        CoefficientSpec(kind="equal", p=1000, magnitude=1000.0, k=200), rng_b
    )
    y = X @ beta + 0.01 * rng_z.standard_normal(1000)
    path = lasso_path(X, y, max_active=464)
    assert (path.events[232].kind, path.events[232].variable) == ("drop", 548)
    assert path.events[233].variable != 548
    limit = 1e-8 * max(1.0, path.lambda_max)
    for ev in path.events:
        assert _kkt_violation(X, y, coefficients_at(path, ev.lam), ev.lam) < limit


def _stress_instance(n, p, entries, columns, response, seed):
    """A small (X, y) with the structure named by the arguments."""
    rng = np.random.default_rng(seed)
    if entries == "sign":  # +-1 entries: few distinct correlations, so ties
        X = rng.choice([-1.0, 1.0], size=(n, p))
    else:
        X = rng.normal(size=(n, p)) / np.sqrt(n)
    if columns != "independent" and p >= 3:
        i, k, j = rng.choice(p, size=3, replace=False)
        linked = {"duplicate": X[:, i], "scaled": -2.0 * X[:, i], "sum": X[:, i] + X[:, k]}
        X[:, j] = linked[columns]
    beta = np.zeros(p)
    beta[rng.choice(p, size=min(3, p), replace=False)] = rng.integers(-3, 4, size=min(3, p))
    y = {
        "zero": np.zeros(n),
        "sparse": X @ beta,
        "noisy": X @ beta + 0.5 * rng.normal(size=n),
    }[response]
    return X, y


@settings(max_examples=45, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 12),
    p=st.integers(1, 12),
    entries=st.sampled_from(["gaussian", "sign"]),
    columns=st.sampled_from(["independent", "duplicate", "scaled", "sum"]),
    response=st.sampled_from(["zero", "sparse", "noisy"]),
    seed=st.integers(0, 2**16),
)
@example(n=6, p=10, entries="sign", columns="duplicate", response="sparse", seed=1)
@example(n=12, p=5, entries="gaussian", columns="sum", response="noisy", seed=2)
@example(n=8, p=8, entries="sign", columns="scaled", response="zero", seed=3)
@example(n=9, p=1, entries="gaussian", columns="independent", response="noisy", seed=4)
# drop-heavy: 8 drops in 27 events with p <= n, 5 in 19 with p > n
@example(n=12, p=12, entries="gaussian", columns="sum", response="noisy", seed=18)
@example(n=10, p=12, entries="gaussian", columns="independent", response="noisy", seed=122)
def test_path_kkt_and_cd_agreement_under_stress(n, p, entries, columns, response, seed):
    # a path that is a Lasso solution at every event and matches coordinate
    # descent inside its range; only an exactly collinear triple (the "sum"
    # family) may instead raise a clean DegenerateDesignError
    X, y = _stress_instance(n, p, entries, columns, response, seed)
    try:
        path = lasso_path(X, y)
    except DegenerateDesignError:
        if columns == "sum":
            return
        raise
    limit = 1e-8 * max(1.0, path.lambda_max)
    for ev in path.events:
        assert _kkt_violation(X, y, coefficients_at(path, ev.lam), ev.lam) < limit
    if not path.events:
        assert not np.any(X.T @ y)
        return
    lam = 0.5 * (path.lambda_max + max(path.lambda_min_valid, 1e-3 * path.lambda_max))
    beta = coefficients_at(path, lam)
    beta_cd = cd_lasso(X, y, lam)
    # the fit is unique even where duplicate columns make beta not unique
    assert np.max(np.abs(X @ (beta - beta_cd))) < 1e-6 * max(1.0, np.linalg.norm(y))
    assert np.abs(beta).sum() == pytest.approx(np.abs(beta_cd).sum(), rel=1e-6, abs=1e-9)


def test_wide_design_memory_stays_linear_in_p():
    # with p > n the Gram columns are formed as variables enter, so the path
    # needs O(p (n + max_active)) memory, not the 128 MB of X'X at p = 4000
    rng = np.random.default_rng(53)
    n, p = 50, 4000
    X = rng.normal(size=(n, p)) / np.sqrt(n)
    y = X[:, :10] @ rng.normal(scale=3.0, size=10) + 0.1 * rng.normal(size=n)
    tracemalloc.start()
    try:
        path = lasso_path(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    max_active = n - 1
    assert max(len(ev.active_set) for ev in path.events) == max_active
    assert peak < 4 * (n * p + p * (max_active + 1)) * 8
