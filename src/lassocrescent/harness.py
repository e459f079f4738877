"""Monte Carlo experiment harness around the path solver.

Experiments are described by plain configs (JSON-friendly dataclasses) and
driven by counter-based RNG streams: replicate r of an experiment seeded with
``seed`` draws from ``numpy.random.SeedSequence(seed, spawn_key=(tag, r))``
children, so results are independent of execution order and worker count, and
rerunning any single replicate reproduces it bit for bit.

Two experiment modes:

* ``tradeoff``: full paths, per-event TPP/FDP, step-interpolated onto a fixed
  TPP grid (the FDP carried to a grid point is that of the path event with
  the largest TPP not exceeding it, latest such event in path order), then
  averaged across replicates.
* ``rank``: early-stopped paths recording the first-false-selection rank,
  optionally swept over ``k`` or ``rho``: sweep value i becomes a config of its
  own, checked as a written one, and draws with tag i.

Both modes run their replicates through one runner: in order in this process
at ``jobs=1``, else on one process pool per experiment.  Results come back in
replicate order, so outputs do not depend on ``jobs``.  One failure policy
holds for both: if any replicate fails, the experiment raises RuntimeError
naming the (seed, tag, replicate) key of every failed replicate.
"""

import contextlib
import dataclasses
import functools
import inspect
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .lasso_path import first_false_rank, lasso_path, tpp_fdp_along_path
from .state_evolution import DiscretePrior

_DESIGN_KINDS = ("iid_gaussian", "correlated_gaussian", "bernoulli_pm", "genotype_file")
_COEF_KINDS = ("prior_sample", "fixed_levels", "geometric", "linear", "equal")
_MAGNITUDE_CAP = 1e300
# A field's JSON metadata: "json_default", its value when a JSON config leaves it
# out, and "json_write", whether config_to_json writes it (see there)
_JSON_ALWAYS = {"json_write": lambda spec: True}


# The kinds (for a config, the modes) that read each optional field
_CORRELATED = ("correlated_gaussian",)
_DESIGN_READS = {"rho": _CORRELATED, "structure": _CORRELATED, "path": ("genotype_file",)}
_COEF_READS = {
    "prior": ("prior_sample",),
    "values": ("fixed_levels",),
    "counts": ("fixed_levels",),
    "magnitude": ("geometric", "equal"),
    "k": ("geometric", "linear", "equal"),
}
_MODE_READS = {"tpp_grid": ("tradeoff",), "sweep_param": ("rank",), "sweep_values": ("rank",)}
# The spec that holds the field each sweep shorthand names
_SWEPT = {"k": ("coefficients", _COEF_READS), "rho": ("design", _DESIGN_READS)}


def _reject_unread(spec, kind, kinds_reading):
    """Raise ValueError for a field that ``kind`` does not read yet that holds
    other than its default: the run would ignore it, while the output header
    would echo it.  ``kinds_reading`` maps a field to the kinds that read it."""
    defaults = {f.name: f.default for f in dataclasses.fields(spec)}
    for name, kinds in kinds_reading.items():
        value = getattr(spec, name)
        if kind not in kinds and value != defaults[name]:
            raise ValueError(
                f"{name} applies only to {' or '.join(kinds)}, "
                f"got {name}={value!r} on {kind!r}"
            )


@dataclass(frozen=True)
class DesignSpec:
    """Random design family.  Entry variance defaults to 1/n (so columns have
    roughly unit norm); ``variance_scale`` overrides it when a study calls
    for a different normalization."""

    kind: str
    n: int = field(metadata={"json_default": 0})  # a genotype file brings its own n, p
    p: int = field(metadata={"json_default": 0})
    rho: float = field(default=0.0, metadata=_JSON_ALWAYS)
    structure: str = field(default="toeplitz", metadata=_JSON_ALWAYS)  # or "equicorrelation"
    path: str = ""  # for kind = "genotype_file"
    variance_scale: float = None

    def __post_init__(self):
        if self.kind not in _DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}, expected {_DESIGN_KINDS}")
        if self.kind != "genotype_file" and (self.n < 1 or self.p < 1):
            raise ValueError(f"need n, p >= 1, got n={self.n}, p={self.p}")
        _reject_unread(self, self.kind, _DESIGN_READS)
        if self.kind == "correlated_gaussian":
            if not 0.0 <= self.rho < 1.0:
                raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
            if self.structure not in ("toeplitz", "equicorrelation"):
                raise ValueError(f"unknown correlation structure {self.structure!r}")
        if self.kind == "genotype_file":
            if not (isinstance(self.path, str) and self.path):
                raise ValueError(f"genotype_file design needs a file path, got {self.path!r}")
            # a file present here gives n and p; a missing one fails in every replicate
            if os.path.isfile(self.path):
                n, p = load_design_file(self.path).shape
                if (self.n or n, self.p or p) != (n, p):
                    raise ValueError(
                        f"design n = {self.n}, p = {self.p} disagree with the {n} rows and "
                        f"{p} columns of {self.path}"
                    )
                object.__setattr__(self, "n", n)
                object.__setattr__(self, "p", p)
        if self.variance_scale is not None and not 0 < self.variance_scale < math.inf:
            raise ValueError(f"variance_scale must be finite and > 0, got {self.variance_scale}")

    @property
    def scale(self):
        return self.variance_scale if self.variance_scale is not None else 1.0 / self.n


@dataclass(frozen=True)
class CoefficientSpec:
    """Coefficient vector family on p coordinates.

    kinds: ``prior_sample`` (i.i.d. from a DiscretePrior), ``fixed_levels``
    (given values with multiplicities on the first coordinates), ``geometric``
    (beta_j = M^(k+1-j), j = 1..k), ``linear`` (beta_j = j, j = 1..k),
    ``equal`` (beta_j = M, j = 1..k).  All fixed kinds put the support on the
    first k coordinates.
    """

    kind: str
    p: int
    prior: DiscretePrior = None
    values: tuple[float, ...] = ()
    counts: tuple[int, ...] = ()
    magnitude: float = 0.0
    k: int = 0

    def __post_init__(self):
        if self.kind not in _COEF_KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}, expected {_COEF_KINDS}")
        if self.p < 1:
            raise ValueError("p must be positive")
        for v in (self.magnitude, *self.values):
            if not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ValueError(f"magnitude and values must be finite numbers, got {v!r}")
        _reject_unread(self, self.kind, _COEF_READS)
        if self.kind == "prior_sample":
            if self.prior is None:
                raise ValueError("prior_sample needs a DiscretePrior")
        elif self.kind == "fixed_levels":
            if len(self.values) != len(self.counts) or not self.values:
                raise ValueError("fixed_levels needs matching nonempty values/counts")
            if any(c < 1 for c in self.counts):
                raise ValueError("counts must be positive")
            if sum(self.counts) > self.p:
                raise ValueError("fixed_levels support exceeds p")
        else:
            if not 0 < self.k <= self.p:
                raise ValueError(f"k must lie in [1, p], got {self.k}")
            if self.kind in ("geometric", "equal"):
                if self.magnitude <= 0:
                    raise ValueError("magnitude must be positive")
                if self.kind == "geometric":
                    try:
                        top = float(self.magnitude) ** self.k
                    except OverflowError:
                        top = math.inf
                    if top >= _MAGNITUDE_CAP:
                        raise ValueError(
                            f"geometric ladder overflows: {self.magnitude}**{self.k} >= 1e300"
                        )


@dataclass(frozen=True)
class ExperimentConfig:
    design: DesignSpec
    coefficients: CoefficientSpec
    sigma: float = field(metadata={"json_default": 0.0})
    replicates: int = field(metadata={"json_default": 1})
    seed: int = field(metadata={"json_default": 0})
    mode: str = field(metadata={"json_default": "tradeoff"})  # "tradeoff" | "rank"
    tpp_grid: tuple[float, ...] = field(
        default=(), metadata={"json_write": lambda config: config.mode == "tradeoff"}
    )
    sweep_param: str = ""  # "" | "k" | "rho"
    sweep_values: tuple = ()

    def __post_init__(self):
        if self.mode not in ("tradeoff", "rank"):
            raise ValueError(f"mode must be 'tradeoff' or 'rank', got {self.mode!r}")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        # only a genotype file missing at construction leaves design.p = 0
        if self.design.p and self.coefficients.p != self.design.p:
            raise ValueError(
                f"coefficients.p = {self.coefficients.p} disagrees with the "
                f"{self.design.p} columns of the design"
            )
        # an empty grid is kept for ``path``; run_tradeoff_experiment needs one
        grid = tuple(float(g) for g in self.tpp_grid)
        if any(not 0.0 <= g <= 1.0 for g in grid) or list(grid) != sorted(grid):
            raise ValueError("tpp_grid must be a nondecreasing tuple inside [0, 1]")
        object.__setattr__(self, "tpp_grid", grid)
        _reject_unread(self, self.mode, _MODE_READS)
        _settings(self)  # every sweep value is checked before any replicate runs


def _settings(config):
    """``(value, config)`` for each setting of a rank experiment: the config
    itself, labelled by its k, or for each sweep value the config with the field
    that ``sweep_param`` names replaced, coerced and checked as in a written config."""
    name = config.sweep_param
    if name == "" and not config.sweep_values:
        return [(float(config.coefficients.k), config)]
    if name not in tuple(_SWEPT) or not config.sweep_values:  # a JSON name may be unhashable
        raise ValueError(f"a sweep needs sweep_param 'k' or 'rho' and sweep_values, got {name!r}")
    where, reads = _SWEPT[name]
    spec = getattr(config, where)
    if spec.kind not in reads[name]:  # the draw would ignore the swept field
        raise ValueError(f"a {name} sweep needs {where}.kind in {reads[name]}, got {spec.kind!r}")
    coerce = _COERCE[type(spec).__annotations__[name]]
    base = dataclasses.replace(config, sweep_param="", sweep_values=())
    settings = []
    for i, value in enumerate(config.sweep_values):
        try:
            swept = dataclasses.replace(spec, **{name: coerce(value)})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"sweep_values[{i}] = {value!r} as {where}.{name}: {exc}") from None
        settings.append((value, dataclasses.replace(base, **{where: swept})))
    if len({float(value) for value, _ in settings}) < len(settings):
        raise ValueError(f"sweep_values must be distinct, got {config.sweep_values!r}")
    return settings


@dataclass(frozen=True)
class ReplicateResult:
    replicate_id: int
    seed_key: tuple
    n_events: int
    stopping_reason: str
    grid_fdp: np.ndarray = None  # tradeoff mode
    rank: int = -1  # rank mode
    censored: bool = False


def replicate_rng(seed, replicate_id, tag=0):
    """Independent child generators (design, coefficients, noise) for one
    replicate.  Streams depend only on (seed, tag, replicate_id)."""
    ss = np.random.SeedSequence(seed, spawn_key=(tag, replicate_id))
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(3)]


def load_design_file(path):
    """Dense numeric matrix from a whitespace- or comma-separated text file."""
    with open(path) as fh:
        first = fh.readline()
    delim = "," if "," in first else None
    mat = np.loadtxt(path, delimiter=delim, ndmin=2)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"design file {path} contains non-finite entries")
    return mat


def sample_design(spec, rng):
    """Draw a design matrix according to ``spec`` using generator ``rng``.

    ``correlated_gaussian`` is ``z @ U`` for ``z = rng.standard_normal((n, p))``
    and U the covariance's upper Cholesky factor, formed in O(np) by column
    recursions on that z: the factor-and-multiply draw up to rounding."""
    if spec.kind == "iid_gaussian":  # rng.normal(0, s, size), scaled in place
        x = rng.standard_normal((spec.n, spec.p))
        x *= math.sqrt(spec.scale)
        return x
    if spec.kind == "bernoulli_pm":
        return (2.0 * rng.integers(0, 2, size=(spec.n, spec.p)) - 1.0) * math.sqrt(spec.scale)
    if spec.kind == "correlated_gaussian":
        s, rho = math.sqrt(spec.scale), spec.rho
        z = rng.standard_normal((spec.n, spec.p))
        if spec.structure == "toeplitz":  # AR(1): x_j = rho x_{j-1} + s sqrt(1 - rho^2) z_j
            z[:, 0] *= s
            z[:, 1:] *= s * math.sqrt((1.0 - rho) * (1.0 + rho))
            if rho:  # at rho = 0 each step would only add 0 x_{j-1}
                for j in range(1, spec.p):
                    z[:, j] += rho * z[:, j - 1]
            return z
        # equicorrelation: x_j = s (d_j z_j + sum_{i<j} c_i z_i), d_j and c_j in
        # closed form (a running sum of c_i^2 drifts as rho nears 1)
        q, j = 1.0 - rho, np.arange(spec.p)
        prev = q + j * rho  # 1 + (j - 1) rho, exact at j = 0
        d = np.sqrt(q * (1.0 + j * rho) / prev)
        x = z * (s * d)
        np.cumsum(z * (s * q * rho / (prev * d)), axis=1, out=z)
        x[:, 1:] += z[:, :-1]
        return x
    # genotype_file: real matrix, jittered to break exact duplicates, then
    # columns centered and rescaled to match the synthetic normalization
    mat = load_design_file(spec.path)
    n, p = mat.shape
    jitter_scale = spec.variance_scale if spec.variance_scale is not None else 1.0 / n
    mat = mat + rng.normal(0.0, math.sqrt(jitter_scale), size=mat.shape)
    mat = mat - mat.mean(axis=0)
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("design file has a constant column even after jitter")
    return mat * (math.sqrt(n * jitter_scale) / norms)


def sample_coefficients(spec, rng):
    """Draw (beta, true_support) according to ``spec``.

    Fixed families place their k values on the first k coordinates;
    ``prior_sample`` draws each coordinate i.i.d. from the prior.
    """
    beta = np.zeros(spec.p)
    if spec.kind == "prior_sample":
        prior = spec.prior
        probs = np.concatenate([[prior.null_mass], prior.probs])
        levels = np.concatenate([[0.0], prior.values])
        beta = rng.choice(levels, size=spec.p, p=probs)
        support = np.flatnonzero(beta != 0.0)
        return beta, support
    if spec.kind == "fixed_levels":
        vals = np.repeat(np.asarray(spec.values, dtype=float), np.asarray(spec.counts))
    elif spec.kind == "geometric":
        j = np.arange(1, spec.k + 1)
        vals = spec.magnitude ** (spec.k + 1.0 - j)
    elif spec.kind == "linear":
        vals = np.arange(1, spec.k + 1, dtype=float)
    else:  # equal
        vals = np.full(spec.k, float(spec.magnitude))
    beta[: len(vals)] = vals
    return beta, np.arange(len(vals))


def fdp_on_grid(event_tpp, event_fdp, grid):
    """Step interpolation of path FDP onto a TPP grid.

    For each grid point: among events whose TPP does not exceed it, take the
    one with the largest TPP (latest in path order on ties); grid points
    below every event TPP get 0.  In a stable sort by TPP that event is the
    last one at or below the grid point, so one sorted lookup finds them all.
    """
    event_tpp = np.asarray(event_tpp, dtype=float)
    order = np.argsort(event_tpp, kind="stable")
    fdp = np.concatenate(([0.0], np.asarray(event_fdp, dtype=float)[order]))
    return fdp[np.searchsorted(event_tpp[order], grid, side="right")]


def _simulate_instance(config, rep_id, tag=0):
    rng_x, rng_b, rng_z = replicate_rng(config.seed, rep_id, tag=tag)
    X = sample_design(config.design, rng_x)
    beta, support = sample_coefficients(config.coefficients, rng_b)
    y = X @ beta
    if config.sigma > 0:
        y = y + config.sigma * rng_z.standard_normal(X.shape[0])
    return X, y, support


def _tradeoff_replicate(config, tag, rep_id):
    X, y, support = _simulate_instance(config, rep_id, tag=tag)
    # The grid never goes past max(tpp_grid), so the path can stop once the
    # active set is comfortably larger than the discoveries needed there;
    # fall back to the unrestricted path in the rare case the cap was hit
    # before the top grid point was reached.
    full = max(1, min(X.shape[0] - 1, X.shape[1]))  # lasso_path's default size
    cap = min(full, 2 * len(support) + 64)
    path = lasso_path(X, y, max_active=cap)
    samples = tpp_fdp_along_path(path, support)
    if cap < full:
        reached = max((s[1] for s in samples), default=0.0)
        if reached < config.tpp_grid[-1] and path.stopping_reason == "max_active":
            path = lasso_path(X, y)
            samples = tpp_fdp_along_path(path, support)
    tpps = [s[1] for s in samples]
    fdps = [s[2] for s in samples]
    return ReplicateResult(
        replicate_id=rep_id,
        seed_key=(config.seed, tag, rep_id),
        n_events=len(path.events),
        stopping_reason=path.stopping_reason,
        grid_fdp=fdp_on_grid(tpps, fdps, config.tpp_grid),
    )


def _rank_replicate(config, tag, rep_id):
    X, y, support = _simulate_instance(config, rep_id, tag=tag)
    path = lasso_path(X, y, stop_outside_support=support)
    res = first_false_rank(path, support)
    return ReplicateResult(
        replicate_id=rep_id,
        seed_key=(config.seed, tag, rep_id),
        n_events=len(path.events),
        stopping_reason=path.stopping_reason,
        rank=res.rank,
        censored=res.censored,
    )


def _run_tasks(tasks, jobs):
    """Run replicate tasks ``(function, (config, tag, rep_id))`` and
    return their results in task order: one after another in this process at
    ``jobs=1``, on one pool of ``jobs`` worker processes otherwise.

    Every task runs.  If any failed, raises RuntimeError naming the
    (seed, tag, replicate) key of each failure, chained to the first one.
    ``jobs`` must be an integer >= 1 (a boolean is not), else ValueError.
    """
    if not (isinstance(jobs, numbers.Integral) and not isinstance(jobs, bool) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    results, failed = [], []
    if jobs > 1:  # imported here, so that runs without a pool never load it (~10 ms)
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext()) as pool:
        calls = [
            pool.submit(fn, *args).result if pool else functools.partial(fn, *args)
            for fn, args in tasks
        ]
        for (_, (config, tag, rep_id)), call in zip(tasks, calls):
            try:
                results.append(call())
            except Exception as exc:  # noqa: BLE001 - every failure is named below
                failed.append(((config.seed, tag, rep_id), exc))
    if failed:
        first = failed[0][1]
        raise RuntimeError(
            f"{len(failed)} of {len(tasks)} replicates failed at (seed, tag, replicate) "
            f"{', '.join(str(key) for key, _ in failed)}; first failure: "
            f"{type(first).__name__}: {first}"
        ) from first
    return results


@dataclass(frozen=True)
class TradeoffSummary:
    tpp_grid: tuple
    mean_fdp: np.ndarray
    se_fdp: np.ndarray
    n_ok: int  # replicates averaged; always config.replicates
    replicates: list


def run_tradeoff_experiment(config, jobs=1):
    """Average path FDP over replicates on the configured TPP grid.

    All replicates share tag 0 and run on ``jobs`` processes.  Any failed
    replicate aborts the experiment with RuntimeError (see ``_run_tasks``).
    """
    if config.mode != "tradeoff":
        raise ValueError(f"config.mode is {config.mode!r}, expected 'tradeoff'")
    if not config.tpp_grid:
        raise ValueError("tradeoff experiments need a nonempty tpp_grid")
    tasks = [(_tradeoff_replicate, (config, 0, rep)) for rep in range(config.replicates)]
    results = _run_tasks(tasks, jobs)
    mat = np.vstack([r.grid_fdp for r in results])
    n_ok = mat.shape[0]
    # mean and SE both from the deviations about the first replicate: where all
    # FDPs are equal these are 0, so the mean is that FDP exactly and the SE 0
    dev = mat - mat[0]
    spread = dev.std(axis=0, ddof=1) if n_ok > 1 else np.zeros(mat.shape[1])
    mean, se = mat[0] + dev.mean(axis=0), spread / math.sqrt(n_ok)
    return TradeoffSummary(
        tpp_grid=config.tpp_grid, mean_fdp=mean, se_fdp=se, n_ok=n_ok, replicates=results
    )


@dataclass(frozen=True)
class RankSummary:
    sweep_param: str
    rows: list  # (sweep_value, mean, median, q10, q90, n_censored)
    replicates: dict  # sweep_value -> list of ReplicateResult


def run_rank_experiment(config, jobs=1):
    """First-false-rank statistics, optionally swept over k or rho.

    Sweep value i draws its replicates with tag i; the replicates of every
    value run on one pool of ``jobs`` processes.  Any failed replicate aborts
    the experiment with RuntimeError (see ``_run_tasks``).  Censored
    replicates enter the statistics at rank k+1 (flagged, never dropped).
    """
    if config.mode != "rank":
        raise ValueError(f"config.mode is {config.mode!r}, expected 'rank'")
    settings = _settings(config)
    reps = config.replicates
    tasks = [
        (_rank_replicate, (swept, tag, rep))
        for tag, (_, swept) in enumerate(settings)
        for rep in range(reps)
    ]
    results = _run_tasks(tasks, jobs)
    rows, reps_by_value = [], {}
    for tag, (value, _) in enumerate(settings):
        chunk = results[tag * reps : (tag + 1) * reps]
        ranks = np.array([r.rank for r in chunk], dtype=float)
        median, q10, q90 = map(float, np.quantile(ranks, (0.5, 0.1, 0.9)))
        censored = sum(r.censored for r in chunk)
        rows.append((float(value), float(ranks.mean()), median, q10, q90, censored))
        reps_by_value[float(value)] = chunk
    return RankSummary(sweep_param=config.sweep_param, rows=rows, replicates=reps_by_value)


# --- JSON config (used by the command line tool) ---------------------------


def _strict_int(x):
    """``int(x)`` for an integral number, never truncated; anything else is an error."""
    integral = isinstance(x, numbers.Integral) or isinstance(x, float) and x.is_integer()
    if isinstance(x, bool) or not integral:
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _strict_float(x):
    """``float(x)`` for a real number; a boolean or a string is an error."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


def _strict_tuple(items, item=lambda x: x, size=None):
    """The tuple of ``item(x)`` over a list (of ``size`` items, if given), else an error."""
    if not isinstance(items, (list, tuple)) or size not in (None, len(items)):
        raise ValueError(f"expected a list{f' of {size}' if size else ''}, got {items!r}")
    return tuple(map(item, items))


_PRIOR_RECIPES = {
    "homogeneous": DiscretePrior.homogeneous,
    "heterogeneous": DiscretePrior.heterogeneous,
    "levels": DiscretePrior.from_levels,
}


def prior_from_json(obj, **defaults):
    """DiscretePrior from its JSON object: its own fields (``atoms`` as [value,
    probability] pairs, ``null_mass``), as ``config_to_json`` writes it, or a
    recipe {"kind": "homogeneous"|"heterogeneous"|"levels", ...} whose other
    fields are that constructor's parameters, missing ones taken from ``defaults``."""
    if not (isinstance(obj, dict) and "kind" in obj):
        return DiscretePrior(**fields_from_json(DiscretePrior, obj, "prior"))
    kind, fields = obj["kind"], {k: v for k, v in obj.items() if k != "kind"}
    if kind not in tuple(_PRIOR_RECIPES):  # a JSON kind may be unhashable
        raise ValueError(f"unknown prior kind {kind!r}, expected {tuple(_PRIOR_RECIPES)}")
    recipe = _PRIOR_RECIPES[kind]
    return recipe(**fields_from_json(recipe, fields, f"{kind} prior", **defaults))


# Coercion of a given JSON value by its field's annotation
_COERCE = {
    int: _strict_int,
    float: _strict_float,
    tuple: _strict_tuple,  # sweep values keep their JSON number type
    tuple[float, ...]: functools.partial(_strict_tuple, item=_strict_float),
    tuple[int, ...]: functools.partial(_strict_tuple, item=_strict_int),
    tuple[tuple[float, float], ...]: functools.partial(
        _strict_tuple, item=functools.partial(_strict_tuple, item=_strict_float, size=2)
    ),
    DiscretePrior: prior_from_json,
}


def fields_from_json(cls, obj, name, **defaults):
    """Keyword arguments for ``cls`` read from the JSON object ``obj``.

    The parameters of ``cls`` (a dataclass's fields, or a function's) are the
    JSON schema.  A given value is coerced by its annotation through ``_COERCE``
    (other types pass as given); a missing one takes its entry in ``defaults``,
    else its "json_default" metadata, else its default.  ``name`` labels errors.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(obj).__name__}")
    params = inspect.signature(cls).parameters.values()
    unknown = sorted(set(obj) - {p.name for p in params})
    if unknown:
        raise ValueError(f"unknown {name} fields: {unknown}")
    for f in dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ():
        if "json_default" in f.metadata:
            defaults.setdefault(f.name, f.metadata["json_default"])
    kwargs = {}
    for p in params:
        if p.name not in obj:
            kwargs[p.name] = defaults.get(p.name, p.default)
            if kwargs[p.name] is p.empty:
                raise ValueError(f"{name} is missing field {p.name!r}")
            continue
        coerce = _COERCE.get(p.annotation)
        try:
            kwargs[p.name] = coerce(obj[p.name]) if coerce else obj[p.name]
        except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge integer
            raise ValueError(f"{name}.{p.name}: {exc}") from None
    return kwargs


def config_from_json(obj):
    """ExperimentConfig from a parsed JSON object or its text; ``coefficients.p``
    defaults to ``design.p``, which a genotype file present here gives (see
    ``DesignSpec``)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kwargs = fields_from_json(ExperimentConfig, obj, "config")
    design = DesignSpec(**fields_from_json(DesignSpec, kwargs["design"], "design"))
    coefficients = CoefficientSpec(
        **fields_from_json(CoefficientSpec, kwargs["coefficients"], "coefficients", p=design.p)
    )
    return ExperimentConfig(**{**kwargs, "design": design, "coefficients": coefficients})


def config_to_json(config):
    """Inverse of ``config_from_json``: the JSON object of ``config``, or of any
    other dataclass ``fields_from_json`` reads.  A field is written when its
    "json_write" metadata holds for ``config``, else when it differs from its
    dataclass default."""
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        write = f.metadata.get("json_write")
        if not (write(config) if write else value != f.default):
            continue
        if dataclasses.is_dataclass(value):
            value = config_to_json(value)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out
