"""The three benchmark workloads: seeded inputs, one item's run, and checks.

Each workload turns ``--seed`` into an endless, reproducible stream of items
and runs one item at a time through the library's public entry points.  The
library sees only the generated inputs.

* ``theory``: ``boundary`` and ``curve`` requests through ``cli.main``, each
  with its own (delta, epsilon), so the per-shape caches are always cold.
* ``tradeoff``: one-replicate ``run_tradeoff_experiment`` calls on the
  criterion-7 ladders at n = p = 1000 (long paths, ~500 events).
* ``rank``: ``run_rank_experiment`` rho sweeps on a Toeplitz design at
  n = p = 1000 with ``jobs=2`` (short, early-stopped paths).

Correctness has three parts: every item's output is checked for the
invariants below; a fixed reference item, run as the warm-up of every fresh
interpreter, must reproduce ``reference.json`` (captured from the library by
``capture_reference.py``) within ``REFERENCE_RTOL``; and slower certificates
(KKT conditions, a ``jobs=1`` recomputation) run after the timed loop.
"""

import contextlib
import io
import itertools
import json
import os

import numpy as np

# Reference CSV values are written with 12 significant digits, so a refactor
# that moves only the last bits of a result still matches.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
KKT_TOL = 1e-8  # KKT violation, relative to max(1, lambda_max)
REFERENCE_SEED = 20260815
UNDERFLOW_T = 37.5  # Phi(-t) < 1e-308 beyond this threshold
THEORY_BASE_SEED = 20261018  # the theory workload's base stream of requests
THEORY_JITTER = 0.005  # relative move of each theory input by the run's seed


def _read_csv(path):
    with open(path) as fh:
        body = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    columns = body[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]], ndmin=2)
    return {c: rows[:, i] for i, c in enumerate(columns)}


def _strictly_increasing(x):
    return len(x) >= 2 and bool(np.all(np.diff(x) > 0))


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL)
    )


def _call_seed(seed, i):
    """Seed of the i-th experiment call in the stream of ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, dtype=np.uint64)[0] >> 1)


def _shifted_halton(rng, dims):
    """Endless Halton points in [0, 1)^dims, shifted by one random vector
    (mod 1): every marginal stays uniform and every prefix stays even."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)[:dims]
    shift = rng.uniform(size=dims)
    i = 0
    while True:
        i += 1
        point = []
        for b in bases:
            x, f, k = 0.0, 1.0 / b, i
            while k:
                x += f * (k % b)
                k //= b
                f /= b
            point.append(x)
        yield [float(v) for v in (np.array(point) + shift) % 1.0]


class Workload:
    """Interface shared by the workloads."""

    jobs = 1
    units_per_item = 1  # requests or replicates
    block = 1  # a timed loop stops only after a multiple of this many items
    top_tpp = None  # highest TPP grid point, where a tradeoff path has done its job

    def __init__(self, lc, out_dir):
        self.lc = lc
        self.out_dir = out_dir
        self.notes = []  # findings from the checks that are not failures

    def run_reference(self):
        """Run the warm-up (reference) item; returns its reference values."""
        return self.reference_values(self.run(self.reference_item(), 1))

    def reference_errors(self, got, ref):
        want = ref["warmup"]
        if all(_close(got[k], want[k]) for k in want):
            return []
        return [f"{self.name} reference item differs from reference.json"]


class Theory(Workload):
    """Closed loop of CLI requests, one third ``boundary`` (crescent at 99
    points plus touching points) and two thirds ``curve`` (30 points)."""

    name = "theory"
    unit = "request"
    entry_span = ("cli.main", "cli")
    block = 3  # one boundary and two curve requests
    _n = 0

    def items(self, seed):
        """Blocks of one boundary request (mass split evenly over 2 to 5
        rungs, as in the README's ``--touching`` example) and two curve
        requests with priors as in acceptance criterion 9: 1 to 5 atoms
        uniform on [0.1, 100], Dirichlet weights, one curve at sigma 0 and
        one at 0.5.  Rung and atom counts follow fixed cycles, and each kind
        draws its shape and atoms from its own shifted Halton sequence.  That
        base stream is the same for every seed; the seed moves each shape,
        atom value and weight by up to ``THEORY_JITTER`` of itself.  So no
        two requests share a shape (the per-shape caches stay cold), and
        every run holds the same mix of request costs: a run's first N
        requests cost the same whatever its seed."""
        base = np.random.default_rng(THEORY_BASE_SEED)
        jitter = np.random.default_rng([seed, 1])

        def moved(values):
            return [float(v) * (1.0 + THEORY_JITTER * (2.0 * jitter.uniform() - 1.0)) for v in values]

        boundary_u, curve_u = _shifted_halton(base, 2), _shifted_halton(base, 7)
        for b in itertools.count():
            block = []
            for c in range(2):
                u = next(curve_u)
                n_atoms = 1 + (2 * b + c) % 5
                weights = moved(base.dirichlet(np.ones(n_atoms)))
                block.append({"kind": "curve", "sigma": 0.5 * ((b + c) % 2),
                              "delta": moved([0.8 + 1.2 * u[0]])[0],
                              "epsilon": moved([0.05 + 0.35 * u[1]])[0],
                              "values": moved([0.1 + 99.9 * v for v in u[2:2 + n_atoms]]),
                              "weights": [w / sum(weights) for w in weights]})
            u = next(boundary_u)
            m = 2 + b % 4
            block.insert(b % 3, {"kind": "boundary", "delta": moved([0.8 + 1.2 * u[0]])[0],
                                 "epsilon": moved([0.05 + 0.35 * u[1]])[0], "gamma": [1.0 / m] * m})
            yield from block

    def argv(self, item, out):
        shape = ["--delta", repr(item["delta"]), "--epsilon", repr(item["epsilon"])]
        if item["kind"] == "boundary":
            touching = ",".join(repr(g) for g in item["gamma"])
            return ["boundary", *shape, "--n-points", "99", "--touching", touching, "--out", out]
        prior = {"kind": "levels", "epsilon": item["epsilon"],
                 "values": item["values"], "weights": item["weights"]}
        return ["curve", *shape, "--sigma", repr(item["sigma"]), "--n-points", "30",
                "--prior", json.dumps(prior), "--out", out]

    def run(self, item, jobs):
        self._n += 1
        out = os.path.join(self.out_dir, f"{item['kind']}-{self._n}.csv")
        # the CLI prints the paths it writes; keep them off our stdout
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = self.lc.cli.main(self.argv(item, out))
        return {"rc": rc, "out": out}

    def check(self, item, result):
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        errors = []
        table = _read_csv(result["out"])
        if item["kind"] == "boundary":
            qd, qn = table["q_delta"], table["q_nabla"]
            # q_delta = 2(1-eps)Phi(-t)/(...) is exactly 0 where t_delta is past
            # the scan cap (inf) or Phi(-t) underflows (t > 37.5); past that
            # leading run it must increase strictly
            zero = int(np.argmax(qd > 0.0)) if np.any(qd > 0.0) else len(qd)
            if not (np.all(table["t_delta"][:zero] > UNDERFLOW_T) and _strictly_increasing(qd[zero:])):
                errors.append("q_delta not strictly increasing")
            if not _strictly_increasing(qn):
                errors.append("q_nabla not strictly increasing")
            if not np.all(qd < qn):
                errors.append("q_delta >= q_nabla somewhere")
            u = _read_csv(result["out"] + ".touching.csv")["u"]
            if len(u) != len(item["gamma"]) or not _strictly_increasing(u) \
                    or u[-1] != 1.0 or u[0] <= 0.0:
                errors.append(f"touching levels {list(u)} malformed")
        else:
            order = np.argsort(table["alpha"])
            if not _strictly_increasing(table["tpp_inf"]):
                errors.append("curve TPP not strictly increasing")
            if not _strictly_increasing(table["fdp_inf"]):
                errors.append("curve FDP not strictly increasing")
            if not _strictly_increasing(table["lambda"][order]):
                errors.append("lambda(alpha) not strictly increasing")
        return errors

    # the warm-up item of every interpreter (a cheap curve request, so that
    # the repeats' set-up stays short), and a reference boundary run after
    # the timed loop
    REFERENCE_BOUNDARY = {"kind": "boundary", "delta": 1.0, "epsilon": 0.2, "gamma": [0.2] * 5}
    REFERENCE_CURVE = {"kind": "curve", "delta": 1.0, "epsilon": 0.2, "sigma": 0.0,
                       "values": [1.0, 10.0, 100.0], "weights": [1.0, 1.0, 1.0]}

    def reference_item(self):
        return self.REFERENCE_CURVE

    def probe_items(self):
        return [self.REFERENCE_BOUNDARY, self.REFERENCE_CURVE]

    def _boundary_values(self, result):
        table = _read_csv(result["out"])
        touching = _read_csv(result["out"] + ".touching.csv")
        return {"q_delta": table["q_delta"].tolist(), "q_nabla": table["q_nabla"].tolist(),
                "touching_u": touching["u"].tolist()}

    def _curve_values(self, result):
        table = _read_csv(result["out"])
        return {k: table[c].tolist() for k, c in
                (("tpp", "tpp_inf"), ("fdp", "fdp_inf"), ("lam", "lambda"))}

    def reference_values(self, result):
        return self._curve_values(result)

    def end_values(self):
        result = self.run(self.REFERENCE_BOUNDARY, 1)
        return {"boundary": self._boundary_values(result) if result["rc"] == 0 else None}

    # A suffix mass this small drives the touching level to where t_delta
    # passes its scan cap, and touching_points raises DivergingRootError.
    DEFECT_GAMMA = [0.5736725315817366, 0.31013495884975584, 0.11183897626176695,
                    0.0024298878750228813, 0.0019236454317179007]
    DEFECT_SHAPE = (1.8868386382108695, 0.19707059313819575)

    def end_checks(self, done, ref):
        """(item index or None, error) pairs from checks run after timing."""
        lc = self.lc
        try:
            lc.touching_points(self.DEFECT_GAMMA, lc.ModelShape(*self.DEFECT_SHAPE))
        except lc.InfeasibleRegionError as exc:
            self.notes.append(f"known defect: touching_points with a suffix mass of 0.0019 "
                              f"raises {type(exc).__name__} (CLI exit 3)")
        got = self.end_values()["boundary"]
        want = ref["end"]["boundary"]
        if got is None or any(not _close(got[k], want[k]) for k in want):
            return [(None, "reference boundary differs from reference.json")]
        return []


class Tradeoff(Workload):
    """One-replicate ``run_tradeoff_experiment`` calls cycling over the weak,
    moderate and strong criterion-7 ladders, iid design n = p = 1000."""

    name = "tradeoff"
    unit = "replicate"
    GRID = tuple(np.round(np.arange(0.30, 0.901, 0.05), 2))
    top_tpp = GRID[-1]
    entry_span = ("harness.run_tradeoff_experiment", "harness")
    ARMS = ("weak", "moderate", "strong")

    def config(self, item):
        lc = self.lc
        if item["arm"] == "weak":
            coef = lc.CoefficientSpec(kind="fixed_levels", p=1000,
                                      values=tuple(np.geomspace(1.0, 100.0, 200)), counts=(1,) * 200)
        elif item["arm"] == "moderate":
            coef = lc.CoefficientSpec(kind="fixed_levels", p=1000,
                                      values=tuple(np.geomspace(10**1.625, 10**2.375, 200)),
                                      counts=(1,) * 200)
        else:
            coef = lc.CoefficientSpec(kind="equal", p=1000, magnitude=1000.0, k=200)
        return lc.ExperimentConfig(
            design=lc.DesignSpec(kind="iid_gaussian", n=1000, p=1000), coefficients=coef,
            sigma=0.01, replicates=1, seed=item["seed"],
            mode="tradeoff", tpp_grid=self.GRID)

    def items(self, seed):
        i = 0
        while True:
            yield {"arm": self.ARMS[i % 3], "seed": _call_seed(seed, i)}
            i += 1

    def run(self, item, jobs):
        summary = self.lc.run_tradeoff_experiment(self.config(item), jobs=jobs)
        return {
            "n_ok": summary.n_ok,
            "mean_fdp": summary.mean_fdp.tolist(),
            "grid_fdp": [r.grid_fdp.tolist() for r in summary.replicates],
            "n_events": [r.n_events for r in summary.replicates],
        }

    def check(self, item, result):
        errors = []
        if result["n_ok"] != 1:
            errors.append(f"n_ok = {result['n_ok']}, expected 1")
        fdp = np.array(result["grid_fdp"] + [result["mean_fdp"]])
        if fdp.shape[1] != len(self.GRID) or not np.all((fdp >= 0.0) & (fdp <= 1.0)):
            errors.append("grid FDP outside [0, 1]")
        return errors

    def reference_item(self):
        return {"arm": "weak", "seed": REFERENCE_SEED}

    def probe_items(self):
        return [self.reference_item()]

    def reference_values(self, result):
        return {"grid_fdp": result["grid_fdp"][0]}

    def end_checks(self, done, ref):
        """KKT certificate on the first replicate of each arm run."""
        out = []
        for arm in self.ARMS:
            idx = next((i for i, (item, _) in enumerate(done) if item["arm"] == arm), None)
            if idx is not None and "exception" not in done[idx][1]:
                item, result = done[idx]
                err = self.kkt_error(item, result["n_events"][0])
                if err:
                    out.append((idx, err))
        return out

    def kkt_error(self, item, n_events):
        """Checks the KKT conditions at the events the replicate's grid FDP
        reads: every event up to the last one with TPP <= the top grid point
        (every 10th, and the last).  Violations further down the path, which
        the grid never reads, are not failures; they are kept in ``notes``."""
        lc = self.lc
        config = self.config(item)
        rng_x, rng_b, rng_z = lc.replicate_rng(config.seed, 0)
        X = lc.sample_design(config.design, rng_x)
        beta, support = lc.sample_coefficients(config.coefficients, rng_b)
        y = X @ beta + config.sigma * rng_z.standard_normal(X.shape[0])
        cap = min(X.shape[0] - 1, X.shape[1], 2 * len(support) + 64)
        path = lc.lasso_path(X, y, max_active=cap)
        if len(path.events) != n_events:
            path = lc.lasso_path(X, y)  # the harness re-runs a capped path that fell short
        if len(path.events) != n_events:
            return f"rebuilt path has {len(path.events)} events, replicate had {n_events}"
        tpp = np.array([s[1] for s in lc.tpp_fdp_along_path(path, support)])
        last = int(np.flatnonzero(tpp <= self.top_tpp + 1e-12)[-1])
        limit = KKT_TOL * max(1.0, path.lambda_max)

        def worst(events):
            out = (0.0, -1)
            for k in events:
                ev = path.events[k]
                b = lc.coefficients_at(path, ev.lam)
                c = lc.residual_correlations(X, y, b)
                viol = np.max(np.abs(c)) - ev.lam
                active = np.abs(b) > 1e-12
                if np.any(active):
                    viol = max(viol, np.max(np.abs(c[active] - ev.lam * np.sign(b[active]))))
                out = max(out, (viol, k))
            return out

        viol, k = worst(list(range(1, last, 10)) + [last])
        past, k_past = worst(range(last + 1, len(path.events), 10))
        if past > limit:
            self.notes.append(
                f"{item['arm']} arm: KKT violation {past:.3e} > {limit:.3e} at event {k_past} "
                f"of {len(path.events)}, past the last event the grid reads ({last})")
        return None if viol <= limit else f"KKT violation {viol:.3e} > {limit:.3e} at event {k}"


class Rank(Workload):
    """``run_rank_experiment`` sweeps over rho in {0, 0.3, 0.6}, 4 replicates
    per value, Toeplitz design n = p = 1000, linear ladder k = 200, sigma = 1."""

    name = "rank"
    jobs = 2
    unit = "replicate"
    units_per_item = 12  # 4 replicates per sweep value
    RHOS = (0.0, 0.3, 0.6)
    entry_span = ("harness.run_rank_experiment", "harness")
    K = 200

    def config(self, item, per_value=4):
        lc = self.lc
        return lc.ExperimentConfig(
            design=lc.DesignSpec(kind="correlated_gaussian", n=1000, p=1000, rho=0.0),
            coefficients=lc.CoefficientSpec(kind="linear", p=1000, k=self.K),
            sigma=1.0, replicates=per_value, seed=item["seed"], mode="rank",
            sweep_param="rho", sweep_values=self.RHOS)

    def items(self, seed):
        i = 0
        while True:
            yield {"seed": _call_seed(seed, i)}
            i += 1

    def _ranks(self, summary):
        return [[[r.rank, int(r.censored)] for r in summary.replicates[float(v)]]
                for v in self.RHOS]

    def run(self, item, jobs, per_value=4):
        summary = self.lc.run_rank_experiment(self.config(item, per_value), jobs=jobs)
        return {"ranks": self._ranks(summary), "rows": [list(r) for r in summary.rows]}

    def check(self, item, result):
        errors = []
        for ranks, row in zip(result["ranks"], result["rows"]):
            if len(ranks) != self.units_per_item // len(self.RHOS):
                errors.append(f"{len(ranks)} replicates at rho = {row[0]}")
            if any(not 1 <= r <= self.K + 1 for r, _ in ranks):
                errors.append(f"rank outside [1, {self.K + 1}] at rho = {row[0]}")
            if row[5] != sum(c for _, c in ranks):
                errors.append(f"censored count disagrees at rho = {row[0]}")
        return errors

    def reference_item(self):
        return {"seed": REFERENCE_SEED}

    def run_reference(self):
        return {"ranks": self.run(self.reference_item(), 1, per_value=1)["ranks"]}

    def reference_errors(self, got, ref):
        if got["ranks"] == ref["warmup"]["ranks"]:
            return []
        return ["rank reference item differs from reference.json"]

    def end_checks(self, done, ref):
        """The first two replicates of the first call, recomputed at jobs=1."""
        if not done:
            return []
        item, result = done[0]
        again = self.run(item, 1, per_value=2)["ranks"]
        if again != [r[:2] for r in result["ranks"]]:
            return [(0, "jobs=2 ranks differ from a jobs=1 recomputation")]
        return []


WORKLOADS = {w.name: w for w in (Theory, Tradeoff, Rank)}
