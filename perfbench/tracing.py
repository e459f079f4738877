"""Span tracing from outside the library.

``Tracer.install`` replaces the references that one ``lassocrescent`` module
holds to another module's functions (for example ``harness.lasso_path`` or
``crescent.brentq``) with wrappers that record a span per call: name, layer,
start, end and parent.  Library code is never edited; ``uninstall`` puts the
original references back.

Spans are kept in memory in flat arrays and written out once, at the end, with
``save``.  Self time (a span's duration minus the time its child spans cover)
and call counts are accumulated per span name as spans close, so the per-layer
metrics need no second pass over the spans.
"""

import functools
import time
from array import array
from collections import Counter

import numpy as np

GAUSS_KERNELS = ("excess_prob", "mse_null", "mse_signal", "normal_cdf")

# (module, attribute, span name, layer).  The span takes the layer of the
# module that owns the work: scipy's brentq counts toward the module whose
# equations it solves.
_PLAIN = (
    [("state_evolution", f, f"gauss.{f}", "gauss") for f in GAUSS_KERNELS]
    + [("crescent", f, f"gauss.{f}", "gauss") for f in GAUSS_KERNELS]
    + [
        ("state_evolution", "solve_tau_given_alpha", "state_evolution.solve_tau_given_alpha", "state_evolution"),
        ("crescent", "alpha_min", "state_evolution.alpha_min", "state_evolution"),
        ("crescent", "noiseless_alpha_floor", "state_evolution.noiseless_alpha_floor", "state_evolution"),
        ("cli", "tradeoff_curve", "state_evolution.tradeoff_curve", "state_evolution"),
        ("crescent", "t_delta", "crescent.t_delta", "crescent"),
        ("crescent", "t_nabla", "crescent.t_nabla", "crescent"),
        ("cli", "touching_points", "crescent.touching_points", "crescent"),
        ("harness", "replicate_rng", "harness.replicate_rng", "harness"),
        ("harness", "sample_design", "harness.sample_design", "harness"),
        ("harness", "sample_coefficients", "harness.sample_coefficients", "harness"),
        ("harness", "fdp_on_grid", "harness.fdp_on_grid", "harness"),
        ("harness", "first_false_rank", "lasso_path.first_false_rank", "lasso_path"),
    ]
)
_ROOT_FINDERS = (
    ("state_evolution", "brentq", "state_evolution.brentq", "state_evolution"),
    ("crescent", "brentq", "crescent.brentq", "crescent"),
)
# The harness has no public per-replicate entry point, so the replicate span
# wraps the module's own references to its replicate functions.
_REPLICATES = ("_tradeoff_replicate", "_rank_replicate")

LAYERS = ("gauss", "state_evolution", "crescent", "lasso_path", "harness", "cli", "bench")


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, modules, top_tpp=None):
        self.modules = modules  # name -> imported lassocrescent submodule
        self.top_tpp = top_tpp  # highest TPP grid point of a tradeoff run
        self.names, self.layers, self._ids = [], [], {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack, self._child = [], []
        self.calls = Counter()  # name id -> closed spans
        self.total_ns = Counter()  # name id -> summed duration
        self.self_ns = Counter()  # name id -> summed self time
        self.counters = Counter()
        self.failed = Counter()  # name id -> spans closed by an exception
        self._rep = None
        self._saved = []

    # --- span bookkeeping ---------------------------------------------------

    def name_id(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self._child.append(0)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def close(self, idx, nid, failed=False):
        t = time.perf_counter_ns()
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        self._stack.pop()
        covered = self._child.pop()
        if self._child:
            self._child[-1] += dur
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - covered
        if failed:
            self.failed[nid] += 1

    def entry_span(self):
        """Name of the library call the benchmark made for the current item
        (the span two levels below the item span), or ''."""
        if len(self._stack) < 3:
            return ""
        return self.names[self.span_name[self._stack[2]]]

    def span(self, fn, name, layer, before=None, after=None):
        """Wrap ``fn`` so each call records a span.  ``before(args)`` runs
        inside the span before the call; ``after(result)`` after it."""
        nid = self.name_id(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
            except BaseException:
                self.close(idx, nid, failed=True)
                raise
            self.close(idx, nid)
            return result

        return wrapper

    # --- install / uninstall ------------------------------------------------

    def _patch(self, module, attr, value):
        mod = self.modules[module]
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def install(self):
        mods = self.modules
        for module, attr, name, layer in _PLAIN:
            before = self._count_elems if layer == "gauss" else None
            self._patch(module, attr, self.span(getattr(mods[module], attr), name, layer, before))
        for module, attr, name, layer in _ROOT_FINDERS:
            self._patch(module, attr, self._root_finder(getattr(mods[module], attr), name, layer))
        self._patch("cli", "crescent", self.span(
            mods["cli"].crescent, "crescent.crescent", "crescent", after=self._points_done))
        h = mods["harness"]
        self._patch("harness", "lasso_path", self.span(
            h.lasso_path, "lasso_path.lasso_path", "lasso_path", after=self._path_done))
        self._patch("harness", "tpp_fdp_along_path", self.span(
            h.tpp_fdp_along_path, "lasso_path.tpp_fdp_along_path", "lasso_path", after=self._samples_done))
        for attr in _REPLICATES:
            self._patch("harness", attr, self._replicate(getattr(h, attr)))

    def uninstall(self):
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    # --- wrappers with counters ----------------------------------------------

    def _count_elems(self, args):
        self.counters["gauss.elems"] += max(getattr(a, "size", 1) for a in args)

    def _root_finder(self, brentq, name, layer):
        nid = self.name_id(name, layer)

        @functools.wraps(brentq)
        def wrapper(f, *args, **kwargs):
            fevals = [0]

            def counted(*a):
                fevals[0] += 1
                return f(*a)

            entry = self.entry_span()
            idx = self.open(nid)
            try:
                result = brentq(counted, *args, **kwargs)
            except BaseException:
                self.close(idx, nid, failed=True)
                raise
            self.close(idx, nid)
            self.counters[f"{name}.fevals@{entry}"] += fevals[0]
            self.counters[f"{name}.calls@{entry}"] += 1
            return result

        return wrapper

    def _replicate(self, fn):
        inner = self.span(fn, "harness.replicate", "harness")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._rep = {"events": 0, "useful": None}
            try:
                return inner(*args, **kwargs)
            finally:
                rep, self._rep = self._rep, None
                useful = rep["useful"] if rep["useful"] is not None else rep["events"]
                self.counters["rep.events"] += rep["events"]
                self.counters["rep.useful_events"] += useful

        return wrapper

    def _points_done(self, points):
        self.counters["crescent.points"] += len(points)

    def _path_done(self, path):
        events = len(path.events)
        self.counters["path.events"] += events
        self.counters["path.drops"] += sum(1 for ev in path.events if ev.kind == "drop")
        if self._rep is not None:
            self._rep["events"] += events

    def _samples_done(self, samples):
        # events up to the first one that reaches the top grid TPP
        if self._rep is None or self.top_tpp is None:
            return
        first = next(
            (i for i, s in enumerate(samples) if s[1] >= self.top_tpp - 1e-12), None
        )
        self._rep["useful"] = len(samples) if first is None else first + 1

    # --- results ------------------------------------------------------------

    def durations_ms(self, name):
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        sel = names == nid
        return (end[sel] - start[sel]) / 1e6

    def stat(self, name, what="total"):
        """Summed duration (``total``) or self time (``self``) in seconds, or
        the call count (``calls``), of every span with this name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        if what == "calls":
            return self.calls[nid]
        table = self.total_ns if what == "total" else self.self_ns
        return table[nid] / 1e9

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, ns in self.self_ns.items():
            out[self.layers[nid]] += ns / 1e9
        return out

    def failed_spans(self, name):
        nid = self._ids.get(name)
        return 0 if nid is None else self.failed[nid]

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
            span_start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            span_end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
