"""Spans around every public function of the package's layer modules.

A `Tracer` replaces each public function of the layer modules, in every
module namespace of the package that binds it, by a wrapper that records one
span per call: [function index, parent span, start ns, end ns]. It is
installed in the benchmark's parent process before a command is forked, so
each command child records its own spans and the parent records none.

Self time is a span's duration minus its child spans. The self time of a
function that no metric names is added to the nearest caller in the same
module that a metric names, or else to `<module>.other_s`. That remainder is
reported for the layers where commands call such functions directly
(OTHER_LAYERS); in the others it reads 0, so it is left out.

Generator functions return before their work is done, so they get no span;
`iter_ordered_type_tuples` is only counted.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("criticality", "analytic", "prelimit", "moments", "simulator", "model", "cli")

# (module, function) -> per-layer metric holding its self time
REPORTED = {
    ("criticality", "critical_rate_and_subsets_bruteforce"): "criticality.bruteforce_s",
    ("criticality", "crp_components"): "criticality.crp_components_s",
    ("criticality", "check_stability"): "criticality.check_stability_s",
    ("analytic", "pgf_coc"): "analytic.pgf_coc_s",
    ("analytic", "pgf_cos"): "analytic.pgf_cos_s",
    ("analytic", "mixture_law"): "analytic.mixture_law_s",
    ("analytic", "sigma_aggregate"): "analytic.sigma_aggregate_s",
    ("analytic", "limiting_laplace"): "analytic.limiting_laplace_s",
    ("analytic", "limiting_laplace_cos_general"): "analytic.laplace_cos_general_s",
    ("analytic", "sample_limit"): "analytic.sample_limit_s",
    ("analytic", "h_term"): "analytic.h_term_s",
    ("analytic", "ordered_vector"): "analytic.ordered_vector_s",
    ("prelimit", "config_distribution"): "prelimit.config_distribution_s",
    ("prelimit", "sample_prelimit"): "prelimit.sample_prelimit_s",
    ("moments", "moment_total"): "moments.moment_total_s",
    ("moments", "limit_moment_type"): "moments.limit_moment_type_s",
    ("simulator", "simulate"): "simulator.simulate_s",
    ("simulator", "scaled_law_check"): "simulator.scaled_law_check_s",
    ("model", "load_model"): "model.load_model_s",
}

OTHER_LAYERS = ("analytic", "moments", "model")

SELF_METRICS = sorted(set(REPORTED.values())
                      | {f"{m}.other_s" for m in OTHER_LAYERS} | {"cli.self_s"})


def ordered_vector_count(n: int) -> int:
    """sum_{m=0..n} n!/(n-m)!: ordered vectors of distinct items, the empty one included."""
    return sum(math.perm(n, m) for m in range(n + 1))


def _model_arg(sig, args, kwargs):
    return sig.bind(*args, **kwargs).arguments["model"]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []  # function index -> (module, name)
        self.spans = []
        self.stack = [-1]
        self.counts = defaultdict(int)
        self.incl = defaultdict(int)  # inclusive ns of the rate-bearing calls
        self._undo = []

    # -- installing ---------------------------------------------------------

    def install(self):
        import sys

        prefix = self.package.__name__
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == prefix or n.startswith(prefix + "."))]
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for name, fn in vars(module).items():
                if name.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                replace[id(fn)] = self._wrap(layer, name, fn)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self._undo.append((ns, attr, val))

    def uninstall(self):
        for ns, attr, val in reversed(self._undo):
            setattr(ns, attr, val)
        self._undo.clear()

    def _wrap(self, layer, name, fn):
        observer = _OBSERVERS.get((layer, name))
        sig = inspect.signature(fn) if observer else None
        if inspect.isgeneratorfunction(fn):
            if observer is None:
                return fn

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                observer(self, sig, args, kwargs, None, -1)
                return fn(*args, **kwargs)
            return counted

        index = len(self.names)
        self.names.append((layer, name))
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stack.append(len(spans))
            span = [index, parent, 0, 0]
            spans.append(span)
            misses = fn.cache_info().misses if cached else 0
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observer is not None:
                if cached and fn.cache_info().misses == misses:
                    result_for_counts = None  # a cache hit did no work
                else:
                    result_for_counts = result
                observer(self, sig, args, kwargs, result_for_counts, parent, span)
            return result

        return wrapper

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict:
        """Self time per metric, counts and inclusive times for this process's spans."""
        spans, names = self.spans, self.names
        child_ns = [0] * len(spans)
        for idx, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        owner = [None] * len(spans)
        self_ns = defaultdict(int)
        for i, (idx, parent, start, end) in enumerate(spans):
            layer, name = names[idx]
            if layer == "cli":
                metric = "cli.self_s"
            elif (layer, name) in REPORTED:
                metric = REPORTED[(layer, name)]
            elif parent >= 0 and names[spans[parent][0]][0] == layer:
                metric = owner[parent]
            else:
                metric = f"{layer}.other_s"
            owner[i] = metric
            if metric in SELF_METRICS:
                self_ns[metric] += end - start - child_ns[i]
        return {"self_ns": dict(self_ns), "counts": dict(self.counts),
                "incl_ns": dict(self.incl), "spans": len(spans)}

    def dump_spans(self, path, label):
        """Append this process's spans as one JSON line (gzip) to `path`."""
        rows = [[f"{self.names[i][0]}.{self.names[i][1]}", parent, start, end]
                for i, parent, start, end in self.spans]
        with gzip.open(path, "at", compresslevel=1) as fh:
            fh.write(json.dumps({"command": label, "fields": ["name", "parent", "start_ns",
                                                               "end_ns"], "spans": rows}))
            fh.write("\n")


# -- counts observed at the layer boundaries ----------------------------------

def _subset_scan(tr, sig, args, kwargs, result, parent, span=None):
    tr.counts["criticality.subsets_scanned"] += 2 ** _model_arg(sig, args, kwargs).n_types - 1


def _topo_orders(tr, sig, args, kwargs, result, parent, span=None):
    tr.counts["criticality.topo_orders"] += len(result.topo_orders)


def _iter_ordered(tr, sig, args, kwargs, result, parent, span=None):
    bound = sig.bind(*args, **kwargs)
    allowed = bound.arguments.get("allowed")
    n = bound.arguments["model"].n_types if allowed is None else len(allowed)
    tr.counts["analytic.ordered_vectors"] += ordered_vector_count(n)


def _pgf_coc(tr, sig, args, kwargs, result, parent, span=None):
    # numerator and normaliser each sum over every ordered vector of all types
    n = _model_arg(sig, args, kwargs).n_types
    tr.counts["analytic.ordered_vectors"] += 2 * ordered_vector_count(n)


def _pgf_cos(tr, sig, args, kwargs, result, parent, span=None):
    # g(z) and g(1) each sum over the distinct type sets left open by an idle-server set
    model = _model_arg(sig, args, kwargs)
    allowed = set()
    for mask in range(1 << model.n_servers):
        idle = {srv + 1 for srv in range(model.n_servers) if mask >> srv & 1}
        allowed.add(tuple(t for t in model.type_indices if not model.job_types[t] & idle))
    tr.counts["analytic.ordered_vectors"] += 2 * sum(ordered_vector_count(len(a))
                                                     for a in allowed)


def _k_critical(tr, sig, args, kwargs, result, parent, span=None):
    bound = sig.bind(*args, **kwargs)
    tr.counts["analytic.k_critical_scanned"] += ordered_vector_count(
        bound.arguments["model"].n_types)
    if bound.arguments["k"] == bound.arguments["report"].depth_K:
        tr.counts["analytic.k_critical_kept"] += len(result)


def _configs(tr, sig, args, kwargs, result, parent, span=None):
    if result is not None:
        tr.counts["prelimit.configs"] += len(result[0])


def _samples(tr, sig, args, kwargs, result, parent, span=None):
    tr.counts["prelimit.samples"] += sig.bind(*args, **kwargs).arguments["n"]
    tr.incl["prelimit.sample_prelimit"] += span[3] - span[2]


def _simulate(tr, sig, args, kwargs, result, parent, span=None):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    horizon = bound.arguments["horizon_events"]
    warmup = bound.arguments["warmup_events"]
    events = horizon + (horizon // 5 if warmup is None else warmup)
    disc = bound.arguments["discipline"]
    tr.counts["simulator.events"] += events
    tr.counts[f"simulator.{disc}_events"] += events
    tr.incl[f"simulator.{disc}"] += span[3] - span[2]
    if parent >= 0 and tr.names[tr.spans[parent][0]] == ("simulator", "scaled_law_check"):
        tr.counts["simulator.ks_samples"] += len(result.samples)


_OBSERVERS = {
    ("criticality", "critical_rate_and_subsets_bruteforce"): _subset_scan,
    ("criticality", "check_stability"): _subset_scan,
    ("criticality", "crp_components"): _topo_orders,
    ("analytic", "iter_ordered_type_tuples"): _iter_ordered,
    ("analytic", "pgf_coc"): _pgf_coc,
    ("analytic", "pgf_cos"): _pgf_cos,
    ("analytic", "enumerate_k_critical"): _k_critical,
    ("prelimit", "config_distribution"): _configs,
    ("prelimit", "sample_prelimit"): _samples,
    ("simulator", "simulate"): _simulate,
}
