"""Layer spans and work counters for the traced benchmark run.

The six phi4lab modules are the layers.  While a task runs traced, every
public function and class of each module (all names of ``__all__`` and the
other public helpers the workloads call), the public methods of those
classes and ``PropagatorKernel.matrix`` are replaced by wrappers.  A
wrapper is installed in the defining module and wherever another phi4lab
module, or the package, re-imported the same object (``stability_lab``'s
``logZ_series``, for example), so a nested cross-module call is attributed
to the module that defines the callee.

A span opens when control enters a layer from outside it: from the
benchmark or from another layer.  Calls within one layer go straight
through, which keeps the overhead small and leaves the layer's totals
unchanged.  So ``calls`` counts entries into a layer and ``self_s`` is the
time control spent inside it: each span's duration minus its child spans.
Work counters are updated on every call, inside a layer too.
"""

import csv
import gzip
import importlib
import inspect
import math
import time
from collections import Counter

LAYERS = ("lattice_propagator", "field_sampler", "feynman_graphs",
          "power_counting", "effective_potential", "stability_lab")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _quadrature_nodes(cfg):
    return cfg.gh_nodes ** cfg.spec.n_sites


def _count_estimate(c, args, kwargs, result):
    cfg = args[0]
    if cfg.method == "exact-quadrature":
        c["stability_lab.quadrature_nodes"] += 2 * _quadrature_nodes(cfg)  # t = 1 and t = 0
    else:
        c["stability_lab.mc_samples"] += cfg.n_samples


def _count_nongaussianity(c, args, kwargs, result):
    cfg = args[0]
    if cfg.method == "exact-quadrature":
        c["stability_lab.quadrature_nodes"] += 5 * _quadrature_nodes(cfg)  # 4 stencil t, t = 0
    else:
        c["stability_lab.mc_samples"] += 4 * cfg.n_samples


def _count_enumeration(c, args, kwargs, result):
    n, p, r = args[:3]
    if (n, p, r) != (0, 0, 0):
        # (4n + 2p + r - 1)!! perfect matchings of the half-lines are enumerated
        c["feynman_graphs.matchings"] += math.prod(range(4 * n + 2 * p + r - 1, 0, -2))
        c["feynman_graphs.connected"] += len(result)


def _count_step(c, args, kwargs, result):
    c["effective_potential.steps"] += 1
    size = sum(getattr(v, "nbytes", 8) for v in result.terms.values()) / 1e6
    c["effective_potential.tensor_mb"] = max(c["effective_potential.tensor_mb"], size)


def _count_matrix(c, args, kwargs, result):
    c["lattice_propagator.matrix_calls"] += 1
    c["lattice_propagator.matrix_mb"] += args[0].spec.n_sites ** 2 * 8 / 1e6


def _increment(key, amount=lambda args, kwargs: 1):
    def hook(c, args, kwargs, result):
        c[key] += amount(args, kwargs)
    return hook


# Work counters, keyed by the qualified name of the wrapped callable.
HOOKS = {
    "lattice_propagator.PropagatorKernel.__init__": _increment("lattice_propagator.kernels"),
    "lattice_propagator.PropagatorKernel.matrix": _count_matrix,
    "field_sampler.sample_layer": _increment("field_sampler.layers"),
    "field_sampler.hoelder_norm": _increment("field_sampler.cubes"),
    "field_sampler.tail_stats": _increment(
        "field_sampler.tail_samples", lambda a, k: _arg(a, k, 3, "n_samples", 1000)),
    "feynman_graphs.enumerate_connected": _count_enumeration,
    "power_counting.build_clusters": _increment("power_counting.trees"),
    "effective_potential.truncated_integrate": _count_step,
    "stability_lab.estimate_Z": _count_estimate,
    "stability_lab.calibrate_Cj": _increment(
        "stability_lab.quadrature_nodes", lambda a, k: 2 * _quadrature_nodes(a[0])),
    "stability_lab.nongaussianity": _count_nongaussianity,
}


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self, package):
        self.names = []
        self.spans = []        # (name index, start, end, parent span, task id)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters = Counter()
        self.task = -1
        self._stack = []       # open spans: [span index, layer, child time]
        self._patches = self._build_patches(package)  # (owner, attribute, original, wrapper)
        self._t0 = time.perf_counter()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        index = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        hook = HOOKS.get(f"{layer}.{qualname}")
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                if stack and stack[-1][1] == layer:
                    return fn(*args, **kwargs)
                return self._iterate(fn, index, layer, args, kwargs)
        else:
            def traced(*args, **kwargs):
                if stack and stack[-1][1] == layer:
                    result = fn(*args, **kwargs)
                else:
                    result = self._call(fn, index, layer, args, kwargs)
                if hook is not None:
                    hook(self.counters, args, kwargs, result)
                return result
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _open(self, layer):
        frame = [len(self.spans), layer, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame, index, start, end):
        self._stack.pop()
        duration = end - start
        self.self_s[frame[1]] += duration - frame[2]
        self.calls[frame[1]] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[frame[0]] = (index, start - self._t0, end - self._t0,
                                parent[0] if parent else -1, self.task)

    def _call(self, fn, index, layer, args, kwargs):
        frame = self._open(layer)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, index, start, time.perf_counter())

    def _iterate(self, fn, index, layer, args, kwargs):
        frame = self._open(layer)
        start = time.perf_counter()
        try:
            yield from fn(*args, **kwargs)
        finally:
            self._close(frame, index, start, time.perf_counter())

    # -- installation ---------------------------------------------------------

    def _build_patches(self, package):
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        patches = []
        replaced = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) and not issubclass(obj, BaseException):
                    patches += self._class_patches(obj, layer)
                elif inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, layer, name)
        for ns in [package] + list(modules.values()):
            for name, obj in vars(ns).items():
                if inspect.isfunction(obj) and id(obj) in replaced:
                    patches.append((ns, name, obj, replaced[id(obj)]))
        return patches

    def _class_patches(self, cls, layer):
        patches = []
        for name, member in vars(cls).items():
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(member, staticmethod):
                wrapped = staticmethod(self._wrap(member.__func__, layer, f"{cls.__name__}.{name}"))
            elif inspect.isfunction(member):
                wrapped = self._wrap(member, layer, f"{cls.__name__}.{name}")
            else:
                continue
            patches.append((cls, name, member, wrapped))
        return patches

    def install(self):
        """Put the wrappers in place in every phi4lab namespace."""
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- results --------------------------------------------------------------

    def metrics(self, traced_s, untraced_s):
        """The per-layer metrics over tasks that took ``traced_s`` seconds traced
        and ``untraced_s`` seconds untraced."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.share"] = (self.self_s[layer] / traced_s, "fraction")
        c = self.counters
        out["lattice_propagator.kernels"] = (c["lattice_propagator.kernels"], "count")
        out["lattice_propagator.matrix_calls"] = (c["lattice_propagator.matrix_calls"], "count")
        out["lattice_propagator.matrix_mb"] = (c["lattice_propagator.matrix_mb"], "MB")
        out["field_sampler.layers"] = (c["field_sampler.layers"], "count")
        out["field_sampler.cubes"] = (c["field_sampler.cubes"], "count")
        out["field_sampler.tail_samples"] = (c["field_sampler.tail_samples"], "count")
        out["feynman_graphs.matchings"] = (c["feynman_graphs.matchings"], "count")
        matchings = c["feynman_graphs.matchings"]
        out["feynman_graphs.connected_ratio"] = (
            c["feynman_graphs.connected"] / matchings if matchings else 0.0, "fraction")
        out["power_counting.trees"] = (c["power_counting.trees"], "count")
        out["effective_potential.steps"] = (c["effective_potential.steps"], "count")
        out["effective_potential.tensor_mb"] = (c["effective_potential.tensor_mb"], "MB")
        out["stability_lab.quadrature_nodes"] = (c["stability_lab.quadrature_nodes"], "count")
        out["stability_lab.mc_samples"] = (c["stability_lab.mc_samples"], "count")
        out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
        return out

    def write(self, path):
        """Write the spans as gzipped CSV, times in seconds from tracer start."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "task"])
            for i, span in enumerate(self.spans):
                if span is None:  # a generator abandoned before it finished
                    continue
                index, start, end, parent, task = span
                out.writerow([i, self.names[index], f"{start:.9f}", f"{end:.9f}", parent, task])

