"""Outside-in tracing of sgpts: spans around calls into each layer's public functions.

The tracer patches names from the benchmark's side only.  Every public
function of a layer module is wrapped, and the wrapper replaces the original
in every ``sgpts`` module namespace that holds it, since ``engine`` and
``sampling`` import most of them by name.  Three methods are wrapped on their
classes.  Spans are kept in memory as ``[name, start, end, parent, scope]``;
``scope`` identifies the optimisation run or draw series a span belongs to.
Counters are taken at the same boundaries and are counts, never timings.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("kernels", "svgp", "sampling", "exact_gp", "engine", "benchmarks")
METHODS = (
    ("kernels", "FeatureMap", "features"),
    ("sampling", "SampleFunction", "eval_many"),
    ("benchmarks", "Benchmark", "evaluate"),
)


def _count_features(tracer, args, kwargs, out):
    fm, X = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["X"], dtype=float)
    key = (id(fm), X.shape, hashlib.blake2b(np.ascontiguousarray(X).tobytes(),
                                            digest_size=16).digest())
    tracer.counts["features.cells"] += out.size
    if key in tracer.seen:
        tracer.counts["features.repeat_cells"] += out.size
    tracer.seen.add(key)
    tracer.keep.append(fm)


def _count_kernel(tracer, args, kwargs, out):
    tracer.counts["kernel_matrix.cells"] += out.size


def _count_grid(tracer, args, kwargs, out):
    tracer.counts["build_grid.points"] += out.n_points
    tracer.counts["build_grid.capped"] += int(out.capped)


def _count_fit(tracer, args, kwargs, out):
    tracer.counts["m_effective"] += out.m_count
    tracer.counts["m_requested"] += tracer.m_requested or out.m_count


COUNTERS = {
    "kernels.FeatureMap.features": _count_features,
    "kernels.kernel_matrix": _count_kernel,
    "sampling.build_grid": _count_grid,
    "svgp.fit_svgp_closed_form": _count_fit,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seen = set()
        self.scope = 0
        self.m_requested = 0
        self.keep = []        # objects whose id keys `seen`; held so no id is reused
        self._stack = []
        self._patches = []

    def new_scope(self, m_requested: int = 0) -> None:
        """Start a new run or draw series; repeat detection is per scope."""
        self.scope += 1
        self.seen.clear()
        self.keep.clear()
        self.m_requested = m_requested

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.scope]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer entry point for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            self.restore()

    def _install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sgpts" or n.startswith("sgpts.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"sgpts.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, fn))
                            setattr(owner, key, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"sgpts.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))

    def restore(self) -> None:
        while self._patches:
            owner, key, fn = self._patches.pop()
            setattr(owner, key, fn)


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, scope in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, scope) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer calls and self time, plus the work counters, by metric name."""
    calls = Counter()
    self_s = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    c = tracer.counts
    metrics["kernels.FeatureMap.features.cells"] = c["features.cells"]
    metrics["kernels.FeatureMap.features.repeat_frac"] = _ratio(c["features.repeat_cells"],
                                                                c["features.cells"])
    metrics["kernels.kernel_matrix.cells"] = c["kernel_matrix.cells"]
    metrics["sampling.build_grid.points"] = c["build_grid.points"]
    metrics["sampling.build_grid.capped_frac"] = _ratio(c["build_grid.capped"],
                                                        calls["sampling.build_grid"])
    metrics["svgp.m_effective_frac"] = _ratio(c["m_effective"], c["m_requested"])
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
