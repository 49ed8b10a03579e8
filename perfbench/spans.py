"""Span tracing from outside the package, and the per-layer metrics drawn from it.

The traced run wraps every public function of each layer module, plus the
pdf/cdf/quantile methods of every class that defines them (the distribution
families and GridFunction), with a wrapper that records one span per call:
name, start, end, parent span and operation id. A function bound by
`from .x import f` lives on in every importing module's namespace, so each
wrapper is installed under every name in the package that refers to the
original. A --trace 0 run never calls `install`.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass

import numpy as np

from benchstats import median

# package modules that do work; errors, __init__ and __main__ do none
LAYERS = ("cli", "distributions", "functional", "numerics", "recursion", "verify")
FAMILY_METHODS = ("pdf", "cdf", "quantile")

# bytes a kernel call reads and writes per point (one float64 in, one out);
# computed from array sizes, not measured
KERNEL_BYTES_PER_POINT = 16

# span name -> work count taken from the call's arguments and result
_WORK = {
    "functional.derangetropy_kernel": lambda args, result: float(np.size(args[0])),
    "verify.run_suite": lambda args, result: float(len(result)),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a top-level span
    op: int
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; `op` tags every span with the running operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer, under every name bound to them."""
        if self._patches:
            raise RuntimeError("tracing is already installed")
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth in FAMILY_METHODS:
                        fn = vars(obj).get(meth)
                        if inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines of [name, start, end, parent, op, work]."""
        with open(path, "w") as fh:
            fh.writelines(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.work]) + "\n" for s in self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# per-layer metric -> (kind, span-name patterns). `time` sums the outermost
# matching spans (a match nested in another match is not counted twice),
# `self` sums self time, `calls` counts every match, `work` sums the work
# counts recorded by the wrapper.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli.main_s": ("time", ("cli.main",)),
    "cli.self_s": ("self", ("cli.main",)),
    "distributions.pdf_s": ("time", ("distributions.*.pdf",)),
    "distributions.cdf_s": ("time", ("distributions.*.cdf",)),
    "distributions.cdf_calls": ("calls", ("distributions.*.cdf",)),
    "distributions.quantile_s": ("time", ("distributions.*.quantile",)),
    "distributions.quantile_calls": ("calls", ("distributions.*.quantile",)),
    "distributions.load_tabulated_s": ("time", ("distributions.load_tabulated",)),
    "functional.kernel_s": ("time", ("functional.derangetropy_kernel",)),
    "functional.kernel_calls": ("calls", ("functional.derangetropy_kernel",)),
    "functional.kernel_points": ("work", ("functional.derangetropy_kernel",)),
    "functional.profile_s": ("time", ("functional.derangetropy_profile",)),
    "functional.scalar_calls": ("calls", (
        "functional.derangetropy",
        "functional.derangetropy_derivative",
        "functional.total_energy_derivative",
        "functional.energy_decomposition",
    )),
    "numerics.integrate_s": ("time", ("numerics.integrate",)),
    "numerics.integrate_calls": ("calls", ("numerics.integrate",)),
    "numerics.find_root_s": ("time", ("numerics.find_root",)),
    "numerics.find_root_calls": ("calls", ("numerics.find_root",)),
    "numerics.central_difference_calls": ("calls", ("numerics.central_difference",)),
    "numerics.cumulative_integral_s": ("time", ("numerics.cumulative_integral",)),
    "recursion.discretize_s": ("time", ("recursion.discretize",)),
    "recursion.apply_s": ("time", ("recursion.apply_derangetropy",)),
    "recursion.apply_self_s": ("self", ("recursion.apply_derangetropy",)),
    "recursion.metrics_s": ("time", ("recursion.convergence_metrics",)),
    "recursion.levels": ("calls", ("recursion.apply_derangetropy",)),
    "verify.run_suite_s": ("time", ("verify.run_suite",)),
    "verify.self_s": ("self", ("verify.run_suite",)),
    "verify.find_equilibria_s": ("time", ("verify.find_equilibria",)),
    "verify.reports": ("work", ("verify.run_suite",)),
}


@functools.cache
def _metrics_of(name: str) -> tuple[str, ...]:
    """The layer metrics whose patterns match a span name."""
    return tuple(
        metric for metric, (_, patterns) in LAYER_METRICS.items()
        if any(fnmatch.fnmatchcase(name, p) for p in patterns)
    )


def op_metrics(spans: list[Span], op_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one operation's spans, plus its trace coverage.

    Coverage is the summed self time of all spans, which equals the time
    inside top-level spans, over the operation's wall time.
    """
    selfs = self_times(spans)
    hits_of: dict[str, list[int]] = {metric: [] for metric in LAYER_METRICS}
    for i, s in enumerate(spans):
        for metric in _metrics_of(s.name):
            hits_of[metric].append(i)
    out = {}
    for metric, (kind, _) in LAYER_METRICS.items():
        hits = hits_of[metric]
        if kind == "calls":
            out[metric] = float(len(hits))
        elif kind == "work":
            out[metric] = sum(spans[i].work for i in hits)
        elif kind == "self":
            out[metric] = sum(selfs[i] for i in hits)
        else:
            hit_set = set(hits)
            total = 0.0
            for i in hits:
                p = spans[i].parent
                while p >= 0 and p not in hit_set:
                    p = spans[p].parent
                if p < 0:
                    total += spans[i].duration
            out[metric] = total
    out["functional.kernel_bytes"] = KERNEL_BYTES_PER_POINT * out["functional.kernel_points"]
    out["trace.coverage"] = sum(selfs) / op_seconds
    out["trace.spans"] = float(len(spans))
    return out


def split_by_op(spans: list[Span]) -> dict[int, list[Span]]:
    """Spans grouped by operation, each group re-indexed from 0."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s.op, []).append(i)
    out = {}
    for op, idxs in groups.items():
        local = {g: k for k, g in enumerate(idxs)}
        out[op] = [
            Span(spans[g].name, spans[g].start, spans[g].end, local.get(spans[g].parent, -1), op, spans[g].work)
            for g in idxs
        ]
    return out


def layer_summary(spans: list[Span], op_seconds: dict[int, float]) -> dict[str, float]:
    """Median over traced operations of each per-operation metric."""
    by_op = split_by_op(spans)
    rows = [op_metrics(by_op.get(op, []), secs) for op, secs in op_seconds.items()]
    return {k: median(r[k] for r in rows) for k in rows[0]}
