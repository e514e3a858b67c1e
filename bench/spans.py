"""Spans around calls into randcompare's public functions, for the traced run.

A span is (id, layer, start, end, parent id, op id, rows). ``Tracer``
keeps them in memory; run.py writes them out when the run ends. The
benchmark places spans from outside the package: while an operation is
traced, every public function listed in LAYERS is replaced by a wrapper
in every randcompare module that binds it. A module that imported the
name with ``from .designs import ...`` holds its own binding, and a
binding left unpatched would make its layer read zero without any error.

A span opened in a worker thread with no span of its own open (the
harness's ThreadPoolExecutor) takes as parent the span the operation's
own thread has open, so run_size_power's self time excludes its workers.
Self time is a span's duration minus the union of its children's
intervals; with threads the children may overlap, and the union counts
each instant once.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    name: str
    # (home module, attribute); "Class.method" patches the class itself
    targets: tuple
    # metrics reported per operation: calls, rows, pct (inclusive time as a
    # share of the op's wall time) or self_pct (self time as that share)
    metrics: tuple


_D, _I, _S = "randcompare.designs", "randcompare.inference", "randcompare.simulation"

LAYERS = (
    Layer("designs.sample_assignment_batch", ((_D, "sample_assignment_batch"),),
          ("calls", "rows", "pct")),
    Layer("designs.support_label_matrix", ((_D, "support_label_matrix"),),
          ("rows", "pct")),
    Layer("designs.sample_assignment", ((_D, "sample_assignment"),), ("calls", "pct")),
    Layer("designs.RngStream.generator", ((_D, "RngStream.generator"),), ("calls", "pct")),
    Layer("inference.resampling",
          ((_I, "permutation_test"), (_I, "wilcoxon_test"), (_I, "fisher_randomization_test")),
          ("calls", "self_pct")),
    Layer("inference.closed_form",
          ((_I, "welch_t_test"), (_I, "pooled_t_test"), (_I, "neyman_randomization_test")),
          ("calls", "self_pct")),
    Layer("special.cdf",
          (("randcompare.special", "student_t_cdf"), ("randcompare.special", "normal_cdf")),
          ("calls", "pct")),
    Layer("stats",
          tuple(("randcompare.stats", f) for f in
                ("d_statistic", "rank_midranks", "neyman_se", "resolve_weights")),
          ("calls", "pct")),
    Layer("simulation.population",
          ((_S, "generate_population"), (_S, "draw_fixed_population")), ("calls", "pct")),
    Layer("core.select_components", (("randcompare.core", "select_components"),),
          ("calls", "pct")),
    Layer("simulation.run_size_power", ((_S, "run_size_power"),), ("self_pct",)),
    Layer("datasets.load_dataset", (("randcompare.datasets", "load_dataset"),),
          ("rows", "pct")),
    Layer("cli.main", (("randcompare.cli", "main"),), ("self_pct",)),
)

# rows produced by one call, for the layers that report rows
_ROWS = {
    "designs.sample_assignment_batch": lambda result: len(result),
    "designs.support_label_matrix": lambda result: len(result[0]),
    "datasets.load_dataset": lambda result: result.observed.n,
}

METRIC_NAMES = tuple(f"{layer.name}.{m}" for layer in LAYERS for m in layer.metrics)


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._root_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        rows_of = _ROWS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            rows = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if rows_of is not None:
                    rows = rows_of(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, layer, start, end, parent, self._op, rows))

        return wrapper

    @contextlib.contextmanager
    def traced(self, op_id: int):
        """Patch every layer's functions for the duration of one operation."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "randcompare" or name.startswith("randcompare.")]
        undo = []
        try:
            for layer in LAYERS:
                for home, attr in layer.targets:
                    if home not in sys.modules:
                        continue  # never imported, so nothing can call it
                    owner_name, _, method = attr.rpartition(".")
                    if owner_name:
                        owner = getattr(sys.modules[home], owner_name)
                        undo.append((owner, method, owner.__dict__[method]))
                        setattr(owner, method, self._wrap(layer.name, owner.__dict__[method]))
                        continue
                    original = getattr(sys.modules[home], attr)
                    wrapper = self._wrap(layer.name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, key, original))
                                setattr(mod, key, wrapper)
            self._op = op_id
            self._root_stack = self._stack()
            yield
        finally:
            self._op = 0
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def summary(self, op_id: int, wall: float) -> dict:
        """Per-layer metrics of one traced operation."""
        spans = [s for s in self.spans if s[5] == op_id]
        layer_of = {s[0]: s[1] for s in spans}
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in spans:
            children[parent].append((start, end))
        calls = defaultdict(int)
        rows = defaultdict(int)
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for sid, layer, start, end, parent, _, nrows in spans:
            calls[layer] += 1
            rows[layer] += nrows
            # nested calls within one layer are counted once in its time
            if layer_of.get(parent) != layer:
                inclusive[layer] += end - start
            self_time[layer] += (end - start) - _covered(children[sid], start, end)
        out = {}
        for layer in LAYERS:
            for m in layer.metrics:
                if m == "calls":
                    value = calls[layer.name]
                elif m == "rows":
                    value = rows[layer.name]
                elif m == "pct":
                    value = 100.0 * inclusive[layer.name] / wall
                else:
                    value = 100.0 * self_time[layer.name] / wall
                out[f"{layer.name}.{m}"] = value
        return out

    def write(self, path, t0: float) -> None:
        """Write every span as CSV, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,layer,start,end,parent,op,rows\n")
            for sid, layer, start, end, parent, op, rows in sorted(self.spans):
                fh.write(f"{sid},{layer},{start - t0:.9f},{end - t0:.9f},{parent},{op},{rows}\n")
