"""In-memory span tracing around the layer boundaries of subgauss.

Spans are recorded by wrapping the module attributes that the program looks
up when it crosses from one layer into another (for example the harness
calling ``_batch.mom_rows`` or ``mix_seed``).  Nothing under ``src/`` is
edited: `Tracer.install` swaps the attributes for timing wrappers and
`Tracer.uninstall` puts the originals back.

A span is (id, parent id, run id, name, start, end, amount).  The run id is
shared by every span of one benchmark operation; ``amount`` carries a
count computed at the boundary (values drawn, bytes of the arrays passed).
Self time is a span's duration minus the part of its interval that its
children cover, so child spans running in harness worker threads are
counted once even when they overlap each other.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def _array_bytes(args, out) -> int:
    """Bytes of every ndarray passed in or returned (computed, not measured)."""
    total = 0
    for value in (*args, *(out if isinstance(out, tuple) else (out,))):
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


def _drawn_values(args, out) -> int:
    return int(out.size)


_KERNELS = (
    "mom_rows",
    "block_mean_rows",
    "kreg_midpoint_rows",
    "mom_variance_rows",
    "combine_rows",
    "combined_fixed_rows",
    "combined_adaptive_rows",
    "truncated_pipeline_rows",
)

# span name -> (every (module, attribute) the program looks it up through,
#               amount function or None)
BOUNDARIES = {
    "seeding.mix_seed": ([("harness", "mix_seed"), ("adversarial", "mix_seed")], None),
    "distributions._draw": ([("harness", "_draw")], _drawn_values),
    "harness.run_tail_experiment": ([("harness", "run_tail_experiment")], None),
    "harness.write_report": ([("harness", "write_report")], None),
    "harness.read_report": ([("harness", "read_report")], None),
    **{f"batch.{k}": ([("_batch", k)], _array_bytes) for k in _KERNELS},
    "core_estimators.median_of_means": (
        [("core_estimators", "median_of_means"), ("interval_combiner", "median_of_means")],
        None,
    ),
    "core_estimators.median_of_means_raw": (
        [("core_estimators", "median_of_means_raw"), ("kurtosis_pipeline", "median_of_means_raw")],
        None,
    ),
    "core_estimators.quantile_interval": (
        [("core_estimators", "quantile_interval"), ("interval_combiner", "quantile_interval")],
        None,
    ),
    "core_estimators.mom_variance": (
        [("interval_combiner", "mom_variance"), ("kurtosis_pipeline", "mom_variance")],
        None,
    ),
    "interval_combiner.fixed_sigma_family": ([("interval_combiner", "fixed_sigma_family")], None),
    "interval_combiner.adaptive_family": ([("interval_combiner", "adaptive_family")], None),
    "interval_combiner.combine": ([("interval_combiner", "combine")], None),
    "kurtosis_pipeline.kurtosis_estimate": ([("kurtosis_pipeline", "kurtosis_estimate")], None),
    "adversarial.coupled_scaled_bernoulli": ([("adversarial", "coupled_scaled_bernoulli")], None),
    "adversarial.infvar_stress": ([("adversarial", "infvar_stress")], None),
}
# Wrapped by the benchmark itself around the callable it hands to infvar_stress.
ESTIMATOR_SPAN = "adversarial.estimator"
SPAN_NAMES = (*BOUNDARIES, ESTIMATOR_SPAN)


class Tracer:
    """Collects spans from the benchmark thread and harness worker threads."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list] = []
        self._saved: list[tuple] = []
        self._main = self._stack()
        self.run_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.spans = []
            with self._lock:
                self._buffers.append(self._local.spans)
        return stack

    def wrap(self, name, fn, amount=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread starts with an empty stack; its parent is the
            # span the benchmark thread has open (the harness call).
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            tracer._local.spans.append(
                (sid, parent, tracer.run_id, name, start, end,
                 amount(args, out) if amount else 0)
            )
            return out

        return traced

    def operation(self, run_id: int):
        """Open the root span of one benchmark operation (a context manager)."""
        return _Operation(self, run_id)

    def install(self, package: str = "subgauss") -> None:
        for name, (sites, amount) in BOUNDARIES.items():
            first_mod, first_attr = sites[0]
            original = getattr(importlib.import_module(f"{package}.{first_mod}"), first_attr)
            wrapper = self.wrap(name, original, amount)
            for mod_name, attr in sites:
                module = importlib.import_module(f"{package}.{mod_name}")
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for buf in self._buffers for s in buf]

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        spans = self.spans()
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("span_id,parent_id,run_id,name,start_s,end_s,amount\n")
            for s in spans:
                handle.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]!r},{s[5]!r},{s[6]}\n")
        return len(spans)


class _Operation:
    def __init__(self, tracer: Tracer, run_id: int):
        self.tracer = tracer
        self.run_id = run_id

    def __enter__(self):
        self.tracer.run_id = self.run_id
        self.tracer._main.append(-self.run_id)  # root ids are negative run ids
        return self

    def __exit__(self, *exc):
        self.tracer._main.pop()
        return False


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: calls, busy_s, self_s and the summed amount."""
    children = defaultdict(list)
    for sid, parent, _run, _name, start, end, _amount in spans:
        children[parent].append((start, end))
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "amount": 0} for name in SPAN_NAMES}
    for sid, _parent, _run, name, start, end, amount in spans:
        row = out[name]
        busy = end - start
        row["calls"] += 1
        row["busy_s"] += busy
        row["self_s"] += busy - _covered(children.get(sid, ()), start, end)
        row["amount"] += amount
    return out
