"""In-memory spans around the calls into each layer of momentforge.

The program is not changed: :func:`install` replaces the layer functions
and methods listed in ``LAYERS`` with wrappers, in every momentforge module
that holds a reference to them.  Each call records a span (name, start,
end, parent); the spans stay in memory and are written out once, at the
end of a traced round.  A layer's time is its self time: the span's length
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter


def _emitted_bytes(args, kwargs, result) -> int:
    out = args[0]["out"]
    return os.path.getsize(out) if out else 0


def _transfer_steps(args, kwargs, result) -> int:
    m, n, r = args[:3]
    return m * n * 2 ** min(m, n) * r


def _one(args, kwargs, result) -> int:
    return 1


def _configurations(args, kwargs, result) -> int:
    return result.total


# (span name, module, attribute, count name, count function)
LAYERS = [
    ("cli.emit", "momentforge.cli", "_emit", "cli.out_bytes", _emitted_bytes),
    ("poly_series.mul", "momentforge.poly_series", "Polynomial.__mul__", "poly_series.mul_calls", _one),
    ("poly_series.mul", "momentforge.poly_series", "TruncatedSeries.__mul__", "poly_series.mul_calls", _one),
    ("poly_series.eval", "momentforge.poly_series", "Polynomial.eval", None, None),
    ("families.invmaj.pgf", "momentforge.families.invmaj", "pgf", None, None),
    ("families.invmaj.binomial_moments", "momentforge.families.invmaj", "binomial_moments", None, None),
    ("families.invmaj.mgf_deviation", "momentforge.families.invmaj", "mgf_deviation", None, None),
    ("families.boolean.h_polynomial", "momentforge.families.boolean", "h_polynomial", None, None),
    (
        "families.domino.binomial_sums", "momentforge.families.domino", "binomial_sums",
        "families.domino.transfer_steps", _transfer_steps,
    ),
    ("families.schur.second_moment_grid", "momentforge.families.schur", "second_moment_grid", None, None),
    (
        "families.schur.second_moment", "momentforge.families.schur", "second_moment",
        "families.schur.second_moment_calls", _one,
    ),
    ("fitter.fit", "momentforge.fitter", "fit_quasi_polynomial", None, None),
    ("moment_algebra.convert", "momentforge.moment_algebra", "binomial_to_raw", None, None),
    ("moment_algebra.convert", "momentforge.moment_algebra", "raw_to_binomial", None, None),
    ("moment_algebra.convert", "momentforge.moment_algebra", "raw_to_central", None, None),
    ("moment_algebra.convert", "momentforge.moment_algebra", "central_to_raw", None, None),
    ("moment_algebra.normality_report", "momentforge.moment_algebra", "normality_report", None, None),
    ("oracle.enumerate", "momentforge.oracle", "enumerate_schur", "oracle.configurations", _configurations),
    ("oracle.enumerate", "momentforge.oracle", "enumerate_boards", "oracle.configurations", _configurations),
    ("oracle.enumerate", "momentforge.oracle", "enumerate_permutations", "oracle.configurations", _configurations),
    ("oracle.enumerate", "momentforge.oracle", "enumerate_boolean", "oracle.configurations", _configurations),
    ("oracle.enumerate", "momentforge.oracle", "sample_boolean", "oracle.configurations", _configurations),
    ("oracle.histogram_moments", "momentforge.oracle", "histogram_moments", None, None),
    ("oracle.histogram_pgf", "momentforge.oracle", "Histogram.pgf", None, None),
]

JOB_SPAN = "cli.main"
SETUP_METRICS = ["setup.import_momentforge_s", "setup.import_mpmath_s", "setup.import_click_s"]
COUNT_METRICS = sorted({count for *_, count, _ in LAYERS if count})
TIME_METRICS = [f"{JOB_SPAN}_s"] + sorted({f"{name}_s" for name, *_ in LAYERS})


class Tracer:
    """Spans as parallel lists: name, start, end and the index of the parent span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, name: str, fn, count_name=None, count_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count_name:
                self.counts[count_name] += count_fn(args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: Counter = Counter()
        for i, name in enumerate(self.names):
            out[f"{name}_s"] += self.ends[i] - self.starts[i] - covered[i]
        return dict(out)

    def write(self, path: str) -> None:
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [name, start - origin, end - origin, parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)


def install(tracer: Tracer) -> None:
    """Replace every layer function in LAYERS with a traced wrapper."""
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("momentforge")]
    for name, module_name, attribute, count_name, count_fn in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), count_name, count_fn))
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(name, original, count_name, count_fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer time and count, zero where the layer did not run."""
    times = tracer.self_times()
    metrics: dict[str, float] = {name: times.get(name, 0.0) for name in TIME_METRICS}
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNT_METRICS})
    return metrics
