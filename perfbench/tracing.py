"""Spans around the package's public functions, recorded from outside.

While a Tracer is installed, each function named in BOUNDARIES is replaced,
in its own module and in every package module that imported it by name,
by a wrapper that records a span.  Calls between layers therefore nest:
`is_almost_geodesic` shows its `matrix_power` child, `horosphere_contour`
its `sample_field` and `marching_squares`.  Uninstalling restores the
original functions, so untraced ops run the package untouched.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

PACKAGE = "maxplus_martin"

# functions that mark a layer boundary; scalar semiring ops are left out
# because they run n^3 times per star and a span each would swamp the run
BOUNDARIES = {
    "kernel": ("max_cycle_mean", "normalize", "kleene_star", "matrix_power",
               "is_harmonic"),
    "martin": ("recurrence_classes", "martin_kernel", "spectral_measure",
               "extremal_witness"),
    "paths": ("downhill_path", "geodesic_limit", "is_almost_geodesic"),
    "lq": ("verify_harmonic_lq", "feedback_trajectory",
           "almost_optimality_slack"),
    "parallel": ("worker_count", "parallel_map"),
    "contours": ("horosphere_contour", "sample_field", "marching_squares",
                 "polylines_to_svg"),
    "fileio": ("load_kernel", "load_function", "canonical_json"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "cpu", "error", "attrs")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.error = None
        self.attrs = None
        self.cpu = time.process_time()
        self.start = time.perf_counter()
        self.end = None

    def close(self):
        self.end = time.perf_counter()
        self.cpu = time.process_time() - self.cpu

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded caller."""

    def __init__(self, annotate=None):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._annotate = annotate
        self._patches = []
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in BOUNDARIES}
        for layer, names in BOUNDARIES.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules.values():
                    if getattr(mod, name, None) is original:
                        self._patches.append((mod, name, original, wrapper))

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.close()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self.close(span)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
                if tracer._annotate is not None:
                    tracer._annotate(span, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def write(self, path):
        """Dump every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "cpu": s.cpu,
                    "error": s.error, "attrs": s.attrs,
                }) + "\n")


def self_times(spans):
    """Span duration minus the part of it that child spans cover.

    Children of one caller never overlap (single thread), so their summed
    duration is the covered part.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]
