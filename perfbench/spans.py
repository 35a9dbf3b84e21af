"""Spans and work counts recorded around the library's layer boundaries.

A traced run replaces, for the length of the timed phase, the module
attribute that each caller looks up (``flatgeo.analysis.trace``,
``flatgeo.builders.build_surface``, ...) with a wrapper.  A wrapper
records one span (name, start, end, parent span, op id) and, after the
span has closed, counts the work it saw in the arguments and result.
Wrappers only time and count: arguments, results, tolerances and module
constants pass through untouched.  Counting runs in its own
``bench.count`` span so that it is charged to the benchmark, not to the
layer that called the wrapped function.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import flatgeo.analysis as analysis
import flatgeo.builders as builders
import flatgeo.holonomy as holonomy
import flatgeo.jsonio as jsonio
import flatgeo.surface as surface_mod
import flatgeo.tracer as tracer

# Chart size above which self_intersections switches from all pairs to
# its spatial hash (flatgeo.analysis keeps the same number privately).
HASH_CHORDS = 192

LAYERS = ("scan", "tracer", "selfx", "density", "surface", "builders", "holonomy", "jsonio")
CONSTRUCTION = ("surface", "builders", "holonomy", "jsonio")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _chords_per_chart(trace_) -> Counter:
    return Counter(seg.tri for seg in trace_.segments)


def _count_trace(counts, args, kwargs, result) -> None:
    counts["tracer.calls"] += 1
    counts["tracer.steps"] += len(result.segments)
    counts["tracer.vertex_hits"] += result.termination.kind == tracer.VERTEX_HIT


def _count_selfx(counts, args, kwargs, result) -> None:
    per_chart = _chords_per_chart(args[1])
    counts["selfx.calls"] += 1
    counts["selfx.event_calls"] += bool(result)
    for n in per_chart.values():
        if n < 2:
            continue
        counts["selfx.charts"] += 1
        counts["selfx.pairs"] += n * (n - 1) // 2
        counts["selfx.hash_charts"] += n > HASH_CHORDS
        counts["selfx.max_chart_chords"] = max(counts["selfx.max_chart_chords"], n)


def _count_density(counts, args, kwargs, result) -> None:
    # Computed, not measured: every sample is tested against the chords
    # of its own chart and of its three neighbours, with no early exit.
    surface, trace_, _eps, samples = args[:4]
    per_chart = _chords_per_chart(trace_)
    total_area = sum(t.signed_area() for t in surface.triangles)
    tests = 0.0
    for t in surface.triangles:
        chords = per_chart.get(t.id, 0)
        chords += sum(per_chart.get(surface.edge_transition(t.id, e)[0].tri, 0) for e in range(3))
        tests += samples * t.signed_area() / total_area * chords
    counts["density.calls"] += 1
    counts["density.tests"] += tests
    counts["density.covered_sum"] += result.covered_fraction


def _count_build(counts, args, kwargs, result) -> None:
    counts["surface.build_calls"] += 1
    counts["surface.tris"] += len(result.triangles)


def _count_generators(counts, args, kwargs, result) -> None:
    counts["holonomy.generators"] += len(result)


def _count_dump(counts, args, kwargs, result) -> None:
    counts["jsonio.bytes"] += len(result.encode())


# (owner, attribute, span name, counter).  Each owner is the namespace
# the caller resolves the name in, so every call path is covered once.
PATCHES = (
    (analysis, "direction_scan", "scan", None),
    (analysis, "trace", "tracer.trace", _count_trace),
    (analysis, "self_intersections", "selfx", _count_selfx),
    (analysis, "density_estimate", "density", _count_density),
    (tracer, "trace", "tracer.trace", _count_trace),
    (tracer, "tangent_representatives", "tracer.reps", None),
    (tracer, "reverse_check", "tracer.reverse_check", None),
    (builders, "double_of_polygon", "builders.double", None),
    (builders.PolygonSpec, "validate", "builders.validate", None),
    (builders, "build_surface", "surface.build", _count_build),
    (jsonio, "build_surface", "surface.build", _count_build),
    (surface_mod, "diameter_estimate", "surface.diameter", None),
    (holonomy, "is_parallel", "holonomy.is_parallel", None),
    (holonomy, "holonomy_generators", "holonomy.generators", _count_generators),
    (holonomy, "vertex_holonomy", "holonomy.vertex", None),
    (jsonio, "surface_to_json", "jsonio.dump", _count_dump),
    (jsonio, "surface_from_json", "jsonio.load", None),
)


class Recorder:
    """In-memory spans plus per-pass work counts for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_tags: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, tag: str) -> int:
        self._op = len(self.op_tags)
        self.op_tags.append(tag)
        return self.open("bench.op")

    def take_counts(self) -> dict:
        out = dict(self.counts)
        self.counts = Counter()
        return out

    def _wrap(self, original, name, counter):
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(idx)
            if counter is not None:
                cidx = rec.open("bench.count")
                counter(rec.counts, args, kwargs, result)
                rec.close(cidx)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in PATCHES:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        selfs = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                selfs[s[3]] -= s[2] - s[1]
        return selfs

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def tail_percentile(n: int) -> float:
    """Highest of 50, 90, 99, 99.9, ... with at least ten samples beyond it."""
    pct = 50.0
    for p in (90.0, 99.0, 99.9, 99.99, 99.999):
        if n * (100.0 - p) / 100.0 >= 10:
            pct = p
    return pct


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]
