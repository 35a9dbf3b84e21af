"""The benchmark's workloads: inputs made from a seed, ops, output checks.

Each workload turns ``--seed`` into one *pass*: a fixed list of ops that
the timed phase repeats.  An op is one call path into the library, run
in a closed loop (one caller, each op starts when the previous one has
returned).  The library receives only the generated inputs.  Every op's
output is checked against the paper's invariants; for the default seed
it is also compared with the stored reference in ``reference/``.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import flatgeo.analysis as analysis
import flatgeo.builders as builders
import flatgeo.holonomy as holonomy
import flatgeo.jsonio as jsonio
import flatgeo.surface as surface_mod
import flatgeo.tracer as tracer

DEFAULT_SEED = 1
# Not used while the benchmark was tuned; validates later claims.
HELD_OUT_SEED = 7919

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

TWO_PI = 2.0 * math.pi

# Criterion 5 parameters, as `flatgeo scan` and the acceptance test use them.
SCAN_LENGTH_DIAMETERS = 100.0
SCAN_EPSILON = 0.05
SCAN_SAMPLES = 2000
SCAN_PARALLEL_PER_SURFACE = 20

# 400 diameters puts 70-580 chords in a chart, so most charts take the
# spatial-hash path of self_intersections.  A direction's cost varies by
# about 30 % with its angle; seven per surface keep the pass cost steady
# across seeds and one pass near 24 s on a 2-core x86 box.  (At 1000
# diameters a single direction per surface takes 25-45 s.)
LONG_LENGTH_DIAMETERS = 400.0
LONG_PER_SURFACE = 7

ROUNDTRIP_LENGTH = 100.0
ROUNDTRIP_PER_SURFACE = 20

BUILD_SMALL_STARS = 20
BUILD_SMALL_RECTILINEAR = 20
# Star polygons with n vertices double to 2(n - 2) triangles: 100, 400, 1600.
BUILD_SCALING_VERTICES = (52, 202, 802)

FLOAT_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output broke an invariant or disagreed with the reference."""


@dataclass(frozen=True)
class Op:
    tag: str  # surface name or size bucket, used to group per-layer times
    call: Callable[[], Any]  # runs the library and returns its output
    check: Callable[[Any], list]  # raises CheckFailed; returns the reference digest


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    compare: Callable[[list, list], None]  # digest vs. reference digest
    reference: dict | None


# ---------------------------------------------------------------------------
# start points


def area_median_triangle(surface) -> int:
    """Triangle holding the midpoint of cumulative area, in id order."""
    ordered = sorted(surface.triangles, key=lambda t: t.id)
    total = sum(t.signed_area() for t in ordered)
    acc = 0.0
    for t in ordered:
        acc += t.signed_area()
        if acc >= 0.5 * total:
            return t.id
    return ordered[-1].id


def incenter(surface, tri_id: int) -> tracer.SurfacePoint:
    a, b, c = surface.triangle(tri_id).corners
    la, lb, lc = math.dist(b, c), math.dist(c, a), math.dist(a, b)
    s = la + lb + lc
    return tracer.SurfacePoint(
        tri_id, ((la * a[0] + lb * b[0] + lc * c[0]) / s, (la * a[1] + lb * b[1] + lc * c[1]) / s)
    )


def _tangent(point, angle: float) -> tracer.TangentDirection:
    return tracer.TangentDirection(point, (math.cos(angle), math.sin(angle)))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _warm_trace_tables(surface, point) -> None:
    # The tracer builds its per-surface tables on first use; pay that here.
    tracer.trace(surface, _tangent(point, 0.5), 1e-3)


# ---------------------------------------------------------------------------
# checks


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= FLOAT_TOL


def _half_turn_distance(angle: float) -> float:
    return abs(angle - math.pi * round(angle / math.pi))


def _full_turn_distance(angle: float) -> float:
    r = angle % TWO_PI
    return min(r, TWO_PI - r)


def check_scan_row(row, parallel: bool, length: float) -> list:
    """Invariants of one scanned direction; returns its reference digest."""
    _require(row.kind != "left_domain", "trace left the domain")
    if parallel:
        # Strict geodesics on parallel surfaces are simple (the paper's theorem).
        _require(row.kind in ("simple", "vertex_hit"), f"{row.kind} on a parallel surface")
    cf = t1 = t2 = None
    if row.kind == "simple":
        cf = row.density.covered_fraction
        _require(0.0 <= cf <= 1.0, f"covered_fraction {cf!r} outside [0, 1]")
    elif row.kind == "self_intersecting":
        t1, t2 = row.first_event.t1, row.first_event.t2
        _require(0.0 <= t1 < t2 <= length * (1 + FLOAT_TOL), f"event ({t1!r}, {t2!r}) out of order")
    elif row.kind == "vertex_hit":
        _require(0.0 <= row.hit_parameter <= length, "hit parameter outside the trace")
    else:
        raise CheckFailed(f"unknown verdict {row.kind!r}")
    return [row.kind, cf, t1, t2]


def compare_scan(digest: list, ref: list) -> None:
    _require(digest[0] == ref[0], f"verdict {digest[0]} != reference {ref[0]}")
    _require(digest[1] == ref[1], f"covered_fraction {digest[1]!r} != reference {ref[1]!r}")
    _require(_close(digest[2], ref[2]) and _close(digest[3], ref[3]), "first event moved")


def check_roundtrip(residual: float) -> list:
    _require(math.isfinite(residual) and residual < 1e-6, f"round-trip residual {residual!r}")
    return [residual]


def compare_roundtrip(digest: list, ref: list) -> None:
    _require(_close(digest[0], ref[0]), f"residual {digest[0]!r} != reference {ref[0]!r}")


def check_build(out: dict, rectilinear: bool) -> list:
    """Audit one built surface; returns its reference digest."""
    s = out["surface"]
    gb = abs(sum(v.curvature for v in s.vertex_classes) - TWO_PI * s.euler_characteristic)
    _require(gb < 1e-9, f"Gauss-Bonnet residual {gb:.3e}")
    parallel = out["verdict"].parallel
    if rectilinear:
        _require(parallel, "rectilinear double not parallel")
        for v in s.vertex_classes:
            _require(abs(abs(v.curvature) - math.pi) < 1e-9, f"curvature {v.curvature!r} not +-pi")
    if parallel:
        for v in s.vertex_classes:
            _require(_half_turn_distance(v.curvature) <= 1e-9, "parallel but curvature not in Z*pi")
    for v, hol in zip(s.vertex_classes, out["vertex_holonomy"]):
        _require(not hol.reflect, "vertex holonomy reflects")
        _require(_full_turn_distance(hol.angle + v.curvature) <= 1e-9, "holonomy != -curvature")
    _require(out["json_again"] == out["json"], "JSON round trip not byte-exact")
    _require(out["diameter"] > 0.0, "non-positive diameter")
    digest = hashlib.sha256(out["json"].encode()).hexdigest()[:16]
    return [len(s.triangles), parallel, digest, out["diameter"]]


def compare_build(digest: list, ref: list) -> None:
    _require(digest[:3] == ref[:3], f"surface {digest[:3]} != reference {ref[:3]}")
    _require(_close(digest[3], ref[3]), "diameter moved")


# ---------------------------------------------------------------------------
# workloads


def _scan_op(name, surface, start, length, scan_seed, parallel) -> Op:
    def call():
        return analysis.direction_scan(
            surface, start, 1, length, SCAN_EPSILON, scan_seed, density_samples=SCAN_SAMPLES
        )

    return Op(name, call, lambda result: check_scan_row(result.rows[0], parallel, length))


def _scan_ops(seed: int, salt: int, multiple: float, per_surface: int, parallel_only: bool):
    rng = _rng(seed, salt)
    columns = []
    for name, surface in builders.catalog():
        parallel = builders.CATALOG_PARALLEL[name]
        if parallel_only and not parallel:
            continue
        start = incenter(surface, area_median_triangle(surface))
        _warm_trace_tables(surface, start)
        length = multiple * surface_mod.diameter_estimate(surface)
        seeds = rng.integers(0, 2**31 - 1, per_surface)
        columns.append([_scan_op(name, surface, start, length, int(s), parallel) for s in seeds])
    # Interleave surfaces so that every stretch of the pass mixes them.
    return tuple(op for row in zip(*columns) for op in row)


def setup_scan_parallel(seed: int) -> tuple[Op, ...]:
    return _scan_ops(seed, 1, SCAN_LENGTH_DIAMETERS, SCAN_PARALLEL_PER_SURFACE, True)


def setup_scan_long(seed: int) -> tuple[Op, ...]:
    return _scan_ops(seed, 2, LONG_LENGTH_DIAMETERS, LONG_PER_SURFACE, False)


def setup_roundtrip(seed: int) -> tuple[Op, ...]:
    rng = _rng(seed, 3)
    columns = []
    for name, surface in builders.catalog():
        start = incenter(surface, surface.triangles[0].id)
        # A ray that meets a cone point cannot be reversed (reverse_check
        # raises by design), so only angles whose forward trace reaches
        # the full length are inputs.  About 2e-5 of random angles do not.
        angles = []
        while len(angles) < ROUNDTRIP_PER_SURFACE:
            angle = float(rng.uniform(0.0, TWO_PI))
            fwd = tracer.trace(surface, _tangent(start, angle), ROUNDTRIP_LENGTH)
            if fwd.termination.kind == tracer.LENGTH_REACHED:
                angles.append(angle)
        columns.append([_roundtrip_op(name, surface, _tangent(start, a)) for a in angles])
    return tuple(op for row in zip(*columns) for op in row)


def _roundtrip_op(name, surface, start) -> Op:
    return Op(
        name, lambda: tracer.reverse_check(surface, start, ROUNDTRIP_LENGTH), check_roundtrip
    )


def _build_and_audit(spec) -> dict:
    s = builders.double_of_polygon(spec)
    verdict = holonomy.is_parallel(s)
    hols = [holonomy.vertex_holonomy(s, v) for v in s.vertex_classes]
    text = jsonio.surface_to_json(s)
    loaded = jsonio.surface_from_json(text)
    again = jsonio.surface_to_json(loaded)
    diameter = surface_mod.diameter_estimate(loaded)
    return {
        "surface": s,
        "verdict": verdict,
        "vertex_holonomy": hols,
        "json": text,
        "json_again": again,
        "diameter": diameter,
    }


def _build_op(tag: str, spec, rectilinear: bool) -> Op:
    return Op(tag, lambda: _build_and_audit(spec), lambda out: check_build(out, rectilinear))


def setup_build(seed: int) -> tuple[Op, ...]:
    rng = _rng(seed, 4)
    ops = []
    for _ in range(BUILD_SMALL_STARS):
        ops.append(_build_op("small", builders.random_star_polygon(rng), False))
    for _ in range(BUILD_SMALL_RECTILINEAR):
        ops.append(_build_op("small", builders.random_rectilinear_polygon(rng), True))
    for n in BUILD_SCALING_VERTICES:
        spec = builders.random_star_polygon(rng, n, n)
        ops.append(_build_op(f"t{2 * (n - 2)}", spec, False))
    return tuple(ops)


SETUPS = {
    "scan-parallel": (setup_scan_parallel, compare_scan),
    "scan-long": (setup_scan_long, compare_scan),
    "roundtrip": (setup_roundtrip, compare_roundtrip),
    "build": (setup_build, compare_build),
}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def setup(name: str, seed: int, with_reference: bool = True) -> Workload:
    """Everything the timed phase needs: surfaces, inputs, reference."""
    make, compare = SETUPS[name]
    ops = make(seed)
    reference = None
    if with_reference and seed == DEFAULT_SEED:
        with open(reference_path(name)) as fh:
            reference = json.load(fh)
        if len(reference["ops"]) != len(ops):
            raise CheckFailed("reference does not match the pass length")
    return Workload(ops, compare, reference)
