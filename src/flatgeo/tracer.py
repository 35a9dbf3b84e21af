"""Strict geodesic tracing by iterated edge transitions.

A trace advances a straight line through the current chart, applies the
gluing transition at the boundary, and repeats.  Cone points terminate
the trace: continuations through a conical point branch, so the tracer
refuses to choose.  A pass within ``vertex_clearance`` of a cone point
reports VertexHit; an exact corner passage reports VertexHit for any
vertex class (flat marked points included) because the transition there
is ill-conditioned.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import ParameterOutOfRange, PointOutsideTriangle, TraceIncomplete
from .geometry import PlaneIsometry, Vec, normalize, point_segment_distance
from .surface import FlatSurface

DEFAULT_VERTEX_CLEARANCE = 1e-7

LENGTH_REACHED = "LengthReached"
VERTEX_HIT = "VertexHit"
LEFT_DOMAIN = "LeftDomain"


@dataclass(frozen=True)
class SurfacePoint:
    tri: int
    xy: Vec


@dataclass(frozen=True)
class TangentDirection:
    at: SurfacePoint
    unit: Vec


@dataclass(frozen=True)
class TraceSegment:
    tri: int
    entry: Vec
    exit: Vec
    direction: Vec
    t0: float
    length: float
    exit_edge: int | None  # edge crossed at the segment end; None if the trace stops here


@dataclass(frozen=True)
class Termination:
    kind: str
    vertex: int | None = None  # vertex class index for VertexHit
    parameter: float | None = None
    message: str | None = None


@dataclass(frozen=True)
class GeodesicTrace:
    start: TangentDirection
    segments: tuple[TraceSegment, ...]
    length: float
    termination: Termination

    def entry_params(self) -> list[float]:
        return [s.t0 for s in self.segments]


class _TraceTables:
    """Dense per-triangle data for the hot loop: plain floats, no numpy."""

    def __init__(self, surface: FlatSurface):
        tris = surface.triangles
        self.id2dense = {t.id: i for i, t in enumerate(tris)}
        self.dense2id = [t.id for t in tris]
        self.corners = []
        self.edges = []  # per tri: 3 x (ax, ay, ux, uy, length)
        self.trans = []  # per tri: 3 x (tgt_dense, tgt_edge, m00, m01, m10, m11, tx, ty)
        self.cone = []
        self.cls = []
        scale = 0.0
        for t in tris:
            self.corners.append(tuple(t.corners))
            es = []
            for k in range(3):
                a = t.edge_start(k)
                v = t.edge_vector(k)
                ln = math.hypot(v[0], v[1])
                es.append((a[0], a[1], v[0] / ln, v[1] / ln, ln))
                scale = max(scale, ln)
            self.edges.append(tuple(es))
            ts = []
            for k in range(3):
                ref, iso = surface.edge_transition(t.id, k)
                m = iso.matrix()
                ts.append((self.id2dense[ref.tri], ref.edge, m[0], m[1], m[2], m[3], m[4], m[5]))
            self.trans.append(tuple(ts))
            cone_flags = []
            cls_idx = []
            for k in range(3):
                ci = surface.corner_class[(t.id, k)]
                cls_idx.append(ci)
                cone_flags.append(surface.vertex_classes[ci].is_cone(surface.tolerance))
            self.cone.append(tuple(cone_flags))
            self.cls.append(tuple(cls_idx))
        self.scale = scale
        self.min_height = min(
            2.0 * t.signed_area() / max(t.edge_length(k) for k in range(3)) for t in tris
        )


def trace(
    surface: FlatSurface,
    start: TangentDirection,
    max_length: float,
    vertex_clearance: float = DEFAULT_VERTEX_CLEARANCE,
) -> GeodesicTrace:
    """Trace the maximal strict geodesic from ``start`` up to ``max_length``."""
    if not 0.0 < max_length < math.inf:
        raise ValueError("max_length must be positive and finite")
    if not surface.tolerance <= vertex_clearance < math.inf:
        raise ValueError("vertex_clearance must be finite and at least the surface tolerance")
    if not all(math.isfinite(x) for x in (*start.at.xy, *start.unit)):
        raise ValueError("start point and direction must be finite")
    tab = surface._trace_tables()
    if start.at.tri not in tab.id2dense:
        raise PointOutsideTriangle(f"no triangle with id {start.at.tri}")
    tol_pt = surface.tolerance * (1.0 + tab.scale)
    tri0 = surface.triangle(start.at.tri)
    if not tri0.contains(start.at.xy, tol=tol_pt * 10):
        raise PointOutsideTriangle(f"start point {start.at.xy} outside triangle {start.at.tri}")
    dx, dy = normalize(start.unit)
    norm_start = TangentDirection(start.at, (dx, dy))

    dense = tab.id2dense[start.at.tri]
    px, py = float(start.at.xy[0]), float(start.at.xy[1])
    entry_edge = -1
    acc = 0.0
    remaining = float(max_length)
    clearance2 = vertex_clearance * vertex_clearance
    t_eps = 1e-13 * (1.0 + tab.scale)
    segments: list[TraceSegment] = []
    step_budget = 50.0 * max_length / max(tab.min_height, 1e-9)
    if step_budget == math.inf:
        raise ValueError("max_length is too long for the step budget")
    max_steps = int(step_budget) + 10000

    corners = tab.corners
    edges = tab.edges
    trans = tab.trans
    cone = tab.cone
    cls = tab.cls
    dense2id = tab.dense2id

    for _ in range(max_steps):
        tri_id = dense2id[dense]
        # Exit through the nearest forward edge crossing.
        best_t = math.inf
        best_edge = -1
        tre = edges[dense]
        for e in range(3):
            if e == entry_edge:
                continue
            ax, ay, ux, uy, elen = tre[e]
            denom = ux * dy - uy * dx
            if -1e-13 < denom < 1e-13:
                continue
            sx = px - ax
            sy = py - ay
            t = (sx * uy - sy * ux) / denom
            if t <= t_eps or t >= best_t:
                continue
            s = (sx * dy - sy * dx) / denom
            if -1e-9 * elen <= s <= elen * (1.0 + 1e-9):
                best_t = t
                best_edge = e
        if best_edge < 0:
            return GeodesicTrace(
                norm_start,
                tuple(segments),
                acc,
                Termination(LEFT_DOMAIN, message="no forward edge crossing found"),
            )

        eff = best_t if best_t < remaining else remaining
        # Cone-point clearance along the chord actually travelled.
        hit_tau = None
        hit_class = None
        trc = corners[dense]
        for k in range(3):
            if not cone[dense][k]:
                continue
            wx = trc[k][0] - px
            wy = trc[k][1] - py
            tau = wx * dx + wy * dy
            if tau < 0.0:
                tau = 0.0
            elif tau > eff:
                tau = eff
            rx = wx - tau * dx
            ry = wy - tau * dy
            if rx * rx + ry * ry < clearance2 and (hit_tau is None or tau < hit_tau):
                hit_tau = tau
                hit_class = cls[dense][k]
        if hit_tau is not None:
            q = (px + hit_tau * dx, py + hit_tau * dy)
            segments.append(TraceSegment(tri_id, (px, py), q, (dx, dy), acc, hit_tau, None))
            return GeodesicTrace(
                norm_start,
                tuple(segments),
                acc + hit_tau,
                Termination(VERTEX_HIT, vertex=hit_class, parameter=acc + hit_tau),
            )
        if remaining <= best_t:
            q = (px + remaining * dx, py + remaining * dy)
            segments.append(TraceSegment(tri_id, (px, py), q, (dx, dy), acc, remaining, None))
            return GeodesicTrace(
                norm_start, tuple(segments), max_length, Termination(LENGTH_REACHED)
            )

        qx = px + best_t * dx
        qy = py + best_t * dy
        # Corner ties resolve as VertexHit regardless of curvature: the
        # transition choice at an exact corner is ambiguous.
        for k in (best_edge, (best_edge + 1) % 3):
            cxr, cyr = trc[k]
            ex2 = qx - cxr
            ey2 = qy - cyr
            if ex2 * ex2 + ey2 * ey2 < clearance2:
                segments.append(
                    TraceSegment(tri_id, (px, py), (qx, qy), (dx, dy), acc, best_t, None)
                )
                return GeodesicTrace(
                    norm_start,
                    tuple(segments),
                    acc + best_t,
                    Termination(VERTEX_HIT, vertex=cls[dense][k], parameter=acc + best_t),
                )

        segments.append(
            TraceSegment(tri_id, (px, py), (qx, qy), (dx, dy), acc, best_t, best_edge)
        )
        acc += best_t
        remaining -= best_t

        tgt, tedge, m00, m01, m10, m11, tx, ty = trans[dense][best_edge]
        npx = m00 * qx + m01 * qy + tx
        npy = m10 * qx + m11 * qy + ty
        ndx = m00 * dx + m01 * dy
        ndy = m10 * dx + m11 * dy
        n = math.hypot(ndx, ndy)
        dx, dy = ndx / n, ndy / n
        # Snap onto the target edge to kill perpendicular drift.
        ax, ay, ux, uy, elen = edges[tgt][tedge]
        s = (npx - ax) * ux + (npy - ay) * uy
        if s < 0.0:
            s = 0.0
        elif s > elen:
            s = elen
        px = ax + s * ux
        py = ay + s * uy
        dense = tgt
        entry_edge = tedge

    return GeodesicTrace(
        norm_start,
        tuple(segments),
        acc,
        Termination(LEFT_DOMAIN, message="step budget exceeded"),
    )


def locate(trace_: GeodesicTrace, t: float) -> SurfacePoint:
    """Point at arc length t, by linear interpolation in the owning segment."""
    slack = 1e-9 * (1.0 + trace_.length)
    if t < -slack or t > trace_.length + slack:
        raise ParameterOutOfRange(f"t={t!r} outside [0, {trace_.length!r}]")
    if not trace_.segments:
        raise ParameterOutOfRange("empty trace")
    t = min(max(t, 0.0), trace_.length)
    t0s = trace_.entry_params()
    i = bisect_right(t0s, t) - 1
    i = max(0, min(i, len(trace_.segments) - 1))
    seg = trace_.segments[i]
    tau = min(max(t - seg.t0, 0.0), seg.length)
    return SurfacePoint(
        seg.tri, (seg.entry[0] + tau * seg.direction[0], seg.entry[1] + tau * seg.direction[1])
    )


def truncate(trace_: GeodesicTrace, length: float) -> GeodesicTrace:
    """Prefix of a trace up to the given arc length."""
    if length >= trace_.length:
        return trace_
    if length < 0:
        raise ParameterOutOfRange("negative length")
    segs: list[TraceSegment] = []
    for seg in trace_.segments:
        if seg.t0 >= length:
            break
        ln = min(seg.length, length - seg.t0)
        if ln < seg.length:
            exit_pt = (
                seg.entry[0] + ln * seg.direction[0],
                seg.entry[1] + ln * seg.direction[1],
            )
            segs.append(
                TraceSegment(seg.tri, seg.entry, exit_pt, seg.direction, seg.t0, ln, None)
            )
            break
        segs.append(seg)
    return GeodesicTrace(trace_.start, tuple(segs), length, Termination(LENGTH_REACHED))


def unfold(
    surface: FlatSurface, trace_: GeodesicTrace
) -> tuple[list[tuple[int, PlaneIsometry]], Vec, Vec]:
    """Develop the visited triangles into one plane.

    Returns per-segment placements (triangle id, chart-to-plane isometry)
    plus the developed endpoints of the trace, which lie on one straight
    segment.
    """
    placements: list[tuple[int, PlaneIsometry]] = []
    iso = PlaneIsometry.identity()
    for seg in trace_.segments:
        placements.append((seg.tri, iso))
        if seg.exit_edge is not None:
            _, step = surface.edge_transition(seg.tri, seg.exit_edge)
            iso = iso.compose(step.inverse())
    if not trace_.segments:
        p = trace_.start.at.xy
        return placements, p, p
    first = trace_.segments[0]
    last = trace_.segments[-1]
    return placements, first.entry, placements[-1][1].apply(last.exit)


def tangent_representatives(
    surface: FlatSurface,
    point: SurfacePoint,
    vector: Vec,
    tol: float = 1e-7,
) -> list[tuple[int, Vec, Vec]]:
    """All chart representations (tri, point, vector) of a surface tangent.

    Includes the chart itself, charts one gluing away when the point lies
    within ``tol`` of an edge, and the full corner fan when it lies within
    ``tol`` of a corner.  Fan directions for cone corners depend on the
    walk path and are only meaningful for flat marked points.
    """
    tri = surface.triangle(point.tri)
    reps: list[tuple[int, Vec, Vec]] = [(point.tri, point.xy, vector)]
    seen = {(point.tri, round(point.xy[0], 12), round(point.xy[1], 12))}

    def add(tri_id: int, xy: Vec, v: Vec) -> None:
        key = (tri_id, round(xy[0], 12), round(xy[1], 12))
        if key not in seen:
            seen.add(key)
            reps.append((tri_id, xy, v))

    for e in range(3):
        a = tri.edge_start(e)
        b = tri.edge_end(e)
        if point_segment_distance(point.xy, a, b) <= tol:
            ref, iso = surface.edge_transition(point.tri, e)
            add(ref.tri, iso.apply(point.xy), iso.apply_vector(vector))

    for k in range(3):
        c = tri.corner(k)
        if math.hypot(point.xy[0] - c[0], point.xy[1] - c[1]) <= tol:
            # The fan's last chart is the start chart again, already listed.
            for tri_id, _corner, iso in list(surface.corner_fan(point.tri, k))[:-1]:
                add(tri_id, iso.apply(point.xy), iso.apply_vector(vector))
    return reps


def reverse_check(
    surface: FlatSurface,
    start: TangentDirection,
    length: float,
    vertex_clearance: float = DEFAULT_VERTEX_CLEARANCE,
) -> float:
    """Round-trip residual: trace forward, trace back, measure the gap.

    Raises TraceIncomplete if either leg terminates before ``length``.
    """
    fwd = trace(surface, start, length, vertex_clearance)
    if fwd.termination.kind != LENGTH_REACHED:
        raise TraceIncomplete(f"forward trace ended with {fwd.termination.kind}")
    if not fwd.segments:
        return 0.0
    last = fwd.segments[-1]
    back_start = TangentDirection(
        SurfacePoint(last.tri, last.exit), (-last.direction[0], -last.direction[1])
    )
    bwd = trace(surface, back_start, length, vertex_clearance)
    if bwd.termination.kind != LENGTH_REACHED:
        raise TraceIncomplete(f"backward trace ended with {bwd.termination.kind}")
    end = bwd.segments[-1]
    reps = tangent_representatives(
        surface, SurfacePoint(end.tri, end.exit), end.direction, tol=1e-6
    )
    sx, sy = start.at.xy
    best = math.inf
    for tri_id, xy, _v in reps:
        if tri_id == start.at.tri:
            best = min(best, math.hypot(xy[0] - sx, xy[1] - sy))
    return best


def check_trace(surface: FlatSurface, trace_: GeodesicTrace, tol: float = 1e-7) -> None:
    """Assert segment chaining, direction transport and length bookkeeping."""
    total = 0.0
    for i, seg in enumerate(trace_.segments):
        v = (seg.exit[0] - seg.entry[0], seg.exit[1] - seg.entry[1])
        ln = math.hypot(v[0], v[1])
        assert abs(ln - seg.length) <= tol * (1 + ln), "segment length mismatch"
        if ln > tol:
            assert (
                math.hypot(v[0] / ln - seg.direction[0], v[1] / ln - seg.direction[1]) <= 1e-6
            ), "direction disagrees with chord"
        total += seg.length
        if seg.exit_edge is not None and i + 1 < len(trace_.segments):
            nxt = trace_.segments[i + 1]
            ref, iso = surface.edge_transition(seg.tri, seg.exit_edge)
            assert ref.tri == nxt.tri, "transition target mismatch"
            img = iso.apply(seg.exit)
            assert (
                math.hypot(img[0] - nxt.entry[0], img[1] - nxt.entry[1]) <= tol
            ), "chained entry point mismatch"
            dimg = iso.apply_vector(seg.direction)
            assert (
                math.hypot(dimg[0] - nxt.direction[0], dimg[1] - nxt.direction[1]) <= 1e-6
            ), "direction transport mismatch"
    assert abs(total - trace_.length) <= tol * (1 + trace_.length), "length sum mismatch"
