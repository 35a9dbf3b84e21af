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
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterOutOfRange, PointOutsideTriangle, TraceIncomplete
from .geometry import PlaneIsometry, Vec, normalize, point_segment_distance
from .surface import FlatSurface

DEFAULT_VERTEX_CLEARANCE = 1e-7

# A trace's step budget is 50 steps per shortest triangle height of
# length; a length whose budget exceeds this could not finish in
# reasonable time and is rejected.
MAX_STEPS = 10**7

# Lines whose directions differ by more than this, projectively, cross
# properly; closer ones retrace.  A chart's direction classes are four
# times tighter, and more than MAX_CLASSES of them make one wide class.
PROPER_ANGLE_TOL = 1e-6
MAX_CLASSES = 8

# check_trace's bound on chained entry points, and on lengths relative to 1 + length.
CHECK_TOL = 1e-7

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


@dataclass(frozen=True, eq=False)
class GeodesicTrace:
    """A traced geodesic, stored as one read-only ``(n, 10)`` float64 array.

    Row k of ``chords`` is the k-th chord: triangle id, entry x/y, exit
    x/y, unit direction x/y, arc parameter t0 at entry, length, and the
    edge crossed at the exit (-1 where the trace stops).  ``segments``,
    ``charts`` and ``classes`` are views of the rows, built on first read.
    """

    start: TangentDirection
    chords: np.ndarray
    length: float
    termination: Termination

    @classmethod
    def _from_rows(cls, start, rows, length: float, termination: Termination) -> GeodesicTrace:
        """A trace over ``rows``: a flat list of chord values or an array of rows."""
        chords = np.array(rows, dtype=np.float64).reshape(-1, 10)
        chords.flags.writeable = False
        return cls(start, chords, length, termination)

    @cached_property
    def segments(self) -> tuple[TraceSegment, ...]:
        return tuple(
            TraceSegment(
                int(tri), (ex, ey), (ox, oy), (dx, dy), t0, ln, None if edge < 0 else int(edge)
            )
            for tri, ex, ey, ox, oy, dx, dy, t0, ln, edge in self.chords.tolist()
        )

    @cached_property
    def charts(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """tri -> (entry points, directions, lengths, t0) of its chords.

        Charts come in order of first appearance, chords in trace order.
        """
        c = self.chords
        if not len(c):
            return {}
        _ids, first, inverse = np.unique(c[:, 0], return_index=True, return_inverse=True)
        chart_first = first[inverse]
        order = np.argsort(chart_first, kind="stable")
        starts = np.flatnonzero(np.diff(chart_first[order])) + 1
        return {
            int(g[0, 0]): (g[:, 1:3], g[:, 5:7], g[:, 8], g[:, 7])
            for g in np.split(c[order], starts)
        }

    @cached_property
    def classes(self) -> dict[int, tuple[np.ndarray, ...]]:
        """tri -> (label, normals, spreads, keys, order): its direction classes.

        A class is the chords with ``|D_k x d| <= PROPER_ANGLE_TOL / 4``, d
        its first chord in trace order, with normal ``perp(d)`` and spread
        the largest such cross product; a chart of more than MAX_CLASSES
        is one wide class of spread 1.  ``keys[i] = label + 1j * normal.P``
        of chord ``order[i]``, sorted by class, then offset (numpy orders
        complex numbers lexicographically)."""
        out = {}
        for tri, (P, D, _L, _T0) in self.charts.items():
            label = np.full(len(P), -1)
            normals, spreads = [], []
            while len(free := np.flatnonzero(label < 0)):
                if len(normals) == MAX_CLASSES:
                    label[:], normals, spreads = 0, normals[:1], [1.0]
                    break
                dx, dy = D[free[0]]
                cross = np.abs(D[free, 0] * dy - D[free, 1] * dx)
                mine = cross <= PROPER_ANGLE_TOL / 4
                label[free[mine]] = len(normals)
                normals.append((-dy, dx))
                spreads.append(cross[mine].max())
            n = np.array(normals)
            keys = label + 1j * (n[label, 0] * P[:, 0] + n[label, 1] * P[:, 1])
            out[tri] = (label, n, np.array(spreads), np.sort(keys), np.argsort(keys, kind="stable"))
        return out


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
                cone_flags.append(surface.vertex_classes[ci].is_cone)
            self.cone.append(tuple(cone_flags))
            self.cls.append(tuple(cls_idx))
        self.scale = scale
        self.min_height = min(
            2.0 * t.signed_area() / max(t.edge_length(k) for k in range(3)) for t in tris
        )


_TABLES: weakref.WeakKeyDictionary[FlatSurface, _TraceTables] = weakref.WeakKeyDictionary()


def _trace_tables(surface: FlatSurface) -> _TraceTables:
    """The surface's trace tables, built on first use and kept while it lives."""
    tab = _TABLES.get(surface)
    if tab is None:
        tab = _TABLES[surface] = _TraceTables(surface)
    return tab


def trace(
    surface: FlatSurface,
    start: TangentDirection,
    max_length: float,
    vertex_clearance: float = DEFAULT_VERTEX_CLEARANCE,
) -> GeodesicTrace:
    """Trace the maximal strict geodesic from ``start`` up to ``max_length``.

    Raises ValueError for non-finite input and for a ``max_length`` whose
    step budget exceeds MAX_STEPS.
    """
    if not 0.0 < max_length < math.inf:
        raise ValueError("max_length must be positive and finite")
    if not surface.tolerance <= vertex_clearance < math.inf:
        raise ValueError("vertex_clearance must be finite and at least the surface tolerance")
    if not all(math.isfinite(x) for x in (*start.at.xy, *start.unit)):
        raise ValueError("start point and direction must be finite")
    tab = _trace_tables(surface)
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
    rows: list[float] = []  # chord rows, flattened; see GeodesicTrace
    step_budget = 50.0 * max_length / max(tab.min_height, 1e-9)
    if not step_budget <= MAX_STEPS:
        raise ValueError(f"max_length {max_length!r} needs more than {MAX_STEPS} steps")
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
            # Nothing ahead past t_eps.  A start on an edge pointing out of
            # the triangle crosses that edge at once; any other ray stops.
            for e in range(3 if entry_edge < 0 else 0):
                ax, ay, ux, uy, elen = tre[e]
                denom = ux * dy - uy * dx
                sx = px - ax
                sy = py - ay
                if denom < -1e-13 and abs(sx * uy - sy * ux) <= -denom * t_eps:
                    if -1e-9 * elen <= (sx * dy - sy * dx) / denom <= elen * (1.0 + 1e-9):
                        best_t = 0.0
                        best_edge = e
            if best_edge < 0:
                term = Termination(LEFT_DOMAIN, message="no forward edge crossing found")
                break

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
            rows += (tri_id, px, py, px + hit_tau * dx, py + hit_tau * dy, dx, dy, acc, hit_tau, -1)
            acc += hit_tau
            term = Termination(VERTEX_HIT, vertex=hit_class, parameter=acc)
            break
        if remaining <= best_t:
            rows += (tri_id, px, py, px + remaining * dx, py + remaining * dy, dx, dy, acc, remaining, -1)
            acc = max_length
            term = Termination(LENGTH_REACHED)
            break

        qx = px + best_t * dx
        qy = py + best_t * dy
        # Corner ties resolve as VertexHit regardless of curvature: the
        # transition choice at an exact corner is ambiguous.
        exit_edge = best_edge
        for k in (best_edge, (best_edge + 1) % 3):
            cxr, cyr = trc[k]
            ex2 = qx - cxr
            ey2 = qy - cyr
            if ex2 * ex2 + ey2 * ey2 < clearance2:
                exit_edge = -1
                break
        rows += (tri_id, px, py, qx, qy, dx, dy, acc, best_t, exit_edge)
        acc += best_t
        if exit_edge < 0:
            term = Termination(VERTEX_HIT, vertex=cls[dense][k], parameter=acc)
            break
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
    else:
        term = Termination(LEFT_DOMAIN, message="step budget exceeded")
    return GeodesicTrace._from_rows(norm_start, rows, acc, term)


def locate(trace_: GeodesicTrace, t: float) -> SurfacePoint:
    """Point at arc length t, by linear interpolation in the owning segment."""
    slack = 1e-9 * (1.0 + trace_.length)
    if not -slack <= t <= trace_.length + slack:
        raise ParameterOutOfRange(f"t={t!r} outside [0, {trace_.length!r}]")
    n = len(trace_.chords)
    if not n:
        raise ParameterOutOfRange("empty trace")
    t = min(max(t, 0.0), trace_.length)
    i = int(np.searchsorted(trace_.chords[:, 7], t, side="right")) - 1
    tri, ex, ey, _ox, _oy, dx, dy, t0, ln, _edge = trace_.chords[max(0, min(i, n - 1))].tolist()
    tau = min(max(t - t0, 0.0), ln)
    return SurfacePoint(int(tri), (ex + tau * dx, ey + tau * dy))


def truncate(trace_: GeodesicTrace, length: float) -> GeodesicTrace:
    """Prefix of a trace up to the given arc length."""
    if not length >= 0:
        raise ParameterOutOfRange(f"length {length!r} is negative or NaN")
    if length >= trace_.length:
        return trace_
    # The chords entered before ``length``; only the last can be cut short.
    rows = trace_.chords[: int(np.searchsorted(trace_.chords[:, 7], length, side="left"))]
    if len(rows):
        _tri, ex, ey, _ox, _oy, dx, dy, t0, seg_len, _edge = rows[-1].tolist()
        ln = min(seg_len, length - t0)
        if ln < seg_len:
            rows = rows.copy()
            rows[-1, 3:5] = (ex + ln * dx, ey + ln * dy)
            rows[-1, 8:] = (ln, -1)
    return GeodesicTrace._from_rows(trace_.start, rows, length, Termination(LENGTH_REACHED))


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
    rows = trace_.chords.tolist()
    for row in rows:
        tri, edge = int(row[0]), int(row[9])
        placements.append((tri, iso))
        if edge >= 0:
            _, step = surface.edge_transition(tri, edge)
            iso = iso.compose(step.inverse())
    if not rows:
        p = trace_.start.at.xy
        return placements, p, p
    first, last = rows[0], rows[-1]
    return placements, (first[1], first[2]), placements[-1][1].apply((last[3], last[4]))


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
    if not len(fwd.chords):
        return 0.0
    tri, _ex, _ey, ox, oy, dx, dy, _t0, _ln, _edge = fwd.chords[-1].tolist()
    back_start = TangentDirection(SurfacePoint(int(tri), (ox, oy)), (-dx, -dy))
    bwd = trace(surface, back_start, length, vertex_clearance)
    if bwd.termination.kind != LENGTH_REACHED:
        raise TraceIncomplete(f"backward trace ended with {bwd.termination.kind}")
    tri, _ex, _ey, ox, oy, dx, dy, _t0, _ln, _edge = bwd.chords[-1].tolist()
    reps = tangent_representatives(surface, SurfacePoint(int(tri), (ox, oy)), (dx, dy), tol=1e-6)
    sx, sy = start.at.xy
    best = math.inf
    for tri_id, xy, _v in reps:
        if tri_id == start.at.tri:
            best = min(best, math.hypot(xy[0] - sx, xy[1] - sy))
    return best


def check_trace(surface: FlatSurface, trace_: GeodesicTrace) -> None:
    """Assert segment chaining, direction transport and length bookkeeping,
    points and lengths to within CHECK_TOL and directions to within 1e-6."""
    total = 0.0
    for i, seg in enumerate(trace_.segments):
        v = (seg.exit[0] - seg.entry[0], seg.exit[1] - seg.entry[1])
        ln = math.hypot(v[0], v[1])
        assert abs(ln - seg.length) <= CHECK_TOL * (1 + ln), "segment length mismatch"
        if ln > CHECK_TOL:
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
                math.hypot(img[0] - nxt.entry[0], img[1] - nxt.entry[1]) <= CHECK_TOL
            ), "chained entry point mismatch"
            dimg = iso.apply_vector(seg.direction)
            assert (
                math.hypot(dimg[0] - nxt.direction[0], dimg[1] - nxt.direction[1]) <= 1e-6
            ), "direction transport mismatch"
    assert abs(total - trace_.length) <= CHECK_TOL * (1 + trace_.length), "length sum mismatch"
