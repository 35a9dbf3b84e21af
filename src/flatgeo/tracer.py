"""Strict geodesic tracing by iterated edge transitions.

A trace advances a straight line through the current chart, applies the
gluing transition at the boundary, and repeats.  Cone points terminate
the trace: continuations through a conical point branch, so the tracer
refuses to choose.  A pass within ``vertex_clearance`` of a cone point
reports a vertex hit; an exact corner passage reports one for any
vertex class (flat marked points included) because the transition there
is ill-conditioned.

One step of ``trace`` reads ``_TraceTables``: for the edge the chord came
in by, the opposite corner with the exit candidate on each side of it and
the candidate loop's edges; the chart's cone corners only; the two corners
of the exit edge; and one tuple per crossing with the transition and the
target edge to snap onto.  A step records its chord's row of
``GeodesicTrace.chords``, ten values: the exit point as the step computed
it and t0 as the running sum of lengths.  The side test and the corner
window keep every chord bit-identical to the loop that tests every edge
and every corner; both are proved below.

The exit edge comes from one corner test.  A chord that entered the
counterclockwise triangle ABV by edge AB leaves by BV or VA.  The step
computes ``cr = (vx - px) * dy - (vy - py) * dx``, the cross product of
``V - p`` with d.  When ``cr < -side`` (V left of the chord) it evaluates
only X = BV, when ``cr > side`` only X = VA, with the candidate loop's
``denom``, t and s expressions, and takes X when it passes the loop's
tests with the stricter parallel guard ``|denom| >= 1e-3``.  Otherwise
the loop over both candidates runs (the fallback); it also runs for the
start step and for a step whose entry point was snapped within ``glo``
of A or ``|AB| - ghi`` of B, whose table entries carry a NaN corner.  The
loop would return X's t too, because the other candidate Y fails a test.
With u = 2**-53, S = ``scale``, ``side = 2e-9 * (1 + S)`` and each
computed cross product within ``3u |w|`` of the exact one for its
difference vector w (``|d| = 1`` and the unit edge vectors to 2u):

- When d points into the triangle's side of Y's line, Y's crossing lies
  behind p, and the computed t says so.  The entry point is ``p = A + s * (unit AB)`` rounded, within
  ``6u (|A| + S)`` of segment AB, with s at least ``g = 2**-40 (|A| + S) /
  sin(angle at A)`` from A (and likewise from B).  So p lies inside VA
  and BV by more than ``g sin(angle) - 10u (|A| + S)``, far above the
  ``3u S`` error of Y's t numerator ``(p - a) x u_Y``, and the computed t
  has the exact sign: ``t <= 0 < t_eps``.  (Y's ``denom`` has its exact
  sign too: ``|denom| >= 1e-13`` against an error of 3u.)
- ``cr < -side``: Y = VA starts at V, so Y's s numerator is exactly
  ``-cr`` (rounding is odd-symmetric), and ``|s| >= side / (1 + 6u) >
  1e-9 |VA| >= -lo``.  A negative s fails ``lo <= s``; a positive s has
  ``denom > 0``, d pointing into the triangle's side of VA, so t fails.
- ``cr > side``: Y = BV ends at V.  If ``denom > 0``, t fails as above.
  If ``denom < 0``, ``f(s) = (B + s u_Y - p) x d`` falls from f(0) to
  ``f(|BV|) >= cr - 6uS``, so Y's s numerator ``-f(0)`` is at most
  ``-(|BV| |denom| + side - 6uS)`` and its error 3uS, ``denom``'s 3u; the
  computed s then exceeds ``hi = |BV| (1 + 1e-9)`` as soon as ``side >
  1e-9 S + 16u S``.

The corner tests run only in the corner window.  The cone test of a step
clamps ``tau = w . d`` to ``[0, eff]``, for each cone corner c of the
chart, ``w = c - p`` and ``eff`` the length travelled, and compares ``|w
- tau d|**2`` with ``clearance2 = vertex_clearance**2``; the tie test
compares ``|q - c|**2`` with ``clearance2`` for the exit point ``q = p +
t d`` and both ends c of the exit edge X.  A step runs the two only when
its exit parameter s or that of the step before lies outside ``(W, |X| -
W)``, with R the largest corner norm, sin_min the smallest sine of any
corner angle, ``tie_lo = vertex_clearance + 1e-15 (vertex_clearance + R)
+ 1e-11 (1 + S)`` and ``W = 4 (2 vertex_clearance + tie_lo) / sin_min +
1e-9 (1 + S)``.  A fallback step records ``s = -1``, so it and the step
after it always run them.  A skipped test would not have fired:

- Lemma.  Let a chord of triangle ABV run from p on AB to q on BV (on VA,
  swap A and B), each at least m from both ends of its edge.  It stays at
  least ``sin_min m / 2`` from every corner.  The distance from B to line
  pq is ``|Bp| |Bq| sin B / |pq|``, at least ``sin B min(|Bp|, |Bq|) /
  2`` as ``|pq| <= |Bp| + |Bq|``.  The angle Apq is pi less the angle
  Bpq, so it exceeds B (the angles of Bpq sum to pi); if it is obtuse, p
  is the chord's point nearest A, else A lies ``|Ap| sin(Apq) >= m sin
  B`` from the chord.  V is A's case seen from q.  A chord that stops
  short, ``eff < t``, is a part of pq.
- The exit end.  For X's start a, ``w = p - a`` and exact ``denom``, t and
  s numerators, ``p + t d = a + s u_X`` holds exactly; with the computed
  ones the two points differ by ``(w e_D - E) / denom`` (e_D the 3u error
  of denom, E the ``6u |w|`` errors of the numerators), so by at most ``9u
  S / 1e-3`` in the fast path, where the rounding of t, s and of ``|X|
  u_X`` against the far corner adds under ``10u S``.  The parallel guard
  is what bounds it: s's error grows as ``1 / |denom|``, so a chord nearly
  parallel to X goes to the fallback.  So ``p + t d`` lies within ``e =
  1.1e-12 S`` of a point of X that is more than W from both its ends.
- The tie test.  The computed q carries a further ``2u (R + 2S)``, and
  the squared distance test ``< clearance2`` rounds by ``4u``.  So an s
  inside ``(tie_lo, |X| - tie_lo)`` keeps q more than ``vertex_clearance
  (1 + 3u)`` from both ends of X, where the tie test cannot fire:
  ``1e-11 (1 + S) > 9.03e3 u S`` and ``1e-15 > 5u``.  ``W > tie_lo``, as
  ``sin_min <= 1``.
- The entry end.  The step before left by an edge X' of its chart at a
  computed q within ``e + 2u (R + 2S)`` of a point of X' more than W from
  its ends.  The surface build checks each gluing's transition to map the
  ends of the glued edge within ``1e-9 + tolerance`` of those of AB (the
  stored inverse within ``12u R`` more), and the two lengths differ by at
  most tolerance, so that point maps within ``1e-9 + tolerance + 12u R``
  of a point of AB more than ``W - tolerance / 2`` from A and B.  Applying
  the transition, projecting onto AB and snapping add under ``8u (R +
  S)``.  So p lies within ``e + 10u (R + S)`` of a point of AB more than
  ``W - 1.5 tolerance - 1e-9 - 12u R`` from A and B, and ``tolerance <=
  vertex_clearance``.
- The cone test.  The chord from p to ``p + t d`` lies within ``e + 10u
  (R + S)`` of the one between those points of AB and X, so by the lemma
  every point ``p + tau d`` of it, tau in ``[0, eff]``, lies at least
  ``sin_min (W - 1.5 vertex_clearance - 1e-9 - 12u R) / 2 - e - 10u (R +
  S) > 5 vertex_clearance + 1e-11 (1 + S)`` from every corner.  The
  computed ``(rx, ry)`` is within ``3u |w|`` of ``w - tau d`` for the
  clamped tau, with ``|w| <= S`` (rounded) for p on an edge of the chart,
  and ``rx * rx + ry * ry`` rounds to at least ``clearance2`` once ``|(rx,
  ry)| >= vertex_clearance (1 + 2u)``.
"""
from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterOutOfRange, PointOutsideTriangle, TraceIncomplete, float_arg, int_arg
from .geometry import PlaneIsometry, Vec, normalize, point_segment_distance
from .surface import FlatSurface, Triangle

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
# check_trace's bound on chord and transported directions (unit vectors).
CHECK_DIRECTION_TOL = 1e-6
# locate accepts arc lengths this far outside [0, length], relative to 1 + length.
LOCATE_SLACK = 1e-9

LENGTH_REACHED = "length_reached"
VERTEX_HIT = "vertex_hit"
LEFT_DOMAIN = "left_domain"


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
    vertex: int | None = None  # vertex class index for VERTEX_HIT
    parameter: float | None = None
    message: str | None = None


@dataclass(frozen=True, eq=False)
class GeodesicTrace:
    """A traced geodesic, read as one read-only ``(n, 10)`` float64 array.

    Row k of ``chords`` is the k-th chord: triangle id, entry x/y, exit
    x/y, unit direction x/y, arc parameter t0 at entry, length, and the
    edge crossed at the exit (-1 where the trace stops).  ``_rows`` holds
    the rows' values in one flat list, ten per chord, as ``trace`` and
    ``flatgeo.jsonio`` write them, until ``chords`` is first read; it then
    holds them as a flat read-only array.  ``_from_rows`` makes a trace of
    ``(n, 10)`` rows.  ``index``, the ChordIndex that ``flatgeo.analysis``
    reads, is built from the rows on first read; ``_prefix_index`` builds
    the index of a first part of an unread list alone.  ``segments``, the
    rows as TraceSegment objects, is built only for callers that read it;
    nothing in the package does.
    """

    start: TangentDirection
    length: float
    termination: Termination
    _rows: np.ndarray | list[float] = field(repr=False)

    @classmethod
    def _from_rows(cls, start, rows, length: float, termination: Termination) -> GeodesicTrace:
        """A trace over ``rows``, an ``(n, 10)`` array or nested list."""
        flat = np.array(rows, dtype=np.float64).reshape(-1)
        flat.flags.writeable = False
        return cls(start, length, termination, flat)

    @cached_property
    def chords(self) -> np.ndarray:
        """The chord rows; a list of values becomes an array on first read."""
        rows = self._rows
        if isinstance(rows, list):
            rows = np.fromiter(rows, np.float64, len(rows))
            rows.flags.writeable = False
            object.__setattr__(self, "_rows", rows)
        return rows.reshape(-1, 10)

    def _end(self) -> tuple[int, Vec, Vec]:
        """The last chord's triangle id, exit point and direction, read
        from ``_rows`` as it stands, so no array is built."""
        tri, _ex, _ey, ox, oy, dx, dy = self._rows[-10:-3]
        return int(tri), (ox, oy), (dx, dy)

    @cached_property
    def segments(self) -> tuple[TraceSegment, ...]:
        return tuple(
            TraceSegment(
                int(tri), (ex, ey), (ox, oy), (dx, dy), t0, ln, None if edge < 0 else int(edge)
            )
            for tri, ex, ey, ox, oy, dx, dy, t0, ln, edge in self.chords.tolist()
        )

    def _prefix_index(self, end: float) -> ChordIndex | None:
        """The ChordIndex of the chords entering before ``end``, built
        from the list of values alone, when some chart of them holds two
        direction classes (a chord off its chart's first direction by the
        class rule's own test) and later chords follow; else None, and
        always None once the array is built."""
        values = self._rows
        if not isinstance(values, list):
            return None
        k = 10 * bisect.bisect_left(values[7::10], end)
        if k == len(values):
            return None
        tol = PROPER_ANGLE_TOL / 4
        firsts: dict[float, tuple[float, float]] = {}
        for tri, dx, dy in zip(values[0:k:10], values[5:k:10], values[6:k:10]):
            fx, fy = firsts.setdefault(tri, (dx, dy))
            if abs(dx * fy - dy * fx) > tol:
                rows = np.fromiter(values[:k], np.float64, k).reshape(-1, 10)
                return _chord_index(rows[:, 0], rows.T[[1, 2, 5, 6, 8, 7]])
        return None

    @cached_property
    def index(self) -> ChordIndex:
        """The chords chart after chart, with their direction classes."""
        rows = self.chords
        return _chord_index(rows[:, 0], rows.T[[1, 2, 5, 6, 8, 7]])


@dataclass(frozen=True, eq=False)
class ChordIndex:
    """A trace's chords chart after chart, grouped by direction class.

    Charts come in order of first appearance: chart c is triangle
    ``tris[c]``, its chords are rows ``rows[c]:rows[c + 1]`` in trace
    order, and ``chart`` is each row's chart.  ``cols`` holds each row's
    ``(px, py, dx, dy, L, t0)``.  A class is the chords of one chart with
    ``|D x d| <= PROPER_ANGLE_TOL / 4``, d the first chord in trace order
    not in an earlier class, with normal ``perp(d)`` and spread the largest
    such cross product; a chart of more than MAX_CLASSES is one wide class
    of spread 1 (``wide[c]``).  Classes are numbered chart after chart,
    chart c's being ``classes[c]:classes[c + 1]``, and ``label`` is each
    row's.  ``pmax[c]`` is chart c's largest ``|px|`` or ``|py|``.
    ``bands``, the sorted offsets that density reads, is built on first
    read.  ``_chord_index`` builds it from a trace's rows; the
    first-crossing search also builds one over the rows of a trace's first
    part alone.
    """

    tris: np.ndarray
    rows: np.ndarray
    chart: np.ndarray
    cols: np.ndarray
    label: np.ndarray
    classes: np.ndarray
    wide: np.ndarray
    pmax: np.ndarray
    normals: np.ndarray
    spreads: np.ndarray

    @cached_property
    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(keys, order, bounds)``: ``keys = label + 1j *
        normal.P``, sorted by class, then offset (numpy orders complex
        numbers lexicographically), are the keys of rows ``order``; class
        g's are ``keys[bounds[g]:bounds[g + 1]]``."""
        label, normals, cols = self.label, self.normals, self.cols
        keys = label + 1j * (normals[label, 0] * cols[0] + normals[label, 1] * cols[1])
        order = np.argsort(keys, kind="stable")
        out = (keys[order], order, np.append(0, np.cumsum(np.bincount(label, minlength=len(normals)))))
        for a in out:
            a.flags.writeable = False
        return out


def _chord_index(tri: np.ndarray, cols: np.ndarray) -> ChordIndex:
    """The ChordIndex of chords in trace order, given by their triangle
    ids ``tri`` and the ``(6, n)`` columns ``(px, py, dx, dy, L, t0)``.
    Each round of the class rule seeds a class in every chart that still
    has chords without one."""
    n = len(tri)
    # Each triangle's chords in trace order, then the triangles by first chord.
    by_tri = np.argsort(tri, kind="stable")
    heads = np.flatnonzero(np.diff(tri[by_tri], prepend=np.nan))
    seq = np.argsort(by_tri[heads])
    sizes = np.diff(np.append(heads, n))[seq]
    rows = np.append(0, np.cumsum(sizes))
    perm = by_tri[np.arange(n) + np.repeat(heads[seq] - rows[:-1], sizes)]
    chart = np.repeat(np.arange(len(sizes)), sizes)
    cols = cols[:, perm]
    dx, dy = cols[2], cols[3]
    label = np.full(n, -1)
    ncls = np.zeros(len(sizes), dtype=np.int64)
    wide = np.zeros(len(sizes), dtype=bool)
    rounds = []  # per round: the charts seeding a class, its normals and spreads
    free = np.arange(n)
    while len(free):
        head = np.flatnonzero(np.diff(chart[free], prepend=-1))
        seed = free[head]
        owners = chart[seed]
        if len(rounds) == MAX_CLASSES:
            wide[owners] = True
            break
        reps = np.diff(np.append(head, len(free)))
        cross = np.abs(dx[free] * np.repeat(dy[seed], reps) - dy[free] * np.repeat(dx[seed], reps))
        mine = cross <= PROPER_ANGLE_TOL / 4
        label[free[mine]] = len(rounds)
        ncls[owners] += 1
        rounds.append((owners, -dy[seed], dx[seed], np.maximum.reduceat(np.where(mine, cross, 0.0), head)))
        free = free[~mine]
    ncls[wide] = 1
    label[wide[chart]] = 0
    classes = np.append(0, np.cumsum(ncls))
    label += classes[chart]
    normals, spreads = np.empty((classes[-1], 2)), np.empty(classes[-1])
    for r, (owners, nx, ny, spread) in enumerate(rounds):
        k = np.flatnonzero(r < ncls[owners])
        g = classes[owners[k]] + r
        normals[g, 0], normals[g, 1], spreads[g] = nx[k], ny[k], spread[k]
    spreads[classes[:-1][wide]] = 1.0
    ix = ChordIndex(
        tris=tri[perm[rows[:-1]]].astype(np.int64),
        rows=rows,
        chart=chart,
        cols=cols,
        label=label,
        classes=classes,
        wide=wide,
        pmax=np.maximum.reduceat(np.maximum(np.abs(cols[0]), np.abs(cols[1])), rows[:-1]),
        normals=normals,
        spreads=spreads,
    )
    for a in vars(ix).values():
        a.flags.writeable = False
    return ix


class _TraceTables:
    """Per-triangle data for the step loop, as plain floats in tuples, and
    for density, as arrays.

    Rows are indexed by dense triangle index.  ``exits[i][entry]`` is ``(vx,
    vy, neg, pos, cands)`` for a chord that entered triangle i through edge
    ``entry``: the corner v opposite that edge, the exit candidate on each
    side of it (``neg`` is edge ``entry + 1``, taken when v lies left of
    the chord, ``pos`` edge ``entry + 2``), and the fallback candidates,
    the two other edges in index order.  Index ``entry + 3`` holds the same
    candidates behind a NaN corner, for a chord that entered near an end of
    its edge, and index -1 (the seventh) all three for a start point: a NaN
    corner fails both side tests, so those steps always run the fallback.
    Each candidate is ``(e, ax, ay, ux, uy, lo, hi, length)``: the edge's
    start, unit direction, the bounds ``-1e-9 * length`` and ``length *
    (1.0 + 1e-9)`` that the crossing parameter must meet, and its length.
    ``cones[i]`` holds ``(cx, cy, class)`` of the triangle's cone corners
    only; ``ties[i][e]`` holds that triple for both ends of edge e, cone or
    flat.  ``crossings[i][e]`` is ``(tgt, tgt_id, tgt_edge, m00, m01, m10,
    m11, tx, ty, ax, ay, ux, uy, length, glo, ghi)``: the triangle (dense
    index, and id as the float a chord row holds) and edge that edge e is
    glued to, the chart-to-chart isometry, the target edge's start, unit
    direction and length, to which the crossing point is snapped, and the
    snap parameters ``(glo, ghi)`` at least ``2**-40 * (|c| + scale) /
    sin(angle at c)`` from either end c, between which the next step may
    take the side test.  ``sin_min`` is the smallest sine of any corner
    angle.  Density reads the cumulative area
    probabilities ``cdf``, as ``Generator.choice`` computes them, the
    corners ``corner_xy`` (3, 2, T), and each edge's target triangle
    ``targets`` (T, 3) and isometry matrix ``mats`` (T, 3, 6).
    """

    def __init__(self, surface: FlatSurface):
        tris = surface.triangles
        self.id2dense = {t.id: i for i, t in enumerate(tris)}
        lengths = [[t.edge_length(k) for k in range(3)] for t in tris]
        norms = [[math.hypot(*c) for c in t.corners] for t in tris]
        self.scale = max(map(max, lengths))
        self.reach = max(map(max, norms))
        self.exits = []
        self.cones = []
        self.ties = []
        snap = []  # per tri: 3 x (ax, ay, ux, uy, length, glo, ghi)
        heights = []
        cosecs = []  # 1 / sin(angle at c) of every corner c
        for t, lns, cn in zip(tris, lengths, norms):
            # 2**-40 * (|c| + scale) / sin(angle at c); the sine is twice
            # the area over the product of c's two edge lengths.
            area2 = 2.0 * t.signed_area()
            heights.append(area2 / max(lns))
            cosec = [lns[k - 1] * lns[k] / area2 for k in range(3)]
            cosecs += cosec
            guard = [2.0**-40 * (cn[k] + self.scale) * cosec[k] for k in range(3)]
            cands = []
            for k in range(3):
                a = t.edge_start(k)
                v = t.edge_vector(k)
                ln = lns[k]
                snap.append((a[0], a[1], v[0] / ln, v[1] / ln, ln, guard[k], ln - guard[(k + 1) % 3]))
                cands.append((k, *snap[-1][:4], -1e-9 * ln, ln * (1.0 + 1e-9), ln))
            c0, c1, c2 = cands
            near = ((c1, c2), (c0, c2), (c0, c1))
            opposite = [t.corners[(k + 2) % 3] for k in range(3)]
            self.exits.append(
                tuple((*opposite[k], cands[(k + 1) % 3], cands[(k + 2) % 3], near[k]) for k in range(3))
                + tuple((math.nan, math.nan, None, None, near[k]) for k in range(3))
                + ((math.nan, math.nan, None, None, cands),)
            )
            k0, k1, k2 = corners = [(*t.corners[k], surface.corner_class[(t.id, k)]) for k in range(3)]
            self.cones.append(tuple(c for c in corners if surface.vertex_classes[c[2]].is_cone))
            self.ties.append(((k0, k1), (k1, k2), (k2, k0)))
        self.crossings = []
        for t in tris:
            row = []
            for k in range(3):
                ref, iso = surface.edge_transition(t.id, k)
                tgt = self.id2dense[ref.tri]
                row.append((tgt, float(ref.tri), ref.edge, *iso.matrix(), *snap[3 * tgt + ref.edge]))
            self.crossings.append(tuple(row))
        areas = np.array([t.signed_area() for t in tris])
        self.cdf = (areas / areas.sum()).cumsum()
        self.cdf /= self.cdf[-1]
        self.corner_xy = np.array(snap)[:, :2].reshape(-1, 3, 2).transpose(1, 2, 0).copy()
        glued = [[surface.edge_transition(t.id, k) for k in range(3)] for t in tris]
        self.targets = np.array([[self.id2dense[ref.tri] for ref, _iso in row] for row in glued])
        self.mats = np.array([[iso.matrix() for _ref, iso in row] for row in glued])
        self.min_height = min(heights)
        self.sin_min = 1.0 / max(cosecs)


_TABLES: weakref.WeakKeyDictionary[FlatSurface, _TraceTables] = weakref.WeakKeyDictionary()


def _trace_tables(surface: FlatSurface) -> _TraceTables:
    """The surface's trace tables, built on first use and kept while it lives."""
    tab = _TABLES.get(surface)
    if tab is None:
        tab = _TABLES[surface] = _TraceTables(surface)
    return tab


def _triangle(surface: FlatSurface, tri: int) -> Triangle:
    """``surface.triangle(tri)``; PointOutsideTriangle if there is none."""
    if not surface.has_triangle(tri):
        raise PointOutsideTriangle(f"no triangle with id {tri}")
    return surface.triangle(tri)


def trace(
    surface: FlatSurface,
    start: TangentDirection,
    max_length: float,
    vertex_clearance: float = DEFAULT_VERTEX_CLEARANCE,
) -> GeodesicTrace:
    """Trace the maximal strict geodesic from ``start`` up to ``max_length``.

    Raises ValueError for a bool, non-finite or out-of-range argument and
    for a ``max_length`` whose step budget exceeds MAX_STEPS.
    """
    max_length = float_arg("max_length", max_length)
    vertex_clearance = float_arg("vertex_clearance", vertex_clearance, surface.tolerance)
    if not all(math.isfinite(x) for x in (*start.at.xy, *start.unit)):
        raise ValueError("start point and direction must be finite")
    tri0 = _triangle(surface, int_arg("start triangle", start.at.tri))
    tab = _trace_tables(surface)
    tol_pt = surface.tolerance * (1.0 + tab.scale)
    if not tri0.contains(start.at.xy, tol=tol_pt * 10):
        raise PointOutsideTriangle(f"start point {start.at.xy} outside triangle {start.at.tri}")
    dx, dy = normalize(start.unit)
    norm_start = TangentDirection(start.at, (dx, dy))

    dense, tid = tab.id2dense[start.at.tri], float(tri0.id)
    px, py = float(start.at.xy[0]), float(start.at.xy[1])
    entry_edge = -1
    remaining = max_length
    t0 = 0.0
    clearance2 = vertex_clearance * vertex_clearance
    t_eps = 1e-13 * (1.0 + tab.scale)
    step_budget = 50.0 * max_length / max(tab.min_height, 1e-9)
    if not step_budget <= MAX_STEPS:
        raise ValueError(f"max_length {max_length!r} needs more than {MAX_STEPS} steps")
    max_steps = int(step_budget) + 10000

    # The side test's margin and the corner window (see the module docstring).
    side = 2e-9 * (1.0 + tab.scale)
    nside = -side
    tie_lo = vertex_clearance + 1e-15 * (vertex_clearance + tab.reach) + 1e-11 * (1.0 + tab.scale)
    window = 4.0 * (2.0 * vertex_clearance + tie_lo) / tab.sin_min + 1e-9 * (1.0 + tab.scale)
    was_near = True
    exits = tab.exits
    cones = tab.cones
    ties = tab.ties
    crossings = tab.crossings
    rows: list[float] = []  # ten values per chord, flattened: GeodesicTrace.chords

    for _ in range(max_steps):
        # Exit through the candidate on the far side of the opposite corner
        # v; the fallback loop takes the nearest forward edge crossing.
        vx, vy, neg, pos, cands = exits[dense][entry_edge]
        cr = (vx - px) * dy - (vy - py) * dx
        best_edge = -1
        if cr > side or cr < nside:
            e, ax, ay, ux, uy, lo, hi, ln = pos if cr > 0.0 else neg
            denom = ux * dy - uy * dx
            if not -1e-3 < denom < 1e-3:
                sx = px - ax
                sy = py - ay
                best_t = (sx * uy - sy * ux) / denom
                best_s = (sx * dy - sy * dx) / denom
                if best_t > t_eps and lo <= best_s <= hi:
                    best_edge = e
        if best_edge < 0:
            best_t = math.inf
            best_s = -1.0  # outside every corner window: the corner tests run
            for e, ax, ay, ux, uy, lo, hi, _ln in cands:
                denom = ux * dy - uy * dx
                if -1e-13 < denom < 1e-13:
                    continue
                sx = px - ax
                sy = py - ay
                t = (sx * uy - sy * ux) / denom
                if t <= t_eps or t >= best_t:
                    continue
                s = (sx * dy - sy * dx) / denom
                if lo <= s <= hi:
                    best_t = t
                    best_edge = e
            if best_edge < 0:
                # Nothing ahead past t_eps.  A start on an edge pointing out of
                # the triangle crosses that edge at once; any other ray stops.
                if entry_edge < 0:
                    for e, ax, ay, ux, uy, lo, hi, _ln in cands:
                        denom = ux * dy - uy * dx
                        sx = px - ax
                        sy = py - ay
                        if denom < -1e-13 and abs(sx * uy - sy * ux) <= -denom * t_eps:
                            if lo <= (sx * dy - sy * dx) / denom <= hi:
                                best_t = 0.0
                                best_edge = e
                if best_edge < 0:
                    term = Termination(LEFT_DOMAIN, message="no forward edge crossing found")
                    break

        near = not window < best_s < ln - window
        if near or was_near:
            # Only a chord that starts or ends near a corner can pass one
            # (see the module docstring).  Cone-point clearance along the
            # chord actually travelled:
            eff = best_t if best_t < remaining else remaining
            hit_tau = None
            for cx, cy, ci in cones[dense]:
                wx = cx - px
                wy = cy - py
                tau = wx * dx + wy * dy
                if tau < 0.0:
                    tau = 0.0
                elif tau > eff:
                    tau = eff
                rx = wx - tau * dx
                ry = wy - tau * dy
                if rx * rx + ry * ry < clearance2 and (hit_tau is None or tau < hit_tau):
                    hit_tau = tau
                    vertex = ci
            if hit_tau is None and best_t < remaining:
                # Corner ties resolve as vertex hits regardless of curvature:
                # the transition choice at an exact corner is ambiguous.  The
                # chord ends at the corner.
                qx = px + best_t * dx
                qy = py + best_t * dy
                for cx, cy, ci in ties[dense][best_edge]:
                    ex2 = qx - cx
                    ey2 = qy - cy
                    if ex2 * ex2 + ey2 * ey2 < clearance2:
                        hit_tau = best_t
                        vertex = ci
                        break
            if hit_tau is not None:
                rows += (tid, px, py, px + hit_tau * dx, py + hit_tau * dy, dx, dy, t0, hit_tau, -1)
                t0 += hit_tau
                term = Termination(VERTEX_HIT, vertex=vertex, parameter=t0)
                break
        if remaining <= best_t:
            rows += (tid, px, py, px + remaining * dx, py + remaining * dy, dx, dy, t0, remaining, -1)
            term = Termination(LENGTH_REACHED)
            break

        qx = px + best_t * dx
        qy = py + best_t * dy
        rows += (tid, px, py, qx, qy, dx, dy, t0, best_t, best_edge)
        t0 += best_t
        was_near = near
        remaining -= best_t

        dense, tid, entry_edge, m00, m01, m10, m11, tx, ty, ax, ay, ux, uy, elen, glo, ghi = crossings[dense][best_edge]
        npx = m00 * qx + m01 * qy + tx
        npy = m10 * qx + m11 * qy + ty
        ndx = m00 * dx + m01 * dy
        ndy = m10 * dx + m11 * dy
        n = math.hypot(ndx, ndy)
        dx, dy = ndx / n, ndy / n
        # Snap onto the target edge to kill perpendicular drift.  An entry
        # point near an end of its edge sends the next step to the fallback.
        s = (npx - ax) * ux + (npy - ay) * uy
        if not glo < s < ghi:
            if s < 0.0:
                s = 0.0
            elif s > elen:
                s = elen
            entry_edge += 3
        px = ax + s * ux
        py = ay + s * uy
    else:
        term = Termination(LEFT_DOMAIN, message="step budget exceeded")
    # An early stop ends where its rows end: t0 is then their length.
    return GeodesicTrace(norm_start, max_length if term.kind == LENGTH_REACHED else t0, term, rows)


def locate(trace_: GeodesicTrace, t: float) -> SurfacePoint:
    """Point at arc length t, by linear interpolation in the owning segment."""
    slack = LOCATE_SLACK * (1.0 + trace_.length)
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
    segment.  Raises ValueError if a chord before the last records no
    exit edge, as in a trace read from JSON, and PointOutsideTriangle if a
    chord's triangle is not on the surface.
    """
    placements: list[tuple[int, PlaneIsometry]] = []
    iso = PlaneIsometry.identity()
    rows = trace_.chords.tolist()
    for k, row in enumerate(rows):
        tri, edge = _triangle(surface, int(row[0])).id, int(row[9])
        placements.append((tri, iso))
        if k + 1 < len(rows):
            if edge < 0:
                raise ValueError(f"chord {k} records no exit edge, so the trace cannot be unfolded")
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
    tol: float,
) -> list[tuple[int, Vec, Vec]]:
    """All chart representations (tri, point, vector) of a surface tangent.

    Includes the chart itself, charts one gluing away when the point lies
    within ``tol`` of an edge, and the full corner fan when it lies within
    ``tol`` of a corner.  Fan directions for cone corners depend on the
    walk path and are only meaningful for flat marked points.
    """
    tri = _triangle(surface, point.tri)
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
        c = tri.corners[k]
        if math.hypot(point.xy[0] - c[0], point.xy[1] - c[1]) <= tol:
            # The fan's last chart is the start chart again, already listed.
            for tri_id, _corner, iso in list(surface.corner_fan(point.tri, k))[:-1]:
                add(tri_id, iso.apply(point.xy), iso.apply_vector(vector))
    return reps


def reverse_check(surface: FlatSurface, start: TangentDirection, length: float) -> float:
    """Round-trip residual: trace forward, trace back, measure the gap.

    Raises TraceIncomplete if either leg terminates before ``length``.  A
    leg that reaches ``length`` has at least one chord, as ``length`` is
    positive and the first step records what remains of it; each leg's end
    is read from its last row's values, so neither leg builds its array.
    """
    fwd = trace(surface, start, length)
    if fwd.termination.kind != LENGTH_REACHED:
        raise TraceIncomplete(f"forward trace ended with {fwd.termination.kind}")
    tri, (ox, oy), (dx, dy) = fwd._end()
    back_start = TangentDirection(SurfacePoint(tri, (ox, oy)), (-dx, -dy))
    bwd = trace(surface, back_start, length)
    if bwd.termination.kind != LENGTH_REACHED:
        raise TraceIncomplete(f"backward trace ended with {bwd.termination.kind}")
    tri, end, d = bwd._end()
    reps = tangent_representatives(surface, SurfacePoint(tri, end), d, tol=1e-6)
    sx, sy = start.at.xy
    best = math.inf
    for tri_id, xy, _v in reps:
        if tri_id == start.at.tri:
            best = min(best, math.hypot(xy[0] - sx, xy[1] - sy))
    return best


def check_trace(surface: FlatSurface, trace_: GeodesicTrace) -> None:
    """Assert chord chaining, direction transport and length bookkeeping
    over the rows of ``trace_.chords``, points and lengths to within
    CHECK_TOL and directions to within CHECK_DIRECTION_TOL.
    Every chord before the last must record the edge it leaves by."""
    rows = trace_.chords.tolist()
    total = 0.0
    for i, (tri, ex, ey, ox, oy, dx, dy, _t0, length, edge) in enumerate(rows):
        v = (ox - ex, oy - ey)
        ln = math.hypot(v[0], v[1])
        assert abs(ln - length) <= CHECK_TOL * (1 + ln), "segment length mismatch"
        if ln > CHECK_TOL:
            off = math.hypot(v[0] / ln - dx, v[1] / ln - dy)
            assert off <= CHECK_DIRECTION_TOL, "direction disagrees with chord"
        total += length
        if i + 1 < len(rows):
            assert edge >= 0, "chord before the last records no exit edge"
            ntri, nex, ney, _nox, _noy, ndx, ndy = rows[i + 1][:7]
            ref, iso = surface.edge_transition(int(tri), int(edge))
            assert ref.tri == ntri, "transition target mismatch"
            img = iso.apply((ox, oy))
            assert math.hypot(img[0] - nex, img[1] - ney) <= CHECK_TOL, "chained entry point mismatch"
            dimg = iso.apply_vector((dx, dy))
            off = math.hypot(dimg[0] - ndx, dimg[1] - ndy)
            assert off <= CHECK_DIRECTION_TOL, "direction transport mismatch"
    assert abs(total - trace_.length) <= CHECK_TOL * (1 + trace_.length), "length sum mismatch"
