"""Self-intersection detection, density estimation, and angle audits.

Both scans read one index per trace, its chords grouped by chart and then
by projective direction class (``GeodesicTrace.classes``).  Only pairs of
different classes, or in a wide class, can cross; they are tested at once
with numpy and the events sorted and merged as the columns of an
``IntersectionEvents`` sequence, which builds an ``IntersectionEvent``
only when one is read.  A scan needs only the earliest crossing, found in
time-ordered windows of the chords.  Density joins every chart's classes
into one sorted key array per trace: each sample is measured against the
two chords nearest its offset first, and only the samples still
uncovered against the chords in their band of each class.  This module is
the performance core.
"""
from __future__ import annotations

import functools
import math
import numbers
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentMidpoints, NotConvex
from .geometry import PlaneIsometry, Vec, fold_to_half_turn, unsigned_angle
from .surface import FlatSurface
from .tracer import (
    DEFAULT_VERTEX_CLEARANCE,
    LENGTH_REACHED,
    PROPER_ANGLE_TOL,
    GeodesicTrace,
    SurfacePoint,
    TangentDirection,
    VERTEX_HIT,
    _trace_tables,
    tangent_representatives,
    trace,
)

# Two parameter pairs closer than this are the same event seen from both
# sides of a chart edge.
EVENT_MERGE_TOL = 1e-7

# An earliest-only search first pairs the chords entering before this
# fraction of the trace length, then doubles the window; events are certain
# below its end less this relative margin, far above the kernel's slack.
FIRST_WINDOW = 1 / 64
WINDOW_MARGIN = 1e-9

# Most directions one scan may draw; its angle array is sized by n.
MAX_DIRECTIONS = 10**6

# A chord within this of the start tangent, in distance and in direction,
# closes the geodesic.
RECURRENCE_TOL = 1e-6
# A co-face angle within this of a folded curvature sum is matched.
SPECTRUM_TOL = 1e-6


@dataclass(frozen=True)
class SegmentPair:
    """Two equal-length segments given by midpoints and angles.

    ``alpha1``/``alpha2`` are measured from the m1->m2 direction to each
    segment's direction; ``half_length`` is half the common length.
    """

    m1: Vec
    m2: Vec
    alpha1: float
    alpha2: float
    half_length: float


def lap_criterion(pair: SegmentPair) -> bool:
    """Midpoint intersection criterion for two equal segments.

    With d the midpoint distance and delta = alpha2 - alpha1, the
    segments (assumed to start on the same side of the midpoint line)
    intersect if and only if
    ``d * max(|sin a1|, |sin a2|) <= half_length * |sin delta|``.
    """
    d = math.hypot(pair.m2[0] - pair.m1[0], pair.m2[1] - pair.m1[1])
    if d == 0.0:
        raise CoincidentMidpoints("criterion requires distinct midpoints")
    delta = pair.alpha2 - pair.alpha1
    lhs = d * max(abs(math.sin(pair.alpha1)), abs(math.sin(pair.alpha2)))
    rhs = pair.half_length * abs(math.sin(delta))
    return lhs <= rhs


def segment_pair_endpoints(pair: SegmentPair) -> tuple[Vec, Vec, Vec, Vec]:
    """Realize a SegmentPair as explicit planar segments (a1,b1,a2,b2)."""
    base = math.atan2(pair.m2[1] - pair.m1[1], pair.m2[0] - pair.m1[0])
    out = []
    for m, alpha in ((pair.m1, pair.alpha1), (pair.m2, pair.alpha2)):
        ux, uy = math.cos(base + alpha), math.sin(base + alpha)
        ln = pair.half_length
        out.append((m[0] - ln * ux, m[1] - ln * uy))
        out.append((m[0] + ln * ux, m[1] + ln * uy))
    return out[0], out[1], out[2], out[3]


@dataclass(frozen=True)
class IntersectionEvent:
    t1: float
    t2: float
    point: SurfacePoint
    angle: float  # between the two passes, folded to (0, pi)


class IntersectionEvents(Sequence):
    """Read-only sequence of IntersectionEvent backed by numpy columns.

    The columns ``t1``, ``t2``, ``tri``, ``px``, ``py`` and ``angle`` are
    ordered by (t1, t2); an event object is built only when one is read.
    Equality is element-wise with any sequence, so ``events == []`` holds
    for a trace without crossings.
    """

    __slots__ = ("t1", "t2", "tri", "px", "py", "angle")

    def __init__(self, t1, t2, tri, px, py, angle):
        for name, col in zip(self.__slots__, (t1, t2, tri, px, py, angle)):
            col = np.asarray(col).view()
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __setattr__(self, name, value):
        raise AttributeError("IntersectionEvents is read-only")

    def __len__(self) -> int:
        return len(self.t1)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IntersectionEvents(*(getattr(self, c)[index] for c in self.__slots__))
        k = range(len(self))[index]
        return IntersectionEvent(
            float(self.t1[k]),
            float(self.t2[k]),
            SurfacePoint(int(self.tri[k]), (float(self.px[k]), float(self.py[k]))),
            float(self.angle[k]),
        )

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<IntersectionEvents: {len(self)} events>"

    def earliest(self) -> IntersectionEvent:
        """The event with the smallest (t2, t1); the first one on ties."""
        if not len(self):
            raise ValueError("no events")
        return self[_earliest_index(self.t1, self.t2)]


def _earliest_index(t1: np.ndarray, t2: np.ndarray) -> int:
    """Index of the smallest (t2, t1); the first one on ties."""
    return int(np.lexsort((t1, t2))[0])


@dataclass(frozen=True)
class DensityReport:
    epsilon: float
    sample_count: int
    covered_fraction: float


def _merge_mask(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Events to keep, in (t1, t2) order: one dropped when both parameters
    lie within EVENT_MERGE_TOL of the last event kept.

    An event more than the tolerance past its predecessor in t1 is always
    kept, so only runs of close t1 values are walked one by one.
    """
    keep = np.ones(len(t1), dtype=bool)
    close = np.flatnonzero(np.diff(t1) <= EVENT_MERGE_TOL) + 1
    t1l, t2l = t1.tolist(), t2.tolist()
    last = prev = -1
    for k in close.tolist():
        if k - 1 != prev:
            last = k - 1  # starts a run: its predecessor was kept
        if abs(t1l[last] - t1l[k]) <= EVENT_MERGE_TOL and abs(t2l[last] - t2l[k]) <= EVENT_MERGE_TOL:
            keep[k] = False
        else:
            last = k
        prev = k
    return keep


def _row_events(tri, P, D, L, T0, label, wide, lo, hi):
    """Event columns from rows lo:hi of one chart, in (i, j) order: chord i
    paired with every later chord j of another class, or of the chart if
    ``wide``.  Chords run in trace order, so each t1 is at least T0[i] less
    the 1e-12 slack."""
    ii, jj = np.nonzero(np.triu((label[lo:hi, None] != label) | wide, lo + 1))
    ii += lo
    denom = D[ii, 0] * D[jj, 1] - D[ii, 1] * D[jj, 0]
    k = np.flatnonzero(np.abs(denom) > 1e-12)
    ii, jj, denom = ii[k], jj[k], denom[k]
    ang = np.arccos(np.clip(D[ii, 0] * D[jj, 0] + D[ii, 1] * D[jj, 1], -1.0, 1.0))
    k = np.flatnonzero((ang > PROPER_ANGLE_TOL) & (ang < math.pi - PROPER_ANGLE_TOL))
    ii, jj, denom, ang = ii[k], jj[k], denom[k], ang[k]
    dxi, dyi, dxj, dyj = D[ii, 0], D[ii, 1], D[jj, 0], D[jj, 1]
    pxi, pyi = P[ii, 0], P[ii, 1]
    wx, wy = P[jj, 0] - pxi, P[jj, 1] - pyi
    u = (wx * dyj - wy * dxj) / denom
    v = (wx * dyi - wy * dxi) / denom
    slack = 1e-12
    ok = (u >= -slack) & (u <= L[ii] + slack) & (v >= -slack) & (v <= L[jj] + slack)
    ta = T0[ii] + u
    tb = T0[jj] + v
    t1, t2 = np.minimum(ta, tb), np.maximum(ta, tb)
    k = np.flatnonzero(ok & (t2 - t1 > EVENT_MERGE_TOL))
    u = u[k]
    px = pxi[k] + u * dxi[k]
    py = pyi[k] + u * dyi[k]
    return t1[k], t2[k], np.full(len(k), tri), px, py, ang[k]


def self_intersections(
    surface: FlatSurface, trace_: GeodesicTrace, *, earliest_only: bool = False
) -> IntersectionEvents:
    """All proper self-intersections of a trace, ordered by (t1, t2).

    Pairs meeting at the same point with the same line direction (within
    PROPER_ANGLE_TOL, projectively) are periodic retracing and are
    excluded, so pairs in one direction class (``GeodesicTrace.classes``),
    unless it is wide, are never tested.  Events seen in two charts are
    merged: walking in (t1, t2) order, an event within EVENT_MERGE_TOL in
    both parameters of the last event kept is dropped.  ``surface`` is not
    read: the chords carry their chart coordinates.

    With ``earliest_only`` the result is ``[earliest()]`` of the full
    result, or empty.  The rows (chords) ``T0 < tau`` of each chart are
    then paired first, tau doubling from FIRST_WINDOW of the trace length;
    the full call is one window over all rows.  Row i yields only events
    with ``t1 >= T0[i] - 1e-12``, so once the rows below tau are paired,
    the events with ``t1 < c = tau - WINDOW_MARGIN (1 + tau)`` are an exact
    prefix of the full (t1, t2)-sorted list, ties in chart, i, j order as
    in one window.  The merge decides each event only from those before
    it, so the prefix keeps what the full list keeps.  Every event past
    the prefix has ``t2 > t1 >= c``.  Hence if the kept prefix event with
    the smallest (t2, t1) has ``t2 <= c``, it is the full ``earliest()``,
    bit for bit; otherwise tau doubles.
    """
    charts = []
    for tri, (P, D, L, T0) in trace_.charts.items():
        label, _normals, spreads = trace_.classes[tri][:3]
        wide = spreads[0] == 1.0  # directions do not cluster: every pair
        if len(spreads) > 1 or wide:
            charts.append((tri, P, D, L, T0, label, wide))
    if not charts:
        empty = np.empty(0)
        return IntersectionEvents(empty, empty, empty.astype(np.int64), empty, empty, empty)
    rows = [0] * len(charts)  # rows paired so far, per chart
    found = [[] for _ in charts]  # per chart, its windows' columns in row order
    tau = FIRST_WINDOW * trace_.length if earliest_only and trace_.length > 0 else math.inf
    while True:
        for k, chart in enumerate(charts):
            hi = int(np.searchsorted(chart[4], tau))
            if hi > rows[k]:
                found[k].append(_row_events(*chart, rows[k], hi))
                rows[k] = hi
        done = all(r == len(chart[4]) for r, chart in zip(rows, charts))
        if any(found):
            cols = [np.concatenate(c) for c in zip(*(w for ws in found for w in ws))]
            order = np.lexsort((cols[1], cols[0]))
            cols = [c[order] for c in cols]
            t1, t2 = cols[:2]
            cut = math.inf if done else tau - WINDOW_MARGIN * (1.0 + tau)
            m = int(np.searchsorted(t1, cut))
            keep = np.flatnonzero(_merge_mask(t1[:m], t2[:m]))
            if earliest_only and len(keep):
                best = keep[_earliest_index(t1[keep], t2[keep])]
                if t2[best] <= cut:
                    return IntersectionEvents(*(c[best : best + 1] for c in cols))
            if done:
                return IntersectionEvents(*(c[keep] for c in cols))
        tau *= 2.0


@functools.lru_cache(maxsize=1)
def _sample_points(surface: FlatSurface, samples: int, seed: int):
    """Area-uniform points, deterministic in seed: read-only ``(tri, x,
    y)``, each point's dense triangle index and chart coordinates, in the
    order drawn.  A scan measures every simple direction against the same
    set, so the last one is kept."""
    tab = _trace_tables(surface)
    rng = np.random.default_rng(seed)
    tri = rng.choice(len(tab.area_p), size=samples, p=tab.area_p)
    u = np.sqrt(rng.uniform(size=samples))
    v = rng.uniform(size=samples)
    a, b, c = tab.corner_xy[:, :, tri]
    out = (tri, *(a * (1 - u) + b * (u * (1 - v)) + c * (u * v)))
    for col in out:
        col.flags.writeable = False
    return out


class _ChordIndex:
    """One trace's charts in flat arrays.  Column k of ``chords`` is a
    chord's ``(px, py, dx, dy, L)``, chart after chart; chart c's classes
    are ``base[c]`` to ``base[c] + ncls[c] - 1``, and class g's sorted keys,
    shifted by the base in their real part, are ``keys[start[g]:end[g]]``,
    of chords ``order[start[g]:end[g]]``.  ``pmax[c]`` is ``max |P|``."""

    def __init__(self, trace_: GeodesicTrace):
        self.charts = list(trace_.charts)
        cls = [trace_.classes[t] for t in self.charts]
        P, D, L = (np.concatenate([v[k] for v in trace_.charts.values()]) for k in range(3))
        self.chords = np.vstack((P.T, D.T, L))
        rows = np.cumsum([0] + [len(c[0]) for c in cls])
        self.ncls = np.array([len(c[1]) for c in cls])
        self.base = np.cumsum(self.ncls) - self.ncls
        self.keys = np.concatenate([c[3] for c in cls]) + np.repeat(self.base, np.diff(rows))
        self.order = np.concatenate([c[4] for c in cls]) + np.repeat(rows[:-1], np.diff(rows))
        self.normals, self.spreads = (np.concatenate([c[k] for c in cls]) for k in (1, 2))
        self.start = np.searchsorted(self.keys.real, np.arange(len(self.spreads)))
        self.end = np.append(self.start[1:], len(self.keys))
        self.pmax = np.maximum.reduceat(np.abs(P).max(1), rows[:-1])


def _hits(ix: _ChordIndex, qs, qc, qx, qy, epsilon: float, size: int, nearest: bool = False) -> np.ndarray:
    """Which of ``size`` samples lie within epsilon of a chord: query k,
    sample ``qs[k]`` at ``(qx[k], qy[k])`` in chart ``qc[k]``, is measured
    in each class of its chart against the chords in its band, or with
    ``nearest`` against the two next to its offset."""
    n = ix.ncls[qc]
    qi = np.repeat(np.arange(len(qc)), n)
    g = ix.base[qc][qi] + np.arange(len(qi)) - np.repeat(np.cumsum(n) - n, n)
    x, y = qx[qi], qy[qi]
    off = x * ix.normals[g, 0] + y * ix.normals[g, 1]
    if nearest:
        start, end = ix.start[g], ix.end[g]
        lo = np.clip(np.searchsorted(ix.keys, g + 1j * off) - 1, start, np.maximum(end - 2, start))
        count = np.minimum(end - start, 2)
    else:
        R = math.sqrt(2.0) * (np.maximum(np.abs(x), np.abs(y)) + ix.pmax[qc[qi]])
        width = epsilon + (math.pi / 2) * ix.spreads[g] * R + 1e-9 * (1.0 + R)
        lo = np.searchsorted(ix.keys, g + 1j * (off - width))
        count = np.searchsorted(ix.keys, g + 1j * (off + width), "right") - lo
    # One (query, chord) pair per chord measured.
    ci = ix.order[np.arange(count.sum()) + np.repeat(lo + count - np.cumsum(count), count)]
    px, py, ux, uy, L = np.take(ix.chords, ci, 1)
    wx, wy = np.repeat(x, count) - px, np.repeat(y, count) - py
    proj = np.clip(wx * ux + wy * uy, 0.0, L)
    dx, dy = wx - proj * ux, wy - proj * uy
    hit = np.zeros(size, dtype=bool)
    hit[np.repeat(qs[qi], count)[np.sqrt(dx * dx + dy * dy) < epsilon]] = True
    return hit


def _check_density_args(epsilon: float, samples: int, seed: int) -> None:
    if not 0.0 < epsilon < math.inf or samples <= 0:
        raise ValueError("epsilon must be positive and finite, samples positive")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _covered(surface: FlatSurface, trace_: GeodesicTrace, epsilon: float, samples: int, seed: int) -> np.ndarray:
    """Whether each point of ``_sample_points``, in its order, lies within
    epsilon of the trace, as ``density_estimate`` counts it."""
    tri, x, y = _sample_points(surface, samples, seed)
    if not trace_.charts:
        return np.zeros(samples, dtype=bool)
    ix, tab = _ChordIndex(trace_), _trace_tables(surface)
    chart_of = np.full(len(tab.area_p), -1)
    chart_of[[tab.id2dense[t] for t in ix.charts]] = np.arange(len(ix.charts))
    own = chart_of[tri]
    s = np.flatnonzero(own >= 0)
    hit = _hits(ix, s, own[s], x[s], y[s], epsilon, samples, nearest=True)
    # The points still uncovered, in their own chart and their images.
    s = np.flatnonzero(~hit)
    img = chart_of[tab.targets[tri[s]]]
    k, e = np.nonzero(img >= 0)
    t, m = s[k], tab.mats[tri[s[k]], e].T
    s = s[own[s] >= 0]
    qx = np.concatenate((x[s], m[0] * x[t] + m[1] * y[t] + m[4]))
    qy = np.concatenate((y[s], m[2] * x[t] + m[3] * y[t] + m[5]))
    return hit | _hits(ix, np.concatenate((s, t)), np.concatenate((own[s], img[k, e])), qx, qy, epsilon, samples)


def density_estimate(
    surface: FlatSurface,
    trace_: GeodesicTrace,
    epsilon: float,
    samples: int,
    seed: int,
) -> DensityReport:
    """Fraction of area-uniform sample points within epsilon of the trace.

    Distances are measured in the sample's own chart and, through each of
    its gluings, one transition deep; points near the trace only across
    two or more transitions are undercounted, so the estimate is
    conservative.  Each sample is first measured in its own chart against
    the two chords next to its offset in each direction class; only the
    samples still uncovered are measured, in all four charts, against the
    chords in their band ``|n.q - n.P| <= epsilon + (pi/2) s R + 1e-9 (1 +
    R)`` of each class (normal n, spread s), with ``R = sqrt(2) (max(|qx|,
    |qy|) + max |P|) >= |q| + |P| >= |q - P|``.  The distance to a chord is
    at least ``|n_k.(q - P)|`` and ``|n -+ n_k| <= (pi/2) s``, so the band
    holds every chord within epsilon; each distance is the same expression
    in either round, so the verdicts equal those of measuring every chord.
    """
    _check_density_args(epsilon, samples, seed)
    covered = _covered(surface, trace_, epsilon, samples, seed)
    return DensityReport(epsilon, samples, int(np.count_nonzero(covered)) / samples)


def closed_geodesic_detect(surface: FlatSurface, trace_: GeodesicTrace) -> float | None:
    """Smallest positive t at which the trace revisits its start tangent.

    Both the point distance and the direction angle are compared against
    RECURRENCE_TOL.  Returns None when no recurrence occurs within the trace.
    """
    reps = tangent_representatives(surface, trace_.start.at, trace_.start.unit, RECURRENCE_TOL)
    by_tri: dict[int, list[tuple[Vec, Vec]]] = {}
    for tri, xy, v in reps:
        by_tri.setdefault(tri, []).append((xy, v))
    best: float | None = None
    for tri, ex, ey, _ox, _oy, dx, dy, t0, ln, _edge in trace_.chords.tolist():
        if best is not None and t0 > best:
            break
        for xy, v in by_tri.get(int(tri), ()):
            if unsigned_angle((dx, dy), v) > RECURRENCE_TOL:
                continue
            wx, wy = xy[0] - ex, xy[1] - ey
            r = wx * dx + wy * dy
            if r < -RECURRENCE_TOL or r > ln + RECURRENCE_TOL:
                continue
            perp = math.hypot(wx - r * dx, wy - r * dy)
            if perp > RECURRENCE_TOL:
                continue
            t = t0 + r
            if t > RECURRENCE_TOL and (best is None or t < best):
                best = t
    return best


@dataclass(frozen=True)
class SpectrumReport:
    angles: tuple[float, ...]  # observed co-face angles, folded to [0, pi]
    allowed: tuple[float, ...]  # subset sums of curvatures, folded
    unmatched: tuple[float, ...]

    @property
    def all_matched(self) -> bool:
        return not self.unmatched


def coface_angle_spectrum(
    surface: FlatSurface,
    trace_: GeodesicTrace,
    face_partition: list[list[int]],
) -> SpectrumReport:
    """Pairwise angles between trace chords crossing the same face.

    Each face group is developed into one plane before comparing chord
    directions; angles are folded to [0, pi] and checked, to within
    SPECTRUM_TOL, against subset sums of the vertex curvatures (folded the
    same way).  Requires a sphere with strictly positive curvatures.
    """
    if surface.euler_characteristic != 2:
        raise NotConvex("angle spectrum needs a topological sphere")
    cones = surface.cone_points()
    if any(v.curvature <= 0 for v in cones):
        raise NotConvex("angle spectrum needs strictly positive curvatures")

    charts = trace_.charts
    observed: list[float] = []
    for group in face_partition:
        group_set = set(group)
        placement: dict[int, PlaneIsometry] = {group[0]: PlaneIsometry.identity()}
        queue = [group[0]]
        while queue:
            cur = queue.pop(0)
            for e in range(3):
                ref, iso = surface.edge_transition(cur, e)
                if ref.tri in group_set and ref.tri not in placement:
                    placement[ref.tri] = placement[cur].compose(iso.inverse())
                    queue.append(ref.tri)
        dirs: list[tuple[float, float]] = []
        for tri_id in group:
            if tri_id not in charts:
                continue
            _P, D, _L, _T0 = charts[tri_id]
            m = placement[tri_id].matrix()
            for d in D:
                dirs.append((m[0] * d[0] + m[1] * d[1], m[2] * d[0] + m[3] * d[1]))
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                observed.append(unsigned_angle(dirs[i], dirs[j]))

    sums = {0.0}
    for v in cones:
        sums |= {s + v.curvature for s in sums}
    allowed = sorted({fold_to_half_turn(s) for s in sums})
    unmatched = tuple(
        a for a in observed if min(abs(a - f) for f in allowed) > SPECTRUM_TOL
    )
    return SpectrumReport(tuple(sorted(observed)), tuple(allowed), unmatched)



@dataclass(frozen=True)
class DirectionVerdict:
    index: int
    angle: float
    kind: str  # "vertex_hit" | "self_intersecting" | "simple" | "left_domain"
    hit_parameter: float | None = None
    first_event: IntersectionEvent | None = None
    density: DensityReport | None = None


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[DirectionVerdict, ...]
    # The table's columns, in CSV and ``--rows`` JSON alike.
    COLUMNS = ("index", "angle", "verdict", "first_event_t1", "first_event_t2", "covered_fraction")

    def counts(self) -> dict[str, int]:
        return dict(Counter(r.kind for r in self.rows))

    def _values(self):
        """Each row's COLUMNS values, None where a row has none."""
        for r in self.rows:
            e, d = r.first_event, r.density
            t1, t2 = (e.t1, e.t2) if e else (None, None)
            yield r.index, r.angle, r.kind, t1, t2, d.covered_fraction if d else None

    def to_csv(self) -> str:
        lines = [",".join(self.COLUMNS)]
        for index, angle, kind, *floats in self._values():
            cells = ("" if x is None else f"{x:.17g}" for x in floats)
            lines.append(f"{index},{angle:.17g},{kind}," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_rows(self) -> list[dict]:
        return [dict(zip(self.COLUMNS, values)) for values in self._values()]


def direction_scan(
    surface: FlatSurface,
    p: SurfacePoint,
    n: int,
    length: float,
    epsilon: float,
    seed: int,
    vertex_clearance: float = DEFAULT_VERTEX_CLEARANCE,
    density_samples: int = 2000,
) -> ScanResult:
    """Trace ``n`` seeded random directions from one point and classify each.

    Every direction is traced to ``length``; the verdict is VertexHit,
    SelfIntersecting (with the earliest event, the one with the smallest
    (t2, t1), from ``self_intersections(..., earliest_only=True)``) or
    Simple (with a density report at ``epsilon``).  Deterministic given
    the seed.
    ``n`` above MAX_DIRECTIONS, and an ``epsilon`` or ``density_samples``
    that ``density_estimate`` would reject, are rejected before any angle is
    drawn.
    """
    if not 1 <= n <= MAX_DIRECTIONS:
        raise ValueError(f"n must be between 1 and {MAX_DIRECTIONS}, got {n}")
    _check_density_args(epsilon, density_samples, seed)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    rows: list[DirectionVerdict] = []
    for i, ang in enumerate(angles):
        d = (math.cos(ang), math.sin(ang))
        tr = trace(surface, TangentDirection(p, d), length, vertex_clearance)
        if tr.termination.kind == VERTEX_HIT:
            rows.append(
                DirectionVerdict(i, float(ang), "vertex_hit", hit_parameter=tr.termination.parameter)
            )
            continue
        if tr.termination.kind != LENGTH_REACHED:
            rows.append(DirectionVerdict(i, float(ang), "left_domain"))
            continue
        events = self_intersections(surface, tr, earliest_only=True)
        if events:
            first = events.earliest()
            rows.append(DirectionVerdict(i, float(ang), "self_intersecting", first_event=first))
        else:
            rep = density_estimate(surface, tr, epsilon, density_samples, seed + 1)
            rows.append(DirectionVerdict(i, float(ang), "simple", density=rep))
    return ScanResult(tuple(rows))
