"""Self-intersection detection, density estimation, and angle audits.

Intersections are found per chart: every pair of trace chords living in
the same triangle (``GeodesicTrace.charts``, grouped once per trace and
shared with the density estimate) is tested at once with numpy.  The
events of all charts are sorted and merged as numpy columns and returned
as an ``IntersectionEvents`` sequence, which builds an
``IntersectionEvent`` only when one is read; ``earliest()`` picks the
first crossing without building the others.  This module is the package's performance core.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentMidpoints, NotConvex
from .geometry import PlaneIsometry, Vec, fold_to_half_turn, unsigned_angle
from .surface import FlatSurface
from .tracer import (
    GeodesicTrace,
    SurfacePoint,
    TangentDirection,
    VERTEX_HIT,
    tangent_representatives,
    trace,
)

# Direction-equality threshold separating periodic retracing from genuine
# crossings; crossings are proper when the chord lines differ by more
# than this (angles are compared projectively, so both 0 and pi count as
# retracing).
PROPER_ANGLE_TOL = 1e-6

# Two parameter pairs closer than this are the same event seen from both
# sides of a chart edge.
EVENT_MERGE_TOL = 1e-7

# Most directions one scan may draw; its angle array is sized by n.
MAX_DIRECTIONS = 10**6


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
        return self[int(np.lexsort((self.t1, self.t2))[0])]


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


def self_intersections(
    surface: FlatSurface,
    trace_: GeodesicTrace,
    angle_tol: float = PROPER_ANGLE_TOL,
) -> IntersectionEvents:
    """All proper self-intersections of a trace, ordered by (t1, t2).

    Pairs meeting at the same point with the same line direction (within
    ``angle_tol``, projectively) are periodic retracing and are excluded.
    Events seen in two charts (crossings on a gluing edge) are merged:
    walking in (t1, t2) order, an event within EVENT_MERGE_TOL in both
    parameters of the last event kept is dropped.  The result is columnar;
    ``surface`` is not read: the chords carry their chart coordinates.
    """
    found = []
    for tri, (P, D, L, T0) in trace_.charts.items():
        n = len(P)
        if n < 2:
            continue
        ii, jj = np.triu_indices(n, k=1)
        denom = D[ii, 0] * D[jj, 1] - D[ii, 1] * D[jj, 0]
        # Parallel chords, all of them on a parallel surface, stop here.
        k = np.flatnonzero(np.abs(denom) > 1e-12)
        if not len(k):
            continue
        ii, jj, denom = ii[k], jj[k], denom[k]
        ang = np.arccos(np.clip(D[ii, 0] * D[jj, 0] + D[ii, 1] * D[jj, 1], -1.0, 1.0))
        k = np.flatnonzero((ang > angle_tol) & (ang < math.pi - angle_tol))
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
        if not len(k):
            continue
        u = u[k]
        px = pxi[k] + u * dxi[k]
        py = pyi[k] + u * dyi[k]
        found.append((t1[k], t2[k], np.full(len(k), tri), px, py, ang[k]))
    if not found:
        empty = np.empty(0)
        return IntersectionEvents(empty, empty, empty.astype(np.int64), empty, empty, empty)
    cols = [np.concatenate(c) for c in zip(*found)]
    order = np.lexsort((cols[1], cols[0]))
    cols = [c[order] for c in cols]
    keep = _merge_mask(cols[0], cols[1])
    return IntersectionEvents(*(c[keep] for c in cols))


def _sample_points(surface: FlatSurface, samples: int, seed: int):
    """Area-uniform points: tri id -> (k, 2) array, deterministic in seed."""
    rng = np.random.default_rng(seed)
    tris = surface.triangles
    areas = np.array([t.signed_area() for t in tris])
    probs = areas / areas.sum()
    choice = rng.choice(len(tris), size=samples, p=probs)
    r1 = np.sqrt(rng.uniform(size=samples))
    r2 = rng.uniform(size=samples)
    out: dict[int, np.ndarray] = {}
    for ti in range(len(tris)):
        mask = choice == ti
        if not np.any(mask):
            continue
        a, b, c = (np.array(p) for p in tris[ti].corners)
        u = r1[mask][:, None]
        v = r2[mask][:, None]
        pts = a * (1 - u) + b * (u * (1 - v)) + c * (u * v)
        out[tris[ti].id] = pts
    return out


def _min_dist_to_chords(points: np.ndarray, P: np.ndarray, D: np.ndarray, L: np.ndarray):
    """Min distance from each point to a set of chords (vectorized)."""
    W = points[:, None, :] - P[None, :, :]
    proj = W[:, :, 0] * D[None, :, 0] + W[:, :, 1] * D[None, :, 1]
    proj = np.clip(proj, 0.0, L[None, :])
    dx = W[:, :, 0] - proj * D[None, :, 0]
    dy = W[:, :, 1] - proj * D[None, :, 1]
    return np.sqrt(np.min(dx * dx + dy * dy, axis=1))


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
    conservative.
    """
    if not 0.0 < epsilon < math.inf or samples <= 0:
        raise ValueError("epsilon must be positive and finite, samples positive")
    charts = trace_.charts
    pts = _sample_points(surface, samples, seed)
    covered = 0
    for tri_id, P in pts.items():
        hit = np.zeros(len(P), dtype=bool)
        if tri_id in charts:
            cP, cD, cL, _t = charts[tri_id]
            hit |= _min_dist_to_chords(P, cP, cD, cL) < epsilon
        for e in range(3):
            if np.all(hit):
                break
            ref, iso = surface.edge_transition(tri_id, e)
            if ref.tri not in charts:
                continue
            m = iso.matrix()
            Q = np.empty_like(P)
            Q[:, 0] = m[0] * P[:, 0] + m[1] * P[:, 1] + m[4]
            Q[:, 1] = m[2] * P[:, 0] + m[3] * P[:, 1] + m[5]
            cP, cD, cL, _t = charts[ref.tri]
            todo = ~hit
            hit[todo] = _min_dist_to_chords(Q[todo], cP, cD, cL) < epsilon
        covered += int(np.count_nonzero(hit))
    return DensityReport(epsilon, samples, covered / samples)


def closed_geodesic_detect(
    surface: FlatSurface, trace_: GeodesicTrace, tol: float = 1e-6
) -> float | None:
    """Smallest positive t at which the trace revisits its start tangent.

    Both the point distance and the direction angle are compared against
    ``tol``.  Returns None when no recurrence occurs within the trace.
    """
    reps = tangent_representatives(surface, trace_.start.at, trace_.start.unit, tol=max(tol, 1e-9))
    by_tri: dict[int, list[tuple[Vec, Vec]]] = {}
    for tri, xy, v in reps:
        by_tri.setdefault(tri, []).append((xy, v))
    best: float | None = None
    for tri, ex, ey, _ox, _oy, dx, dy, t0, ln, _edge in trace_.chords.tolist():
        if best is not None and t0 > best:
            break
        for xy, v in by_tri.get(int(tri), ()):
            if unsigned_angle((dx, dy), v) > tol:
                continue
            wx, wy = xy[0] - ex, xy[1] - ey
            r = wx * dx + wy * dy
            if r < -tol or r > ln + tol:
                continue
            perp = math.hypot(wx - r * dx, wy - r * dy)
            if perp > tol:
                continue
            t = t0 + r
            if t > tol and (best is None or t < best):
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
    tol: float = 1e-6,
) -> SpectrumReport:
    """Pairwise angles between trace chords crossing the same face.

    Each face group is developed into one plane before comparing chord
    directions; angles are folded to [0, pi] and checked against subset
    sums of the vertex curvatures (folded the same way).  Requires a
    sphere with strictly positive curvatures.
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
        a for a in observed if min(abs(a - f) for f in allowed) > tol
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

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.rows:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    def to_csv(self) -> str:
        lines = ["index,angle,verdict,first_event_t1,first_event_t2,covered_fraction"]
        for r in self.rows:
            t1 = f"{r.first_event.t1:.17g}" if r.first_event else ""
            t2 = f"{r.first_event.t2:.17g}" if r.first_event else ""
            cf = f"{r.density.covered_fraction:.17g}" if r.density else ""
            lines.append(f"{r.index},{r.angle:.17g},{r.kind},{t1},{t2},{cf}")
        return "\n".join(lines) + "\n"

    def to_json_rows(self) -> list[dict]:
        out = []
        for r in self.rows:
            out.append(
                {
                    "index": r.index,
                    "angle": r.angle,
                    "verdict": r.kind,
                    "first_event_t1": r.first_event.t1 if r.first_event else None,
                    "first_event_t2": r.first_event.t2 if r.first_event else None,
                    "covered_fraction": r.density.covered_fraction if r.density else None,
                }
            )
        return out


def direction_scan(
    surface: FlatSurface,
    p: SurfacePoint,
    n: int,
    length: float,
    epsilon: float,
    seed: int,
    vertex_clearance: float = 1e-7,
    density_samples: int = 2000,
) -> ScanResult:
    """Trace ``n`` seeded random directions from one point and classify each.

    Every direction is traced to ``length``; the verdict is VertexHit,
    SelfIntersecting (with the earliest event, the one with the smallest
    (t2, t1) from ``IntersectionEvents.earliest``) or Simple (with a
    density report at ``epsilon``).  Deterministic given the seed.
    ``n`` above MAX_DIRECTIONS is rejected before any angle is drawn.
    """
    if not 1 <= n <= MAX_DIRECTIONS:
        raise ValueError(f"n must be between 1 and {MAX_DIRECTIONS}, got {n}")
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
        if tr.termination.kind != "LengthReached":
            rows.append(DirectionVerdict(i, float(ang), "left_domain"))
            continue
        events = self_intersections(surface, tr)
        if events:
            first = events.earliest()
            rows.append(DirectionVerdict(i, float(ang), "self_intersecting", first_event=first))
        else:
            rep = density_estimate(surface, tr, epsilon, density_samples, seed + 1)
            rows.append(DirectionVerdict(i, float(ang), "simple", density=rep))
    return ScanResult(tuple(rows))
