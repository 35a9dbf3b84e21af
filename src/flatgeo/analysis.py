"""Self-intersection detection, density estimation, and angle audits.

Both scans read a ``ChordIndex``, ``GeodesicTrace.index`` for a whole
trace: the chords chart after chart, each with its projective direction
class, and the classes' sorted offset keys.  Only pairs of different
classes, or in a wide class, can cross; each time window of the chords is
paired with the earlier chords of its chart in one numpy kernel over
every chart at once, and the events sorted and merged as numpy columns,
the windows doubling until the earliest crossing is certain; it is the
one ``IntersectionEvent`` built.  A trace whose rows are still a list
of values is first searched up to an eighth of its length on an index of
those chords alone, which decides most crossing rays; the whole trace's
index is built only when that cannot.  Density measures each sample
against the two chords nearest its offset first, and only the samples
still uncovered against the chords in their band of each class.  This
module is the performance core.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentMidpoints, NotConvex, float_arg, int_arg
from .geometry import PlaneIsometry, Vec, fold_to_half_turn, unsigned_angle
from .surface import FlatSurface
from .tracer import (
    DEFAULT_VERTEX_CLEARANCE,
    LENGTH_REACHED,
    PROPER_ANGLE_TOL,
    ChordIndex,
    GeodesicTrace,
    SurfacePoint,
    TangentDirection,
    _trace_tables,
    _triangle,
    tangent_representatives,
    trace,
)

# Two parameter pairs closer than this are the same event seen from both
# sides of a chart edge.
EVENT_MERGE_TOL = 1e-7

# The self-intersection search first pairs the chords entering before this
# fraction of the trace length, then doubles the window; events are certain
# below its end less the merge tolerance and this relative margin, far
# above the kernel's slack.  A trace that holds its steps is first searched
# up to PREFIX of its length, a power of two times FIRST_WINDOW, on an
# index of those chords alone.
FIRST_WINDOW = 1 / 64
WINDOW_MARGIN = 1e-9
PREFIX = 1 / 8
# A window's rows are paired about this many candidate pairs at a time,
# so the kernel's arrays stay a few megabytes even when one window spans
# every chart of a long trace.
PAIR_BATCH = 1 << 14

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


def _window_events(ix: ChordIndex, rows: np.ndarray):
    """Event columns ``(t1, t2, row, px, py, angle)`` of chord rows
    ``rows`` (ascending, in charts of two or more classes or one wide
    class), in (j, i) order: row j paired with every earlier row i of its
    chart of another class, or of the chart if it is wide.  ``row`` is i
    and the point is found on chord i, so a pair's event is the same
    whichever window pairs it, and the events of one row i come in j
    order.  Rows are taken PAIR_BATCH candidate pairs at a time.  Chords
    run in trace order, so each t2 is at least t0 of row j less the 1e-12
    slack."""
    px, py, dx, dy, L, T0 = ix.cols
    first = ix.rows[ix.chart[rows]]
    count = rows - first  # earlier rows of the chart
    cuts = np.searchsorted(np.cumsum(count), np.arange(PAIR_BATCH, count.sum(), PAIR_BATCH))
    out = []
    for part, start, n in zip(np.split(rows, cuts), np.split(first, cuts), np.split(count, cuts)):
        jj = np.repeat(part, n)
        ii = np.repeat(start, n) + np.arange(len(jj)) - np.repeat(np.cumsum(n) - n, n)
        k = np.flatnonzero((ix.label[ii] != np.repeat(ix.label[part], n)) | np.repeat(ix.wide[ix.chart[part]], n))
        ii, jj = ii[k], jj[k]
        denom = dx[ii] * dy[jj] - dy[ii] * dx[jj]
        k = np.flatnonzero(np.abs(denom) > 1e-12)
        ii, jj, denom = ii[k], jj[k], denom[k]
        ang = np.arccos(np.clip(dx[ii] * dx[jj] + dy[ii] * dy[jj], -1.0, 1.0))
        k = np.flatnonzero((ang > PROPER_ANGLE_TOL) & (ang < math.pi - PROPER_ANGLE_TOL))
        ii, jj, denom, ang = ii[k], jj[k], denom[k], ang[k]
        dxi, dyi, dxj, dyj = dx[ii], dy[ii], dx[jj], dy[jj]
        pxi, pyi = px[ii], py[ii]
        wx, wy = px[jj] - pxi, py[jj] - pyi
        u = (wx * dyj - wy * dxj) / denom
        v = (wx * dyi - wy * dxi) / denom
        slack = 1e-12
        ok = (u >= -slack) & (u <= L[ii] + slack) & (v >= -slack) & (v <= L[jj] + slack)
        ta = T0[ii] + u
        tb = T0[jj] + v
        t1, t2 = np.minimum(ta, tb), np.maximum(ta, tb)
        k = np.flatnonzero(ok & (t2 - t1 > EVENT_MERGE_TOL))
        u = u[k]
        out.append((t1[k], t2[k], ii[k], pxi[k] + u * dxi[k], pyi[k] + u * dyi[k], ang[k]))
    return [np.concatenate(c) for c in zip(*out)] if len(out) > 1 else out[0]


def _certain(t1: np.ndarray, t2: np.ndarray, reach: float) -> int | None:
    """The position of the earliest event among the known events ``(t1,
    t2)``, in walk order, or None if they cannot tell it: every pair of
    chords entering before ``reach`` (infinite: every pair) is known.

    With ``c = reach - EVENT_MERGE_TOL - WINDOW_MARGIN (1 + reach)``, or
    infinite, B is the kept event with the smallest (t2, t1) in the walk
    of the events with ``t1 < c``.  It is returned when c is infinite, or
    when B's t2 is at most c and no other event walked has a t2 within
    EVENT_MERGE_TOL of B's (equal keys fail this).
    """
    c = math.inf if reach == math.inf else reach - EVENT_MERGE_TOL - WINDOW_MARGIN * (1.0 + reach)
    m = int(np.searchsorted(t1, c))
    keep = np.flatnonzero(_merge_mask(t1[:m], t2[:m]))
    if not len(keep):
        return None
    best = int(keep[np.lexsort((t1[keep], t2[keep]))[0]])
    if c == math.inf or t2[best] <= c and np.count_nonzero(np.abs(t2[:m] - t2[best]) <= EVENT_MERGE_TOL) == 1:
        return best
    return None


def _earliest(ix: ChordIndex, length: float, end: float) -> IntersectionEvent | None:
    """The earliest crossing among the chords of ``ix``, which holds every
    chord of a trace of ``length`` that enters before ``end`` (infinite for
    the whole trace), or None if there is none or, for a finite ``end``,
    if it is not certain from those chords.

    Windows of rows, tau doubling from FIRST_WINDOW of the length (one
    window when that is zero: a zero-length trace, or one so short that
    the fraction underflows), are paired with every earlier row of their
    chart.  After window tau every pair of chords entering before
    ``reach`` is known, tau or, once every row of ``ix`` is paired,
    ``end``, and ``_certain`` decides.
    """
    rows = np.flatnonzero(((np.diff(ix.classes) > 1) | ix.wide)[ix.chart])
    if not len(rows):
        return None
    t0 = ix.cols[5, rows]
    t0_max = t0.max()
    found = []  # each window's columns
    lo, tau = -math.inf, FIRST_WINDOW * length or math.inf
    while True:
        window = rows[(lo <= t0) & (t0 < tau)]
        if len(window):
            found.append(_window_events(ix, window))
        reach = end if t0_max < tau else tau
        if found:
            cols = [np.concatenate(c) for c in zip(*found)] if len(found) > 1 else found[0]
            # (t1, t2), then row; one row's events stay in j order.
            order = np.lexsort((cols[2], cols[1], cols[0]))
            cols = [c[order] for c in cols]
            best = _certain(cols[0], cols[1], reach)
            if best is not None:
                e1, e2, row, px, py, angle = (c[best].item() for c in cols)
                at = SurfacePoint(int(ix.tris[ix.chart[row]]), (px, py))
                return IntersectionEvent(e1, e2, at, angle)
        if reach == end:
            return None
        lo, tau = tau, 2.0 * tau


def self_intersections(surface: FlatSurface, trace_: GeodesicTrace) -> IntersectionEvent | None:
    """The earliest proper self-intersection of a trace, the one with the
    smallest (t2, t1), or None if the trace does not cross itself.

    Pairs meeting at the same point with the same line direction (within
    PROPER_ANGLE_TOL, projectively) are periodic retracing and are
    excluded, so pairs in one direction class of ``trace_.index``, unless
    it is wide, are never tested.  Events seen in two charts are merged:
    walking every event in (t1, t2) order, ties in (chart, i, j) order, the
    index's row order, an event within EVENT_MERGE_TOL in both parameters
    of the last event kept is dropped.  The result is the kept event with
    the smallest (t2, t1), the first in that walk on ties.  ``surface`` is
    not read: the chords carry their chart coordinates.

    While the trace's rows are still a list of values, the chords entering
    before ``end``, PREFIX of its length, are first searched on an index of
    their own, ``trace_._prefix_index(end)``.  If it has none (no chart of
    them holds two classes), or that search cannot decide, ``trace_.index``
    is searched with ``end`` infinite.  Both searches are ``_earliest``.

    The search is exact.  After each window, every pair of chords entering
    before ``reach`` is known, with the event the whole trace's pairing
    gives it, bit for bit: the same kernel expressions on the same
    columns.  Any other event pairs a chord entering at or after reach, so
    its ``t2 >= reach - 1e-12 > c + EVENT_MERGE_TOL``, c being
    ``_certain``'s bound.  The known events walk in the order of all
    events: rows keep their order from the index of a prefix to that of
    the trace, and one row's events come in j order.  Let ``_certain``
    return B, so ``B.t2 <= c``:

    - the whole walk keeps B: the last event it kept before B is either
      known, with ``t1 <= B.t1 < c``, so more than EVENT_MERGE_TOL from B
      in t2 by the rule, or unknown, with t2 above ``c + EVENT_MERGE_TOL``;
    - no event the whole walk keeps comes before B in (t2, t1): such an
      event E has ``t1 < t2 <= B.t2 <= c``, so it is known and walked.
      Kept in the known walk, it would tie with B, which the rule
      excludes.  Dropped there, it was dropped by B, or by an event kept
      and walked before it, so with ``t2 >= B.t2 >= E.t2`` and within
      EVENT_MERGE_TOL of E's t2, hence of B's (rounding is monotone),
      which the rule excludes too;
    - every event with ``t1 >= c`` has ``t2 > t1 >= c >= B.t2``.

    So B is the answer.  Once every row of the whole trace is paired,
    reach and c are infinite and the rule is the whole walk.

    The prefix changes no event.  The class rule seeds classes in trace
    order, so in each chart the prefix's classes are the whole trace's
    restricted to its chords, and a chart is wide in the prefix only if it
    is in the whole trace.  A pair the prefix skips and the whole trace
    pairs is thus in one class of a chart that is wide only in the whole
    trace, and it is no proper crossing: both chords are within
    ``PROPER_ANGLE_TOL / 4`` (as a cross product) of the class's first
    direction, so their projective angle is about ``PROPER_ANGLE_TOL / 2``
    at most, the kernel's arccos of their dot product is within 3e-8 of
    it, and the kernel's angle test rejects the pair.
    """
    end = PREFIX * trace_.length
    prefix = trace_._prefix_index(end)
    if prefix is not None:
        first = _earliest(prefix, trace_.length, end)
        if first is not None:
            return first
    return _earliest(trace_.index, trace_.length, math.inf)


@functools.lru_cache(maxsize=1)
def _sample_points(surface: FlatSurface, samples: int, seed: int):
    """Area-uniform points, deterministic in seed: read-only ``(tri, x,
    y)``, each point's dense triangle index and chart coordinates, in the
    order drawn.  A scan measures every simple direction against the same
    set, so the last one is kept."""
    tab = _trace_tables(surface)
    rng = np.random.default_rng(seed)
    tri = tab.cdf.searchsorted(rng.random(samples), side="right")  # rng.choice(p=...)'s draw
    u = np.sqrt(rng.uniform(size=samples))
    v = rng.uniform(size=samples)
    a, b, c = tab.corner_xy.take(tri, 2)
    out = (tri, *(a * (1 - u) + b * (u * (1 - v)) + c * (u * v)))
    for col in out:
        col.flags.writeable = False
    return out


def _hits(ix: ChordIndex, qs, qc, qx, qy, epsilon: float, size: int, nearest: bool = False) -> np.ndarray:
    """Which of ``size`` samples lie within epsilon of a chord: query k,
    sample ``qs[k]`` at ``(qx[k], qy[k])`` in chart ``qc[k]``, is measured
    in each class of its chart against the chords in its band, or with
    ``nearest`` against the two next to its offset."""
    first = ix.classes[qc]
    n = ix.classes[qc + 1] - first
    qi = np.repeat(np.arange(len(qc)), n)
    g = first[qi] + np.arange(len(qi)) - np.repeat(np.cumsum(n) - n, n)
    x, y = qx[qi], qy[qi]
    off = x * ix.normals[g, 0] + y * ix.normals[g, 1]
    keys, order, bounds = ix.bands
    if nearest:
        start, end = bounds[g], bounds[g + 1]
        lo = np.clip(np.searchsorted(keys, g + 1j * off) - 1, start, np.maximum(end - 2, start))
        count = np.minimum(end - start, 2)
    else:
        R = math.sqrt(2.0) * (np.maximum(np.abs(x), np.abs(y)) + ix.pmax[qc[qi]])
        width = epsilon + (math.pi / 2) * ix.spreads[g] * R + 1e-9 * (1.0 + R)
        lo = np.searchsorted(keys, g + 1j * (off - width))
        count = np.searchsorted(keys, g + 1j * (off + width), "right") - lo
    # One (query, chord) pair per chord measured.
    ci = order[np.arange(count.sum()) + np.repeat(lo + count - np.cumsum(count), count)]
    px, py, ux, uy, L = np.take(ix.cols[:5], ci, 1)
    wx, wy = np.repeat(x, count) - px, np.repeat(y, count) - py
    proj = np.clip(wx * ux + wy * uy, 0.0, L)
    dx, dy = wx - proj * ux, wy - proj * uy
    hit = np.zeros(size, dtype=bool)
    hit[np.repeat(qs[qi], count)[np.sqrt(dx * dx + dy * dy) < epsilon]] = True
    return hit


def _covered(surface: FlatSurface, trace_: GeodesicTrace, epsilon: float, samples: int, seed: int) -> np.ndarray:
    """Whether each point of ``_sample_points``, in its order, lies within
    epsilon of the trace, as ``density_estimate`` counts it."""
    tri, x, y = _sample_points(surface, samples, seed)
    ix, tab = trace_.index, _trace_tables(surface)
    if not len(ix.tris):
        return np.zeros(samples, dtype=bool)
    chart_of = np.full(len(tab.id2dense), -1)
    chart_of[[tab.id2dense[_triangle(surface, t).id] for t in ix.tris.tolist()]] = np.arange(len(ix.tris))
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

    A verdict is the surface's for a sample farther than ``epsilon (1 + 1 /
    sin(beta))`` from each corner of its chart, beta the smallest corner
    angle: a geodesic segment shorter than epsilon that crosses two edges
    (or the line of an edge beyond its end) cuts the corner where they
    meet, so it passes within ``epsilon / sin(beta)`` of it.  Nearer a
    corner a sample may count as uncovered although the trace is within
    epsilon.  Raises ValueError unless ``epsilon`` is positive and finite,
    ``samples`` an integer of at least 1 and ``seed`` one of at least 0.
    """
    epsilon, samples, seed = float_arg("epsilon", epsilon), int_arg("samples", samples, 1), int_arg("seed", seed, 0)
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
    Raises ValueError, before any angle is computed, for a face group that
    names a triangle not on the surface or is not joined by its own gluings.
    """
    if surface.euler_characteristic != 2:
        raise NotConvex("angle spectrum needs a topological sphere")
    cones = surface.cone_points()
    if any(v.curvature <= 0 for v in cones):
        raise NotConvex("angle spectrum needs strictly positive curvatures")

    ix = trace_.index
    spans = dict(zip(ix.tris.tolist(), zip(ix.rows[:-1].tolist(), ix.rows[1:].tolist())))
    D = ix.cols[2:4].T
    developed: list[list[Vec]] = []  # each group's chord directions, in the group's plane
    for group in face_partition:
        group_set = set(group)
        placement = {group[0]: PlaneIsometry.identity()} if group and surface.has_triangle(group[0]) else {}
        queue = list(placement)
        while queue:
            cur = queue.pop(0)
            for e in range(3):
                ref, iso = surface.edge_transition(cur, e)
                if ref.tri in group_set and ref.tri not in placement:
                    placement[ref.tri] = placement[cur].compose(iso.inverse())
                    queue.append(ref.tri)
        loose = [t for t in group if t not in placement]
        if loose:
            raise ValueError(f"face group {group}: triangle {loose[0]} is off the surface or not joined to the group")
        developed.append([])
        for tri_id in (t for t in group if t in spans):
            m = placement[tri_id].matrix()
            a, b = spans[tri_id]
            developed[-1] += [(m[0] * d[0] + m[1] * d[1], m[2] * d[0] + m[3] * d[1]) for d in D[a:b]]
    observed = [unsigned_angle(u, v) for dirs in developed for u, v in itertools.combinations(dirs, 2)]

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

    Every direction is traced to ``length``; the verdict is the trace's
    termination kind if it stops early (``vertex_hit`` with its hit
    parameter, or ``left_domain``), else ``self_intersecting`` (with its
    earliest crossing, the one with the smallest (t2, t1), from
    ``self_intersections``) or ``simple`` (with a density report at
    ``epsilon``).  Deterministic given the seed.
    Raises ValueError before any angle is drawn for an ``n`` that is not an
    integer from 1 to MAX_DIRECTIONS and for any argument that ``trace`` or
    ``density_estimate`` would reject.
    """
    n, length, epsilon = int_arg("n", n, 1, MAX_DIRECTIONS), float_arg("length", length), float_arg("epsilon", epsilon)
    seed, density_samples = int_arg("seed", seed, 0), int_arg("density_samples", density_samples, 1)
    vertex_clearance = float_arg("vertex_clearance", vertex_clearance, surface.tolerance)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    rows: list[DirectionVerdict] = []
    for i, ang in enumerate(angles):
        d = (math.cos(ang), math.sin(ang))
        tr = trace(surface, TangentDirection(p, d), length, vertex_clearance)
        term = tr.termination
        if term.kind != LENGTH_REACHED:
            rows.append(DirectionVerdict(i, float(ang), term.kind, hit_parameter=term.parameter))
            continue
        first = self_intersections(surface, tr)
        if first is not None:
            rows.append(DirectionVerdict(i, float(ang), "self_intersecting", first_event=first))
        else:
            rep = density_estimate(surface, tr, epsilon, density_samples, seed + 1)
            rows.append(DirectionVerdict(i, float(ang), "simple", density=rep))
    return ScanResult(tuple(rows))
