import hashlib
import json
import math
import re
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    band_hits,
    dense_near_chords,
    edge_midpoint_tangent,
    incenter_point,
    reference_charts,
    reference_events,
    reference_first_event,
    reference_self_intersections,
    segments_intersect,
)

import flatgeo.analysis as analysis
from flatgeo.analysis import (
    EVENT_MERGE_TOL,
    MAX_DIRECTIONS,
    PROPER_ANGLE_TOL,
    IntersectionEvent,
    SegmentPair,
    closed_geodesic_detect,
    coface_angle_spectrum,
    density_estimate,
    direction_scan,
    lap_criterion,
    segment_pair_endpoints,
    self_intersections,
)
from flatgeo.builders import (
    CATALOG_PARALLEL,
    L_SHAPE,
    catalog,
    cube_face_partition,
    cube_surface,
    double_of_polygon,
    flat_torus,
    isosceles_tetrahedron,
    random_star_polygon,
)
from flatgeo.errors import CoincidentMidpoints, NotConvex
from flatgeo.geometry import cross, unsigned_angle
from flatgeo.surface import diameter_estimate
import flatgeo.tracer as tracer
from flatgeo.tracer import (
    LENGTH_REACHED,
    GeodesicTrace,
    SurfacePoint,
    TangentDirection,
    Termination,
    locate,
    tangent_representatives,
    trace,
    truncate,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# --- the segment-pair criterion ------------------------------------------------


def test_lap_criterion_parallel_disjoint():
    # sin(delta) = 0 forces the right side to zero: disjoint verticals
    pair = SegmentPair((0.0, 0.0), (1.0, 0.0), math.pi / 2, math.pi / 2, 0.4)
    assert lap_criterion(pair) is False


def test_lap_criterion_boundary_touch():
    # segments meeting exactly at (1/2, 1/2): equality case is an intersection
    pair = SegmentPair((0.0, 0.0), (1.0, 0.0), math.pi / 4, 3 * math.pi / 4, math.sqrt(2) / 2)
    assert lap_criterion(pair) is True
    a1, b1, a2, b2 = segment_pair_endpoints(pair)
    assert segments_intersect(a1, b1, a2, b2, tol=1e-12)


def test_lap_criterion_coincident_midpoints():
    with pytest.raises(CoincidentMidpoints):
        lap_criterion(SegmentPair((0.3, 0.3), (0.3, 0.3), 0.1, 0.2, 1.0))


def conforming_pairs(rng, count):
    """Random SegmentPairs whose first endpoints share a half-plane."""
    out = []
    while len(out) < count:
        m1 = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        m2 = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        if math.dist(m1, m2) < 1e-3:
            continue
        a1 = float(rng.uniform(0, 2 * math.pi))
        a2 = float(rng.uniform(0, 2 * math.pi))
        half = float(rng.uniform(0.05, 3.0))
        pair = SegmentPair(m1, m2, a1, a2, half)
        e1, _b1, e2, _b2 = segment_pair_endpoints(pair)
        s1 = cross(m2[0] - m1[0], m2[1] - m1[1], e1[0] - m1[0], e1[1] - m1[1])
        s2 = cross(m2[0] - m1[0], m2[1] - m1[1], e2[0] - m1[0], e2[1] - m1[1])
        if s1 * s2 <= 0:
            continue
        out.append(pair)
    return out


def criterion_margin(pair):
    d = math.dist(pair.m1, pair.m2)
    lhs = d * max(abs(math.sin(pair.alpha1)), abs(math.sin(pair.alpha2)))
    rhs = pair.half_length * abs(math.sin(pair.alpha2 - pair.alpha1))
    return abs(lhs - rhs)


def test_lap_criterion_against_brute_force():
    rng = np.random.default_rng(12345)
    pairs = conforming_pairs(rng, 3000)
    checked = 0
    for pair in pairs:
        if criterion_margin(pair) <= 1e-6:
            continue
        a1, b1, a2, b2 = segment_pair_endpoints(pair)
        brute = segments_intersect(a1, b1, a2, b2)
        assert lap_criterion(pair) == brute
        checked += 1
    assert checked > 2500


def test_non_intersecting_bound():
    # disjoint conforming pairs obey |sin delta| < d / half_length
    rng = np.random.default_rng(777)
    seen = 0
    for pair in conforming_pairs(rng, 2000):
        if criterion_margin(pair) <= 1e-6:
            continue
        a1, b1, a2, b2 = segment_pair_endpoints(pair)
        if not segments_intersect(a1, b1, a2, b2):
            d = math.dist(pair.m1, pair.m2)
            assert abs(math.sin(pair.alpha2 - pair.alpha1)) < d / pair.half_length
            seen += 1
    assert seen > 400


# --- self-intersections ---------------------------------------------------------


def test_torus_traces_never_self_intersect():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    rng = np.random.default_rng(31)
    for _ in range(5):
        ang = float(rng.uniform(0, 2 * math.pi))
        tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.25)), (math.cos(ang), math.sin(ang))), 60.0)
        if tr.termination.kind != LENGTH_REACHED:
            continue
        assert self_intersections(s, tr) is None


def test_tetrahedron_strict_traces_simple():
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    mid, d = edge_midpoint_tangent(s, 0, 0, math.atan(1.0 / 7.0))
    tr = trace(s, TangentDirection(SurfacePoint(0, mid), d), 200.0)
    assert tr.termination.kind == LENGTH_REACHED
    assert self_intersections(s, tr) is None


CUBE_FIRST_EVENT = (0.6832432841019034, 5.235759602457856, 1.5707963267948966)


def test_cube_trace_self_intersects_regression():
    s = cube_surface()
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.3)), (math.cos(0.3), math.sin(0.3))), 50.0)
    assert len(reference_events(tr)) == 101
    first = self_intersections(s, tr)
    assert type(first) is IntersectionEvent and type(first.point.tri) is int
    assert first.t1 == pytest.approx(CUBE_FIRST_EVENT[0], abs=1e-9)
    assert first.t2 == pytest.approx(CUBE_FIRST_EVENT[1], abs=1e-9)
    assert first.angle == pytest.approx(CUBE_FIRST_EVENT[2], abs=1e-9)


def test_events_locate_consistently():
    s = cube_surface()
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.3)), (math.cos(0.3), math.sin(0.3))), 50.0)
    for ev in reference_events(tr):
        assert 1e-6 < ev.angle < math.pi - 1e-6
        p1 = locate(tr, ev.t1)
        p2 = locate(tr, ev.t2)
        for p in (p1, p2):
            reps = tangent_representatives(s, p, (1.0, 0.0), tol=1e-6)
            match = min(
                (math.dist(xy, ev.point.xy) for tri, xy, _v in reps if tri == ev.point.tri),
                default=math.inf,
            )
            assert match < 1e-7


def _pairwise_oracle(tr):
    """Proper crossings (t1, t2), one segments_intersect call per same-chart chord pair."""
    found = []
    for a, b in combinations(tr.segments, 2):
        if a.tri != b.tri:
            continue
        ang = unsigned_angle(a.direction, b.direction)
        if not PROPER_ANGLE_TOL < ang < math.pi - PROPER_ANGLE_TOL:
            continue
        if not segments_intersect(a.entry, a.exit, b.entry, b.exit, tol=1e-12):
            continue
        wx, wy = b.entry[0] - a.entry[0], b.entry[1] - a.entry[1]
        denom = cross(*a.direction, *b.direction)
        ta = a.t0 + cross(wx, wy, *b.direction) / denom
        tb = b.t0 + cross(wx, wy, *a.direction) / denom
        if abs(tb - ta) > EVENT_MERGE_TOL:
            found.append((min(ta, tb), max(ta, tb)))
    merged = []
    for t1, t2 in sorted(found):
        if not merged or max(abs(merged[-1][0] - t1), abs(merged[-1][1] - t2)) > EVENT_MERGE_TOL:
            merged.append((t1, t2))
    return merged


def _surface(catalog_surfaces, name):
    """A catalog surface, or ``star-double-<seed>``: the double of a random star polygon."""
    if name.startswith("star-double-"):
        return double_of_polygon(random_star_polygon(np.random.default_rng(int(name.rsplit("-", 1)[1]))))
    return catalog_surfaces[name]


# The non-parallel catalog surfaces: quarter-turn or reflection holonomy
# gives their chords two direction classes, so crossings number in the
# thousands.  Each length puts 900-1800 chords in the trace.  A random
# star double has infinite holonomy: its charts do not cluster, so each
# is one wide class whose pairs are all tested.
ORACLE_LENGTHS = {
    "klein-bottle": 283.0, "cube": 800.0, "ring-double": 1300.0, "example1": 400.0, "star-double-11": 263.0,
}


@pytest.mark.parametrize("name", ORACLE_LENGTHS)
def test_self_intersections_match_pairwise_oracle_on_large_charts(catalog_surfaces, name):
    s = _surface(catalog_surfaces, name)
    start = TangentDirection(incenter_point(s), (math.cos(0.3), math.sin(0.3)))
    tr = trace(s, start, ORACLE_LENGTHS[name])
    assert tr.termination.kind == LENGTH_REACHED
    assert max(Counter(seg.tri for seg in tr.segments).values()) > 100
    events = [(e.t1, e.t2) for e in reference_events(tr)]
    assert len(events) > 1000 and events == _pairwise_oracle(tr)


# sha256 of the six event columns (t1, t2, tri, px, py, angle) on the traces
# above, as the one-pass kernel gave them before the windowed search; the
# reference list must stay element-wise identical, and ``self_intersections``
# must return its earliest event.
GOLDEN_EVENT_DIGESTS = {
    "klein-bottle": "657a88f6a1cde6567e5dfa6e1d780c8936fe136ac40af4d208cc6c11355f5732",
    "cube": "739dc5ded4add211c550cc849573d4f16cce3d634f02e4eb650eaac033d6c714",
    "ring-double": "c6b578841ba4742ef8ed5be37bea697caac4200b779e9f0760e5074d02263eb3",
    "example1": "e5cf0c89300a34ffd07caf6c0df4739f9822ed1abdce485a3590088577f07249",
    "star-double-11": "47ccc60d9551df24b13a2f01bbd319d392db80e3e5851672cc43a9235dd2b038",
}


@pytest.mark.parametrize("name", ORACLE_LENGTHS)
def test_all_events_match_golden_digest(catalog_surfaces, name):
    s = _surface(catalog_surfaces, name)
    tr = trace(s, TangentDirection(incenter_point(s), (math.cos(0.3), math.sin(0.3))), ORACLE_LENGTHS[name])
    cols = reference_self_intersections(tr)
    h = hashlib.sha256()
    for col in cols:
        h.update(np.ascontiguousarray(col).tobytes())
    assert cols[2].dtype == np.int64
    assert h.hexdigest() == GOLDEN_EVENT_DIGESTS[name]
    assert self_intersections(s, tr) == reference_first_event(tr)


def record_windows(monkeypatch) -> list:
    """Patch ``analysis._window_events`` to append each window's rows to
    the list returned."""
    windows = []
    window_events = analysis._window_events

    def record(ix_, rows):
        windows.append(rows)
        return window_events(ix_, rows)

    monkeypatch.setattr(analysis, "_window_events", record)
    return windows


def spy_index(monkeypatch) -> list:
    """Patch ``_chord_index`` to append the number of chords of each index
    built to the list returned."""
    sizes = []
    build = tracer._chord_index

    def record(tri, cols):
        sizes.append(len(tri))
        return build(tri, cols)

    monkeypatch.setattr(tracer, "_chord_index", record)
    return sizes


def test_self_intersections_returns_none_without_a_crossing(monkeypatch):
    windows = record_windows(monkeypatch)
    indexed = spy_index(monkeypatch)
    # Each chart of a torus trace holds one direction class: the answer
    # comes before any window is paired, and the chords of the first
    # eighth get no index of their own.
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.25)), (0.6, 0.8)), 60.0)
    assert tr.termination.kind == LENGTH_REACHED
    assert self_intersections(s, tr) is None and windows == []
    assert indexed == [len(tr.chords)]
    # A zero-length trace, two zero-length chords of two classes in one
    # chart: tau starts at infinity, so one window pairs both rows.
    rows = [(5, 0.1, 0.1, 0.1, 0.1, 1.0, 0.0, 0.0, 0.0, 0), (5, 0.1, 0.1, 0.1, 0.1, 0.0, 1.0, 0.0, 0.0, -1)]
    start = TangentDirection(SurfacePoint(5, (0.1, 0.1)), (1.0, 0.0))
    tr = GeodesicTrace._from_rows(start, rows, 0.0, Termination(LENGTH_REACHED))
    assert self_intersections(None, tr) is None
    assert [w.tolist() for w in windows] == [[0, 1]]
    # A stated length whose first window underflows to zero is one window
    # too, not a window that never grows.
    tr = GeodesicTrace._from_rows(start, rows, 5e-324, Termination(LENGTH_REACHED))
    assert analysis.FIRST_WINDOW * tr.length == 0.0
    assert self_intersections(None, tr) is None
    assert [w.tolist() for w in windows] == [[0, 1], [0, 1]]


def test_self_intersections_without_crossings_pairs_every_row_in_windows(catalog_surfaces, monkeypatch):
    # Two charts of this short ring-double trace hold two direction
    # classes, but the trace never crosses itself: the doubling windows
    # must then tile every chart's rows before answering None.
    s = catalog_surfaces["ring-double"]
    tr = trace(s, TangentDirection(incenter_point(s), (math.cos(0.56), math.sin(0.56))), 12.0)
    assert tr.termination.kind == LENGTH_REACHED
    ix = tr.index
    multi = np.flatnonzero(np.diff(ix.classes) > 1)
    assert len(multi) >= 2
    windows = record_windows(monkeypatch)
    assert self_intersections(s, tr) is None
    assert len(windows) > 1
    # Each chart's rows, window after window, are its rows in order.
    paired = np.concatenate(windows)
    for c in multi:
        assert paired[ix.chart[paired] == c].tolist() == list(range(ix.rows[c], ix.rows[c + 1]))
    assert np.isin(ix.chart[paired], multi).all()
    assert reference_events(tr) == []


def test_self_intersections_breaks_ties_across_windows_in_chart_order():
    # Charts 7 and 3 each see the same crossing at (2, 0), at t = (3.5, 5.5)
    # bit for bit; the merge keeps chart 7's, which appears first.  Chart
    # 3's pair is found in the first window (t0 < 1) and chart 7's only in
    # the third, whose lower end 2 is its row's t0.
    def row(tri, p, d, length, t0):
        return (tri, *p, p[0] + length * d[0], p[1] + length * d[1], *d, t0, length, -1)

    east, north = (1.0, 0.0), (0.0, 1.0)
    rows = [
        row(7, (0.0, 100.0), east, 0.25, 0.0),
        row(3, (-1.0, 0.0), east, 4.0, 0.5),
        row(7, (0.5, 0.0), east, 2.0, 2.0),
        row(7, (2.0, -1.0), north, 2.0, 4.5),
        row(3, (2.0, -1.0), north, 2.0, 4.5),
    ]
    tr = GeodesicTrace._from_rows(
        TangentDirection(SurfacePoint(7, (0.0, 100.0)), east), rows, 64.0, Termination(LENGTH_REACHED)
    )
    first = IntersectionEvent(3.5, 5.5, SurfacePoint(7, (2.0, 0.0)), math.pi / 2)
    assert reference_events(tr) == [first]
    assert self_intersections(None, tr) == first


def test_self_intersections_of_held_steps_breaks_a_tie_on_the_whole_index(monkeypatch):
    # A trace holding its rows as a list of values sees one crossing from
    # charts 7 and 3 at t = (1, 5) bit for bit, both pairs entering before
    # 1/8 of its length: at chart 7's (1, 0), where its first chord ends and
    # its second starts, and at chart 3's (0, 0), where its two chords start.
    # The first-eighth search cannot certify a tie, so the whole index
    # decides, and the merge keeps chart 7's event, which appears first.
    east, north = (1.0, 0.0), (0.0, 1.0)
    chords = [
        (7, (0.0, 0.0), east, 1.0),  # chart 7, t0 = 0
        (3, (0.0, 0.0), east, 1.0),  # chart 3, t0 = 1
        (5, (0.0, 0.0), east, 1.0),
        (7, (1.0, -2.0), north, 2.0),  # chart 7, t0 = 3
        (3, (0.0, 0.0), north, 1.0),  # chart 3, t0 = 5
        (5, (0.0, 0.0), east, 100.0),
        (5, (0.0, 0.0), east, 1.0),  # enters at 106, after 107 / 8
    ]
    flat, t0 = [], 0.0
    for tri, p, d, ln in chords:
        flat += (tri, *p, p[0] + ln * d[0], p[1] + ln * d[1], *d, t0, ln, -1)
        t0 += ln
    start = TangentDirection(SurfacePoint(7, (0.0, 0.0)), east)
    tr = GeodesicTrace(start, 107.0, Termination(LENGTH_REACHED), flat)
    indexed = spy_index(monkeypatch)
    first = IntersectionEvent(1.0, 5.0, SurfacePoint(7, (1.0, 0.0)), math.pi / 2)
    assert self_intersections(None, tr) == first
    assert indexed == [6, 7]  # the first eighth, then the whole trace
    assert reference_events(tr) == [first]


def test_scan_decides_an_early_crossing_on_the_first_eighth(monkeypatch):
    # Seed 1's direction on the cube, at 400 diameters, crosses itself
    # within 0.005 of its length: the scan indexes only the chords that
    # enter before PREFIX of the length, and never reads the whole rows.
    s = cube_surface()
    p, length = incenter_point(s), 400.0 * diameter_estimate(s)
    indexed = spy_index(monkeypatch)

    def no_rows(*args):
        raise AssertionError("chord rows built")

    monkeypatch.setattr(tracer.GeodesicTrace, "chords", property(no_rows))
    (row,) = direction_scan(s, p, 1, length, 0.05, 1).rows
    monkeypatch.undo()
    tr = trace(s, TangentDirection(p, (math.cos(row.angle), math.sin(row.angle))), length)
    assert row.kind == "self_intersecting" and row.first_event == reference_first_event(tr)
    assert row.first_event.t2 < 0.005 * length
    assert indexed == [np.count_nonzero(tr.chords[:, 7] < analysis.PREFIX * length)] and indexed[0] < len(tr.chords)


# --- density --------------------------------------------------------------------


def test_density_epsilon_larger_than_surface():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 1.5)
    rep = density_estimate(s, tr, epsilon=5.0, samples=500, seed=1)
    assert rep.covered_fraction == 1.0


def test_density_slope_zero_strip_oracle():
    # covered set is the strip |y - 0.5| < eps of exact area 2*eps
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 500.0)
    rep = density_estimate(s, tr, epsilon=0.05, samples=2000, seed=42)
    assert rep.covered_fraction == pytest.approx(0.1, abs=0.03)
    assert rep.covered_fraction <= 0.25


def test_density_golden_slope_dense():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    d = (1.0 / math.hypot(1, GOLDEN), GOLDEN / math.hypot(1, GOLDEN))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.25)), d), 500.0)
    rep = density_estimate(s, tr, epsilon=0.05, samples=2000, seed=42)
    assert rep.covered_fraction >= 0.99


def test_density_monotone_in_length():
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    mid, d = edge_midpoint_tangent(s, 0, 0, 0.61)
    tr = trace(s, TangentDirection(SurfacePoint(0, mid), d), 120.0)
    fracs = [
        density_estimate(s, truncate(tr, L), 0.05, 1500, 9).covered_fraction
        for L in (5.0, 15.0, 40.0, 120.0)
    ]
    assert fracs == sorted(fracs)


def assert_band_matches_dense(s, tr, epsilon, samples, seed=1):
    """Per-sample verdicts of the banded test equal the dense ones, in the
    sample's own chart and in each neighbour's, as density_estimate
    measures them; returns (samples within epsilon, samples tested)."""
    near = tested = 0
    charts = reference_charts(tr)
    dense_tri, x, y = analysis._sample_points(s, samples, seed)
    for d in np.unique(dense_tri):
        tri, P = s.triangles[d].id, np.column_stack((x[dense_tri == d], y[dense_tri == d]))
        frames = [(tri, P)]
        for e in range(3):
            ref, iso = s.edge_transition(tri, e)
            m = iso.matrix()
            Q = np.column_stack((m[0] * P[:, 0] + m[1] * P[:, 1] + m[4], m[2] * P[:, 0] + m[3] * P[:, 1] + m[5]))
            frames.append((ref.tri, Q))
        for chart, Q in frames:
            if chart not in charts:
                continue
            cP, cD, cL, _t0 = charts[chart]
            band = band_hits(tr, chart, Q, epsilon)
            assert np.array_equal(band, dense_near_chords(Q, cP, cD, cL, epsilon))
            near += int(np.count_nonzero(band))
            tested += len(Q)
    return near, tested


# Six one-class (parallel) catalog surfaces, four two-class ones and two
# random star doubles, whose charts do not cluster and are one wide class.
BAND_SURFACES = [name for name, _s in catalog()] + ["star-double-3", "star-double-11"]


@pytest.mark.parametrize("name", BAND_SURFACES)
def test_density_band_matches_dense_oracle(catalog_surfaces, name):
    s = _surface(catalog_surfaces, name)
    tr = trace(s, TangentDirection(incenter_point(s), (math.cos(0.3), math.sin(0.3))), 50.0 * diameter_estimate(s))
    ix = tr.index
    if name.startswith("star"):
        assert ix.wide.any() and 1.0 in ix.spreads  # a wide class: every chord in the band
    else:
        assert np.diff(ix.classes).max() == 1 + (not CATALOG_PARALLEL[name]) and ix.spreads.max() < 1e-12
    for epsilon in (0.01, 0.05):
        near, tested = assert_band_matches_dense(s, tr, epsilon, samples=2000)
        assert 0 < near < tested


# --- closed geodesics -----------------------------------------------------------


def surface_point_matches(surface, a: SurfacePoint, b: SurfacePoint, tol=1e-7):
    reps = tangent_representatives(surface, a, (1.0, 0.0), tol=tol)
    return any(tri == b.tri and math.dist(xy, b.xy) <= tol for tri, xy, _v in reps)


def test_closed_geodesic_periods_on_torus():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 3.5)
    assert closed_geodesic_detect(s, tr) == pytest.approx(1.0, abs=1e-9)
    d = (2.0 / math.sqrt(5), 1.0 / math.sqrt(5))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.5)), d), 5.0)
    assert closed_geodesic_detect(s, tr) == pytest.approx(math.sqrt(5), abs=1e-9)


def test_closed_geodesic_none_for_irrational_slope():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    d = (1.0 / math.hypot(1, GOLDEN), GOLDEN / math.hypot(1, GOLDEN))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.25)), d), 40.0)
    assert closed_geodesic_detect(s, tr) is None


def test_period_divides_later_recurrences():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    d = (2.0 / math.sqrt(5), 1.0 / math.sqrt(5))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.5)), d), 3.2 * math.sqrt(5))
    period = closed_geodesic_detect(s, tr)
    start = tr.start.at
    for k in (1, 2, 3):
        assert surface_point_matches(s, locate(tr, k * period), start)


# --- co-face angle spectrum -----------------------------------------------------


def test_spectrum_tetrahedron_parallel_arcs():
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    mid, d = edge_midpoint_tangent(s, 0, 0, math.atan(1.0 / 7.0))
    tr = trace(s, TangentDirection(SurfacePoint(0, mid), d), 100.0)
    rep = coface_angle_spectrum(s, tr, [[0], [1], [2], [3]])
    assert rep.all_matched
    for a in rep.angles:
        assert min(abs(a), abs(a - math.pi)) < 1e-6


def test_spectrum_cube_quarter_turn_sums():
    s = cube_surface()
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.3)), (math.cos(0.3), math.sin(0.3))), 100.0)
    rep = coface_angle_spectrum(s, tr, cube_face_partition())
    assert rep.all_matched
    assert rep.allowed == pytest.approx((0.0, math.pi / 2, math.pi))
    for a in rep.angles:
        assert min(abs(a), abs(a - math.pi / 2), abs(a - math.pi)) < 1e-6


def test_spectrum_vacuous_on_short_trace():
    s = cube_surface()
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.3)), (1.0, 0.0)), 0.2)
    rep = coface_angle_spectrum(s, tr, cube_face_partition())
    assert rep.angles == ()
    assert rep.all_matched


def test_spectrum_rejects_non_convex():
    torus = flat_torus((1.0, 0.0), (0.0, 1.0))
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 1.0)
    with pytest.raises(NotConvex):
        coface_angle_spectrum(torus, tr, [[0, 1]])
    l_double = double_of_polygon(L_SHAPE)
    p = incenter_point(l_double)
    tr = trace(l_double, TangentDirection(p, (1.0, 0.0)), 1.0)
    with pytest.raises(NotConvex):
        coface_angle_spectrum(l_double, tr, [[t.id for t in l_double.triangles]])


@pytest.mark.parametrize("group, tri", [([999], 999), ([0, 4], 4)], ids=["off-surface", "not-joined"])
def test_spectrum_rejects_a_bad_face_group_before_any_angle(monkeypatch, group, tri):
    s = cube_surface()
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.5, 0.3)), (math.cos(0.3), math.sin(0.3))), 100.0)
    assert 4 in reference_charts(tr)

    def no_angle(*args):
        raise AssertionError("computed an angle")

    monkeypatch.setattr(analysis, "unsigned_angle", no_angle)
    with pytest.raises(ValueError, match=re.escape(f"face group {group}: triangle {tri} ")):
        coface_angle_spectrum(s, tr, [*cube_face_partition(), group])


# --- direction scan -------------------------------------------------------------


def test_scan_deterministic():
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    p = incenter_point(s)
    r1 = direction_scan(s, p, 12, 30.0, 0.05, seed=5)
    r2 = direction_scan(s, p, 12, 30.0, 0.05, seed=5)
    assert r1 == r2
    assert r1.to_csv() == r2.to_csv()


def test_scan_rejects_n_out_of_range_before_tracing(monkeypatch):
    s = flat_torus((1.0, 0.0), (0.0, 1.0))

    def no_trace(*args):
        raise AssertionError("traced a direction")

    monkeypatch.setattr(analysis, "trace", no_trace)
    for n in (0, MAX_DIRECTIONS + 1):
        with pytest.raises(ValueError):
            direction_scan(s, SurfacePoint(0, (0.4, 0.25)), n, 1.0, 0.05, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_negative_or_fractional_seed_is_named_before_tracing(monkeypatch, seed):
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    tr = trace(s, TangentDirection(SurfacePoint(0, (0.4, 0.25)), (1.0, 0.0)), 1.0)

    def no_trace(*args):
        raise AssertionError("traced a direction")

    monkeypatch.setattr(analysis, "trace", no_trace)
    message = f"seed must be a non-negative integer, got {seed}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        direction_scan(s, SurfacePoint(0, (0.4, 0.25)), 1, 1.0, 0.05, seed=seed)
    with pytest.raises(ValueError, match=f"^{message}$"):
        density_estimate(s, tr, 0.05, 100, seed)


@pytest.mark.parametrize("count", [2.5, True])
def test_fractional_or_bool_counts_are_named_before_tracing(monkeypatch, count):
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    p = SurfacePoint(0, (0.4, 0.25))
    tr = trace(s, TangentDirection(p, (1.0, 0.0)), 1.0)

    def no_trace(*args):
        raise AssertionError("traced a direction")

    monkeypatch.setattr(analysis, "trace", no_trace)
    with pytest.raises(ValueError, match=re.escape(f"samples must be a positive integer, got {count}")):
        density_estimate(s, tr, 0.05, count, 1)
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer between 1 and {MAX_DIRECTIONS}, got {count}")):
        direction_scan(s, p, count, 1.0, 0.05, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"density_samples must be a positive integer, got {count}")):
        direction_scan(s, p, 1, 1.0, 0.05, seed=0, density_samples=count)


def test_scan_cube_majority_self_intersecting():
    s = cube_surface()
    res = direction_scan(s, SurfacePoint(0, (0.4, 0.25)), 250, 100.0, 0.05, seed=2024)
    counts = res.counts()
    assert counts.get("self_intersecting", 0) == 247  # frozen census, seed 2024
    assert counts.get("self_intersecting", 0) > 125


def test_scan_tetrahedron_all_simple():
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    p = incenter_point(s)
    res = direction_scan(s, p, 40, 60.0, 0.05, seed=8)
    counts = res.counts()
    assert counts.get("self_intersecting", 0) == 0
    assert counts.get("simple", 0) + counts.get("vertex_hit", 0) == 40


def test_scan_ring_double_mostly_self_intersecting():
    # non-parallel despite half-turn curvatures: generic rays cross themselves
    from flatgeo.builders import ring_double

    s = ring_double()
    res = direction_scan(s, incenter_point(s), 100, 80.0, 0.05, seed=77)
    counts = res.counts()
    assert counts.get("self_intersecting", 0) == 96  # frozen census, seed 77
    assert counts.get("self_intersecting", 0) > 50


# sha256 of `direction_scan(...).to_csv()` from the incenter of each
# surface's first triangle, seed 424242, epsilon 0.05: 20 directions at
# 100 x diameter on the parallel surfaces (every row simple, so the
# digest covers covered_fraction) and 10 at 400 x diameter on cube and
# klein-bottle (every row self-intersecting, so it covers the first
# events).  A speedup must leave scan CSVs byte-identical.
GOLDEN_SCAN_DIGESTS = {
    "regular-tetrahedron": (20, 100.0, "4f4e1251ae63f7f9160937718dfc3d407a23bb20f19d0e822783f4a6788432ba"),
    "isosceles-tetrahedron": (20, 100.0, "3f042fe3630069dc5e3ecaa3a930c9ff0ef4926f1359e1350ed18130eb55dc31"),
    "unit-torus": (20, 100.0, "9215a92fda4dc35d390c956fbb5359143621728f9101b31c7b008c05622e2d8a"),
    "sheared-torus": (20, 100.0, "6bc2f39d824749a7da59e3e4c1042fcd651e73fba716d684f3833df37b169c1e"),
    "square-double": (20, 100.0, "9215a92fda4dc35d390c956fbb5359143621728f9101b31c7b008c05622e2d8a"),
    "l-double": (20, 100.0, "ef659d9286d6b07d69879c88285bb384a2e9221e40a71db2813df39d47f07bc6"),
    "cube": (10, 400.0, "0da7479530a84da42c6d73567357a1bb6f23009230f1977ea246a67195c4d08e"),
    "klein-bottle": (10, 400.0, "88812fbf58160852fd069fd9ad50731b7b1b892eda5ad7c79b704b02a197669b"),
}


@pytest.mark.parametrize("name", GOLDEN_SCAN_DIGESTS)
def test_scan_csv_matches_golden_digest(catalog_surfaces, name):
    s = catalog_surfaces[name]
    n, diameters, digest = GOLDEN_SCAN_DIGESTS[name]
    res = direction_scan(s, incenter_point(s), n, diameters * diameter_estimate(s), 0.05, seed=424242)
    assert hashlib.sha256(res.to_csv().encode()).hexdigest() == digest


# sha256 of the `scan --rows` file, `json.dumps({"rows": to_json_rows()})`
# plus a newline, for the scans of GOLDEN_SCAN_DIGESTS.  Recorded before the
# two row formatters shared one set of values per row.
GOLDEN_ROWS_DIGESTS = {
    "regular-tetrahedron": "300304e4ab6d4ded1e8ed974d9b717aeb1f22581cd788262739f5902bcd1b3cb",
    "isosceles-tetrahedron": "1491d572024a3a424ad3096fd44c86dde386c7058a7e1f1bdfd8dd5a3b352d21",
    "unit-torus": "400b4161fe776af45abedb467266d3d59067406b26767b197f0a54708cb28223",
    "sheared-torus": "3c93adb63601f7829a2dcd36700b6399d2031b0da0700b27bda54e0a1e4e5ac0",
    "square-double": "400b4161fe776af45abedb467266d3d59067406b26767b197f0a54708cb28223",
    "l-double": "fc04835a075f8b089db44243e24f5cbf756d4b7c160ba26cda0bc74c2d1b46ce",
    "cube": "4d6fbf8953a3b4f1706d9551448694cbb2b3e4ba95a7aad407f8068e8c1f1de5",
    "klein-bottle": "ff90a61df14e7764cdb49288400b96f3e8c1b6c9ca3c01792dcc19f60a8fe27e",
}


@pytest.mark.parametrize("name", GOLDEN_ROWS_DIGESTS)
def test_scan_rows_json_matches_golden_digest(catalog_surfaces, name):
    s = catalog_surfaces[name]
    n, diameters, _ = GOLDEN_SCAN_DIGESTS[name]
    res = direction_scan(s, incenter_point(s), n, diameters * diameter_estimate(s), 0.05, seed=424242)
    text = json.dumps({"rows": res.to_json_rows()}) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ROWS_DIGESTS[name]


def first_ray_hit(surface, tr, point, rays, length):
    """The shortest arc length, over ``rays`` evenly spread geodesic rays of
    ``length`` from ``point``, at which a ray meets a chord of ``tr`` in a
    common chart; inf when none does."""
    charts = reference_charts(tr)
    best = math.inf
    for j in range(rays):
        a = 0.1 + 2.0 * math.pi * j / rays
        ray = trace(surface, TangentDirection(point, (math.cos(a), math.sin(a))), length)
        for tri, ex, ey, _ox, _oy, dx, dy, t0, ln, _edge in ray.chords.tolist():
            if int(tri) not in charts:
                continue
            P, D, L, _T0 = charts[int(tri)]
            den = dx * D[:, 1] - dy * D[:, 0]
            wx, wy = P[:, 0] - ex, P[:, 1] - ey
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = (wx * D[:, 1] - wy * D[:, 0]) / den
                sig = (wx * dy - wy * dx) / den
            ok = (den != 0.0) & (tau >= 0.0) & (tau <= ln) & (sig >= 0.0) & (sig <= L)
            if ok.any():
                best = min(best, t0 + tau[ok].min())
    return best


@pytest.mark.parametrize("name, epsilon, length", [("unit-torus", 0.05, 7.0), ("square-double", 0.05, 14.0)])
def test_density_verdicts_match_a_ray_shooting_oracle(catalog_surfaces, name, epsilon, length):
    # A sample lies within epsilon of the trace when some geodesic segment
    # of length below epsilon from it meets the trace.  K rays of length
    # epsilon' = epsilon / cos(pi / K) sandwich that: a ray that meets the
    # trace before epsilon means covered, and a trace point at distance
    # delta < epsilon lies within pi / K of some ray's direction, which
    # meets the trace's line by delta / cos(pi / K) < epsilon'.
    #
    # The estimator looks one transition deep: a sample against the chords
    # of its own chart and of its three neighbours.  That is the surface
    # distance for a sample farther than r = epsilon' (1 + 1 / sin(beta))
    # from each corner of its chart, beta the smallest corner angle: a
    # segment of length epsilon' that crosses two edges (or the line of an
    # edge beyond its end) cuts the corner c where they meet, so by the
    # sine rule it passes within epsilon' / sin(beta) of c, and its start
    # within r.  The sandwich also needs the trace to run on past the
    # foot of the perpendicular, so samples within epsilon' of its two
    # ends are left out too.
    s = catalog_surfaces[name]
    samples, seed, rays = 300, 11, 32
    reach = epsilon / math.cos(math.pi / rays)
    beta = min(t.angle_at(k) for t in s.triangles for k in range(3))
    r = reach * (1.0 + 1.0 / math.sin(beta))
    tr = trace(s, TangentDirection(incenter_point(s), (math.cos(0.7), math.sin(0.7))), length)
    ends = [(tr.start.at.tri, tr.start.at.xy), (int(tr.chords[-1, 0]), tuple(tr.chords[-1, 3:5]))]
    covered = analysis._covered(s, tr, epsilon, samples, seed)
    dense_tri, x, y = analysis._sample_points(s, samples, seed)
    compared = n_covered = 0
    for i in range(samples):
        t = s.triangles[int(dense_tri[i])]
        q = (float(x[i]), float(y[i]))
        if min(math.dist(q, c) for c in t.corners) <= r:
            continue
        near_end = False
        for tri, xy in ends:
            if tri == t.id:
                near_end |= math.dist(q, xy) <= reach
            for e in range(3):
                ref, iso = s.edge_transition(t.id, e)
                near_end |= ref.tri == tri and math.dist(iso.apply(q), xy) <= reach
        if near_end:
            continue
        hit = first_ray_hit(s, tr, SurfacePoint(t.id, q), rays, reach)
        if hit < epsilon * (1.0 - 1e-9):
            assert covered[i], (i, hit)
        if covered[i]:
            assert hit <= reach * (1.0 + 1e-9), (i, hit)
        compared += 1
        n_covered += bool(covered[i])
    assert compared >= 0.6 * samples
    assert 0.2 * compared < n_covered < 0.8 * compared
