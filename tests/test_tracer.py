import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import check_trace, edge_midpoint_tangent, incenter_point, is_identity

from flatgeo.analysis import closed_geodesic_detect, density_estimate
from flatgeo.builders import PolygonSpec, cube_surface, double_of_polygon, flat_torus, isosceles_tetrahedron
from flatgeo.errors import ParameterOutOfRange, PointOutsideTriangle, TraceIncomplete
from flatgeo.geometry import PlaneIsometry
from flatgeo.jsonio import trace_from_json, trace_to_json
from flatgeo.render import CONE_COLOR, render_surface, render_unfolded
from flatgeo.surface import Triangle, build_surface
import flatgeo.tracer as tracer
from flatgeo.tracer import (
    LEFT_DOMAIN,
    LENGTH_REACHED,
    VERTEX_HIT,
    SurfacePoint,
    TangentDirection,
    _trace_tables,
    locate,
    reverse_check,
    trace,
    truncate,
    unfold,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def torus():
    return flat_torus((1.0, 0.0), (0.0, 1.0))


@pytest.fixture(scope="module")
def tetra():
    return isosceles_tetrahedron((1.0, 1.0, 1.0))


def test_horizontal_closed_geodesic(torus):
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 3.0)
    check_trace(torus, tr)
    assert tr.termination.kind == LENGTH_REACHED
    assert tr.length == pytest.approx(3.0)
    for t in (1.0, 2.0, 3.0):
        p = locate(tr, t)
        assert p.xy == pytest.approx((0.5, 0.5), abs=1e-12)


def test_trace_into_marked_vertex(torus):
    d = (-1.0 / SQRT2, -1.0 / SQRT2)
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), d), 3.0)
    assert tr.termination.kind == VERTEX_HIT
    assert tr.termination.parameter == pytest.approx(SQRT2 / 2, abs=1e-9)
    assert tr.length == pytest.approx(SQRT2 / 2, abs=1e-9)


def test_tetrahedron_long_strict_trace(tetra):
    mid, d = edge_midpoint_tangent(tetra, 0, 0, math.atan(1.0 / 7.0))
    tr = trace(tetra, TangentDirection(SurfacePoint(0, mid), d), 50.0)
    check_trace(tetra, tr)
    assert tr.termination.kind == LENGTH_REACHED


def test_locate_endpoints_and_range(torus):
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 2.0)
    assert locate(tr, 0.0).xy == pytest.approx((0.5, 0.5))
    assert locate(tr, 1.25).xy == pytest.approx((0.75, 0.5), abs=1e-12)
    last = tr.segments[-1]
    assert locate(tr, tr.length).xy == pytest.approx(last.exit)
    with pytest.raises(ParameterOutOfRange):
        locate(tr, -0.1)
    with pytest.raises(ParameterOutOfRange):
        locate(tr, 2.5)


@pytest.mark.parametrize("cut", [locate, truncate])
def test_nan_parameter_is_out_of_range(torus, cut):
    # Every comparison with NaN is false, so no range test may pass it.
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 2.0)
    with pytest.raises(ParameterOutOfRange):
        cut(tr, math.nan)


@pytest.mark.parametrize("value", [True, "1", None])
@pytest.mark.parametrize("cut", [locate, truncate])
def test_a_bool_or_non_real_parameter_is_out_of_range(torus, cut, value):
    # A bool is no arc length, though it compares as one; neither is a
    # string or None.  The error names the value.  A numpy real is one,
    # and a truncated trace's length is a float.
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 2.0)
    with pytest.raises(ParameterOutOfRange, match=re.escape(repr(value))):
        cut(tr, value)
    assert type(truncate(tr, np.float64(1.5)).length) is float
    assert locate(tr, np.float64(1.25)) == locate(tr, 1.25)


def test_locate_local_isometry(torus, tetra):
    from flatgeo.tracer import tangent_representatives

    rng = np.random.default_rng(11)
    for surface in (torus, tetra):
        p = incenter_point(surface)
        ang = float(rng.uniform(0, 2 * math.pi))
        tr = trace(surface, TangentDirection(p, (math.cos(ang), math.sin(ang))), 20.0)
        cross_chart = 0
        for _ in range(300):
            s = float(rng.uniform(0, tr.length - 0.08))
            t = s + float(rng.uniform(0, 0.08))
            a, b = locate(tr, s), locate(tr, t)
            if a.tri == b.tri:
                assert math.dist(a.xy, b.xy) == pytest.approx(t - s, abs=1e-9)
                continue
            # compare in a's chart through a representative of b; points
            # more than one transition apart have no shared chart and are
            # skipped
            dists = [
                math.dist(a.xy, xy)
                for tri, xy, _v in tangent_representatives(surface, b, (1.0, 0.0), tol=0.09)
                if tri == a.tri
            ]
            if dists:
                assert min(dists) == pytest.approx(t - s, abs=1e-9)
                cross_chart += 1
        assert cross_chart > 10


def test_unfold_single_segment(torus):
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.25)), (1.0, 0.0)), 0.2)
    placements, a, b = unfold(torus, tr)
    assert len(placements) == 1
    assert is_identity(placements[0][1])
    assert a == pytest.approx((0.5, 0.25))
    assert b == pytest.approx((0.7, 0.25))


def test_unfold_straightens_trace(torus, tetra):
    # slope-1/2 trace of length sqrt(5) develops to one straight segment
    d = (2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0))
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), d), math.sqrt(5.0))
    placements, a, b = unfold(torus, tr)
    assert len(placements) == len(tr.segments)
    assert b[0] - a[0] == pytest.approx(2.0, abs=1e-9)
    assert b[1] - a[1] == pytest.approx(1.0, abs=1e-9)
    # each developed segment keeps its chart length, and all chords are
    # collinear; the Klein bottle exercises reflecting transitions
    from flatgeo.builders import klein_bottle

    klein = klein_bottle()
    cases = (
        (torus, incenter_point(torus), d),
        (tetra, incenter_point(tetra), (math.cos(0.37), math.sin(0.37))),
        (klein, SurfacePoint(0, (0.5, 0.2)), (math.cos(0.9), math.sin(0.9))),
    )
    for surface, start, direction in cases:
        tr = trace(surface, TangentDirection(start, direction), 7.0)
        placements, a, b = unfold(surface, tr)
        ux, uy = b[0] - a[0], b[1] - a[1]
        ln = math.hypot(ux, uy)
        ux, uy = ux / ln, uy / ln
        for seg, (tri_id, iso) in zip(tr.segments, placements):
            pa = iso.apply(seg.entry)
            pb = iso.apply(seg.exit)
            assert math.dist(pa, pb) == pytest.approx(seg.length, abs=1e-9)
            cross = (pb[0] - pa[0]) * uy - (pb[1] - pa[1]) * ux
            assert abs(cross) < 1e-9
    assert any(iso.reflect for _tid, iso in unfold(klein, trace(klein, TangentDirection(SurfacePoint(0, (0.5, 0.2)), (math.cos(0.9), math.sin(0.9))), 6.0))[0])


def test_reverse_check_examples(torus, tetra):
    rng = np.random.default_rng(5)
    for _ in range(5):
        ang = float(rng.uniform(0, 2 * math.pi))
        r = reverse_check(torus, TangentDirection(SurfacePoint(0, (0.5, 0.25)), (math.cos(ang), math.sin(ang))), 10.0)
        assert r < 1e-7
    mid, d = edge_midpoint_tangent(tetra, 0, 0, 0.41)
    r = reverse_check(tetra, TangentDirection(SurfacePoint(0, mid), d), 100.0)
    assert r < 1e-6


def test_reverse_check_zero_length_like(torus):
    r = reverse_check(torus, TangentDirection(SurfacePoint(0, (0.5, 0.25)), (1.0, 0.0)), 1e-9)
    assert r < 1e-12


@pytest.mark.parametrize("y", [0.0, 1e-14, -1e-14])
def test_start_on_an_edge_pointing_out_crosses_it(torus, y):
    # On (or within 1e-14 of) the bottom edge of triangle 0, heading down:
    # the first chord has length 0 and the trace goes on across the edge.
    start = TangentDirection(SurfacePoint(0, (0.5, y)), (math.cos(-1.2), math.sin(-1.2)))
    tr = trace(torus, start, 5.0)
    assert tr.termination.kind == LENGTH_REACHED and tr.length == 5.0
    assert tr.chords[0, 8] == 0.0 and tr.chords[1, 0] == 1.0
    assert reverse_check(torus, start, 5.0) < 1e-12


def test_reverse_check_from_a_trace_ending_on_an_edge():
    # Horizontal chords of length 1/3 on this rectilinear double end the
    # forward trace within 3e-14 of an edge; the backward trace starts
    # there, heading out of its triangle.
    s = double_of_polygon(PolygonSpec(
        [(0, 0), (4, 0), (4, 3), (3, 3), (3, 5), (2, 5), (2, 3), (1, 3), (1, 4), (0, 4)]
    ))
    assert reverse_check(s, TangentDirection(incenter_point(s), (1.0, 0.0)), 30.0) < 1e-6


def test_reverse_check_raises_on_vertex_hit(torus):
    d = (-1.0 / SQRT2, -1.0 / SQRT2)
    with pytest.raises(TraceIncomplete):
        reverse_check(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), d), 3.0)


def test_reverse_check_builds_no_chord_rows(catalog_surfaces, monkeypatch):
    # Both legs reach their length, and neither reads its rows.
    def no_rows(*args):
        raise AssertionError("chord rows built")

    monkeypatch.setattr(tracer.GeodesicTrace, "chords", property(no_rows))
    for s in catalog_surfaces.values():
        start = TangentDirection(incenter_point(s), (math.cos(0.7), math.sin(0.7)))
        assert reverse_check(s, start, 20.0) < 1e-6


def test_trace_end_is_the_last_chord_row(catalog_surfaces, torus, monkeypatch):
    # _end reads the last row's values from the list, and from the array
    # once the rows are read, for every termination kind and for traces
    # read from JSON or truncated.
    def last_row(tr):
        tri, _ex, _ey, ox, oy, dx, dy, _t0, _ln, _edge = tr.chords[-1].tolist()
        return int(tri), (ox, oy), (dx, dy)

    # A torus whose triangle 1 has no exit candidates: a ray that enters it
    # finds no way out.
    stuck = flat_torus((1.0, 0.0), (0.0, 1.0))
    tab = tracer._TraceTables(stuck)
    dense = tab.id2dense[1]
    tab.exits[dense] = tuple((math.nan, math.nan, None, None, ()) for _ in tab.exits[dense])
    monkeypatch.setitem(tracer._TABLES, stuck, tab)
    traces = [
        trace(stuck, TangentDirection(incenter_point(stuck, 0), (0.6, 0.8)), 5.0),
        trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (-1.0 / SQRT2, -1.0 / SQRT2)), 3.0),
    ]
    for s in catalog_surfaces.values():
        for angle in (0.4, 2.9):
            tr = trace(s, TangentDirection(incenter_point(s), (math.cos(angle), math.sin(angle))), 30.0)
            if tr.termination.kind == LENGTH_REACHED:
                assert isinstance(tr._rows, list)  # the values, until the rows are read
                end = tr._end()
                assert end == last_row(tr) and np.shares_memory(tr.chords, tr._rows)
            traces += [tr, trace_from_json(trace_to_json(tr)), truncate(tr, 0.5 * tr.length)]
    assert {tr.termination.kind for tr in traces} == {LENGTH_REACHED, VERTEX_HIT, LEFT_DOMAIN}
    for tr in traces:
        assert tr._end() == last_row(tr)


FOREIGN_TRACE_READERS = {
    "density_estimate": lambda s, tr: density_estimate(s, tr, 0.05, 100, 1),
    "closed_geodesic_detect": closed_geodesic_detect,
    "render_unfolded": render_unfolded,
    "unfold": unfold,
}


@pytest.mark.parametrize("reader", FOREIGN_TRACE_READERS)
def test_a_trace_on_a_triangle_the_surface_lacks_is_refused(catalog_surfaces, reader):
    # An example1 trace in its triangle 18, read back from JSON, handed
    # with the cube, whose triangles are 0 to 11.
    ex = catalog_surfaces["example1"]
    a, b, c = ex.triangle(18).corners
    centroid = ((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)
    tr = trace_from_json(trace_to_json(trace(ex, TangentDirection(SurfacePoint(18, centroid), (1.0, 0.0)), 0.001)))
    with pytest.raises(PointOutsideTriangle, match="^no triangle with id 18$"):
        FOREIGN_TRACE_READERS[reader](cube_surface(), tr)


def test_start_outside_triangle_raises(torus):
    with pytest.raises(PointOutsideTriangle):
        trace(torus, TangentDirection(SurfacePoint(0, (0.2, 0.9)), (1.0, 0.0)), 1.0)


def test_vertex_hit_symmetric_under_reversal(tetra):
    # aim at a cone point from an interior point
    target = tetra.triangle(0).corners[0]
    start = incenter_point(tetra)
    d = (target[0] - start.xy[0], target[1] - start.xy[1])
    ln = math.hypot(*d)
    d = (d[0] / ln, d[1] / ln)
    tr = trace(tetra, TangentDirection(start, d), 2.0)
    assert tr.termination.kind == VERTEX_HIT
    tau = tr.termination.parameter
    assert tau == pytest.approx(ln, abs=1e-9)
    # back off the hit, reverse, and return to the start
    back = 1e-3
    p = locate(tr, tau - back)
    seg_dir = tr.segments[-1].direction
    rev = trace(tetra, TangentDirection(p, (-seg_dir[0], -seg_dir[1])), tau - back)
    assert rev.termination.kind == LENGTH_REACHED
    assert math.dist(rev.segments[-1].exit, start.xy) < 1e-9
    # and re-approaching hits the same vertex at the symmetric parameter
    fwd = trace(tetra, TangentDirection(p, seg_dir), 1.0)
    assert fwd.termination.kind == VERTEX_HIT
    assert fwd.termination.parameter == pytest.approx(back, abs=1e-6)
    assert fwd.termination.vertex == tr.termination.vertex


def test_chart_replacement_invariance(tetra):
    rng = np.random.default_rng(17)
    isos = {
        t.id: PlaneIsometry(
            False,
            float(rng.uniform(0, 2 * math.pi)),
            float(rng.normal()),
            float(rng.normal()),
        )
        for t in tetra.triangles
    }
    moved = build_surface(
        [Triangle(t.id, tuple(isos[t.id].apply(c) for c in t.corners)) for t in tetra.triangles],
        list(tetra.gluings),
    )
    mid, d = edge_midpoint_tangent(tetra, 0, 0, 0.77)
    tr = trace(tetra, TangentDirection(SurfacePoint(0, mid), d), 25.0)
    tr2 = trace(
        moved,
        TangentDirection(SurfacePoint(0, isos[0].apply(mid)), isos[0].apply_vector(d)),
        25.0,
    )
    assert len(tr.segments) == len(tr2.segments)
    for s1, s2 in zip(tr.segments, tr2.segments):
        assert s1.tri == s2.tri
        iso = isos[s1.tri]
        assert math.dist(iso.apply(s1.entry), s2.entry) < 1e-8
        assert math.dist(iso.apply(s1.exit), s2.exit) < 1e-8


def test_truncate(torus):
    tr = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 3.0)
    short = truncate(tr, 1.25)
    check_trace(torus, short)
    assert short.length == pytest.approx(1.25)
    assert locate(short, 1.25).xy == pytest.approx((0.75, 0.5), abs=1e-12)


def test_geodesic_trace_contract(torus):
    tr = trace(torus, TangentDirection(incenter_point(torus, 1), (math.cos(0.3), math.sin(0.3))), 6.0)
    assert tr.chords.dtype == np.float64
    assert tr.chords.shape == (len(tr.segments), 10)
    with pytest.raises(ValueError):
        tr.chords[0, 1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.length = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.chords = tr.chords.copy()
    assert tr.chords is tr.chords
    # segments is a view of the rows, built once; -1 marks the last chord's exit edge
    assert tr.segments is tr.segments
    rows = [
        (s.tri, *s.entry, *s.exit, *s.direction, s.t0, s.length, -1 if s.exit_edge is None else s.exit_edge)
        for s in tr.segments
    ]
    assert np.array_equal(np.array(rows), tr.chords)
    assert all(type(x) in (int, float) for r in rows for x in r)
    assert [s.exit_edge is None for s in tr.segments] == [False] * (len(rows) - 1) + [True]


def test_charts_group_chords_in_first_appearance_order(torus):
    # Starting in triangle 1 puts chart 1 first, which id order would not.
    tr = trace(torus, TangentDirection(incenter_point(torus, 1), (math.cos(0.3), math.sin(0.3))), 6.0)
    tris = tr.chords[:, 0].astype(int).tolist()
    ix = tr.index
    assert ix.tris.tolist() == list(dict.fromkeys(tris)) == [1, 0]
    for tri, a, b in zip(ix.tris.tolist(), ix.rows[:-1].tolist(), ix.rows[1:].tolist()):
        mine = tr.chords[tr.chords[:, 0] == tri]  # this chart's chords in trace order
        assert np.array_equal(ix.cols[:, a:b], mine[:, [1, 2, 5, 6, 8, 7]].T)
    assert tr.index is tr.index


def test_trace_requires_positive_budget(torus):
    with pytest.raises(ValueError):
        trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 0.0)
    with pytest.raises(ValueError):
        trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 1.0, vertex_clearance=0.0)


def test_tracer_and_render_use_the_surface_cone_predicate():
    # The reflex corner doubles to a vertex of curvature ~-1e-7: flat at tolerance 1e-6.
    d = double_of_polygon(PolygonSpec([(0, 0), (1, 0), (1, 1), (0.5, 1 - 1.25e-8), (0, 1)]))
    s = build_surface(d.triangles, d.gluings, 1e-6)
    cones = {v.index for v in s.cone_points()}
    assert len(cones) == len(s.vertex_classes) - 1
    expected = [
        tuple((*t.corners[k], s.corner_class[(t.id, k)]) for k in range(3) if s.corner_class[(t.id, k)] in cones)
        for t in s.triangles
    ]
    assert _trace_tables(s).cones == expected
    assert render_surface(s).count(CONE_COLOR) == sum(map(len, expected))


def cube_trace_and_its_json_copy():
    """A 20-long cube trace and the trace read back from its JSON, whose
    chords all record exit edge -1: JSON carries no exit edges."""
    cube = cube_surface()
    tr = trace(cube, TangentDirection(incenter_point(cube), (math.cos(0.3), math.sin(0.3))), 20.0)
    assert tr.termination.kind == LENGTH_REACHED and len(tr.chords) > 1
    return cube, tr, trace_from_json(trace_to_json(tr))


def test_unfold_rejects_a_trace_read_from_json():
    # Developing the loaded trace would place every chord in the start
    # plane and silently end elsewhere.
    cube, tr, loaded = cube_trace_and_its_json_copy()
    unfold(cube, tr)
    with pytest.raises(ValueError, match="chord 0 records no exit edge"):
        unfold(cube, loaded)


def test_check_trace_rejects_a_trace_read_from_json():
    cube, tr, loaded = cube_trace_and_its_json_copy()
    check_trace(cube, tr)
    with pytest.raises(AssertionError, match="records no exit edge"):
        check_trace(cube, loaded)


@pytest.mark.parametrize("unit", [(1e-320, 1e-320), (5e-324, 5e-324), (-3e-321, 7e-322)])
def test_trace_from_a_subnormal_direction_is_the_trace_from_the_rescaled_one(torus, unit):
    # normalize((1e-320, 1e-320)) was (0.70720, 0.70720), so the first chord
    # had |d| = 1.00013 and check_trace failed with "segment length mismatch".
    start = incenter_point(torus)
    tr = trace(torus, TangentDirection(start, unit), 5.0)
    check_trace(torus, tr)
    big = trace(torus, TangentDirection(start, (unit[0] * 2.0**600, unit[1] * 2.0**600)), 5.0)
    assert np.array_equal(tr.chords, big.chords) and tr.termination == big.termination
    assert tr.start.unit == big.start.unit
