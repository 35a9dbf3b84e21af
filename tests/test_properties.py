"""Property tests of the gluing walks, ear clipping, cut-and-glue surgery,
self-intersection events, the density band, the trace helpers, the
tracer's round trip, and surface and trace JSON parsing.

Surfaces for the walks are doubles of random star-shaped and rectilinear
polygons (drawn from a hypothesis-chosen seed) and the square
identifications of ``example2_candidates``, which include non-orientable
surfaces.  Cuts are random segments inside one triangle of the square
double or of a star double, patched with regular polygons.  Events and
traces are drawn from random directions on the catalog's
two-direction-class surfaces (fresh traces, which first search their
first eighth, also on random star doubles at 20 to 400 diameters, and
again as rows-only copies); the rule that certifies an earliest event
from the known ones is checked on random event grids against the walk
over all events, and the first-crossing query also runs on random
polylines over one to eight charts, where the window kernel's
events over all rows must equal the chart-by-chart kernel's and the
trace's chord index the chart-by-chart class loop's (the index also on
catalog traces); the
density band is checked on random chords against the dense test, and
``density_estimate`` against its per-triangle reference loop on the
catalog and the far cube.  Flat tori come from random lattices, some of
them near-collinear.  Ear clipping is checked against the all-vertices
oracle on random star (4 to 120 vertices) and rectilinear polygons, the
pruned diameter against the all-sources loop on star doubles of 4 to 60
vertices, rectilinear doubles and the square identifications, and polygon
validation against the pairwise loop on integer-lattice polygons.  The
tracer is checked against its reference loop on the catalog and on a cube
moved about 1e6 from the origin, with random and long rays, with rays
aimed past a cone corner at multiples of the vertex clearance, and with
rays that enter a chart and then pass its opposite corner at the side
test's margin, cross an exit edge at the edge of the tie window, or run
nearly parallel to an edge (each of these rays starts two charts back, so
that the chord under test is the first that may skip the corner tests),
and with rays whose third chord starts or ends near a cone corner, at the
edge of the corner window.  The rows a trace records are checked, bit
for bit, against numpy's rebuild of their exit points and t0 from the
other columns, with the early-stop length, ids and exit edges, on the
catalog, the far cube and a torus whose second chart has no way out,
with random rays and rays aimed at a corner.  ``reverse_check``, which reads each
leg's end from the values of its last row, is checked against the
reference that reads the last row of each leg's chords.  The runs are
derandomized, but Hypothesis mixes in constants from the local modules
loaded when it draws, so a property may draw other examples when this
file runs alone than in the whole suite.  So every strategy draws only
inputs the library accepts (traces of random doubles stay within the
step budget), and the cases a property exists for are pinned with
``@example``.
"""
import dataclasses
import functools
import json
import math
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_sources_diameter,
    all_vertices_ear_clip,
    band_hits,
    dense_near_chords,
    incenter_point,
    mutate_json,
    pairwise_validate,
    reference_bands,
    reference_density,
    reference_first_event,
    reference_index,
    reference_reverse_check,
    reference_sample_points,
    reference_self_intersections,
    reference_trace,
    trace_of_rows,
    validate_outcome,
)

import flatgeo.analysis as analysis
from flatgeo.analysis import (
    EVENT_MERGE_TOL,
    PAIR_BATCH,
    _covered,
    _merge_mask,
    _sample_points,
    density_estimate,
    self_intersections,
)
from flatgeo.builders import (
    CATALOG_PARALLEL,
    SQUARE,
    PolygonSpec,
    _ear_clip,
    catalog,
    cut_and_glue,
    double_of_polygon,
    example2_candidates,
    flat_torus,
    random_rectilinear_polygon,
    random_star_polygon,
    square_identification_surface,
)
from flatgeo.geometry import TWO_PI, angle_distance_mod, polygon_area
from flatgeo.holonomy import holonomy_generators, is_parallel, loop_holonomy, vertex_holonomy
from flatgeo.errors import DegenerateLattice, FlatgeoError, TraceIncomplete, UnmatchedEdge
from flatgeo.jsonio import surface_from_json, surface_to_json, trace_from_json, trace_to_json
from flatgeo.surface import Triangle, build_surface, diameter_estimate, gauss_bonnet_check
import flatgeo.tracer as tracer
from flatgeo.tracer import (
    DEFAULT_VERTEX_CLEARANCE,
    LEFT_DOMAIN,
    LENGTH_REACHED,
    VERTEX_HIT,
    ChordIndex,
    SurfacePoint,
    TangentDirection,
    Termination,
    TraceSegment,
    locate,
    reverse_check,
    trace,
    truncate,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
surfaces = st.one_of(
    seeds.map(lambda s: double_of_polygon(random_star_polygon(np.random.default_rng(s)))),
    seeds.map(lambda s: double_of_polygon(random_rectilinear_polygon(np.random.default_rng(s)))),
    st.sampled_from([pairing for _name, pairing in example2_candidates()]).map(
        square_identification_surface
    ),
)
walk_settings = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@walk_settings
@given(surfaces)
def test_gauss_bonnet_and_vertex_holonomy(s):
    assert gauss_bonnet_check(s) < 1e-9
    for v in s.vertex_classes:
        h = vertex_holonomy(s, v)
        assert not h.reflect
        assert angle_distance_mod(h.angle, -v.curvature, TWO_PI) < 1e-9


@walk_settings
@given(surfaces)
def test_json_round_trip_is_bit_exact(s):
    text = surface_to_json(s)
    back = surface_from_json(text)
    assert surface_to_json(back) == text
    assert [t.corners for t in back.triangles] == [t.corners for t in s.triangles]
    assert back.gluings == s.gluings


@walk_settings
@given(surfaces)
def test_generators_and_witness_replay(s):
    root = min(t.id for t in s.triangles)
    gens = holonomy_generators(s)
    assert len(gens) == len(s.gluings) - len(s.triangles) + 1
    for loop, elem in gens:
        replay = loop_holonomy(s, list(loop), root)
        assert replay.reflect == elem.reflect
        assert angle_distance_mod(replay.angle, elem.angle, TWO_PI) < 1e-9
    if s.orientable:
        assert s.orientation_witness is None
    else:
        assert loop_holonomy(s, s.orientation_witness, root).reflect


# Star doubles of 4 to 60 vertices, rectilinear doubles and the square
# identifications.
diameter_surfaces = st.one_of(
    seeds.map(lambda s: double_of_polygon(random_star_polygon(np.random.default_rng(s), 4, 60))),
    seeds.map(lambda s: double_of_polygon(random_rectilinear_polygon(np.random.default_rng(s)))),
    st.sampled_from([pairing for _name, pairing in example2_candidates()]).map(
        square_identification_surface
    ),
)


@walk_settings
@given(diameter_surfaces)
def test_pruned_diameter_is_the_all_sources_diameter(s):
    assert diameter_estimate(s) == all_sources_diameter(s)


def _lattice_edit(seed, edits):
    """A rectilinear polygon with vertices moved to, or inserted at, lattice
    points: this makes collinear overlaps, vertices on edges and
    T-junctions, where only the exact on-segment test can decide."""
    pts = list(random_rectilinear_polygon(np.random.default_rng(seed)).vertices)
    for k, x, y, insert in edits:
        k %= len(pts)
        if insert:
            pts.insert(k + 1, (float(x), float(y)))
        else:
            pts[k] = (float(x), float(y))
    return pts


lattice_polygons = st.one_of(
    st.builds(
        _lattice_edit,
        seeds,
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(-1, 7), st.integers(-1, 7), st.booleans()),
            min_size=1,
            max_size=3,
        ),
    ),
    st.lists(st.tuples(st.integers(0, 4).map(float), st.integers(0, 4).map(float)), min_size=3, max_size=10),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(lattice_polygons)
def test_validate_matches_the_pairwise_oracle_on_lattice_polygons(pts):
    got = validate_outcome(lambda v: PolygonSpec(v).validate(), pts)
    assert got == validate_outcome(pairwise_validate, pts)


polygons = st.one_of(
    seeds.map(lambda s: random_star_polygon(np.random.default_rng(s), 4, 120)),
    seeds.map(lambda s: random_rectilinear_polygon(np.random.default_rng(s))),
)


@walk_settings
@given(polygons)
def test_ear_clip_matches_the_all_vertices_oracle(polygon):
    assert _ear_clip(polygon.vertices) == all_vertices_ear_clip(polygon.vertices)


coords = st.floats(-10.0, 10.0)
vectors = st.tuples(coords, coords)
# v = s u + e u^perp: the lattice area e |u|^2 lies within 2e-6 of zero.
near_collinear = st.builds(
    lambda u, s, e: (u, (s * u[0] - e * u[1], s * u[1] + e * u[0])),
    vectors,
    st.floats(-0.99, 0.99),
    st.floats(-1e-8, 1e-8),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(st.tuples(vectors, vectors), near_collinear))
@example(((1.0, 0.0), (0.3, 1.5e-9)))  # triangles of half the lattice area, at most METRIC_TOL
@example(((0.0, 4.0), (1e-7, 1e-7)))  # thin: u + v rounds, so transitions were not translations
def test_flat_torus_is_a_flat_torus_or_a_degenerate_lattice(lattice):
    try:
        s = flat_torus(*lattice)
    except DegenerateLattice:
        return
    assert (s.euler_characteristic, s.orientable, is_parallel(s).parallel) == (0, True, True)
    assert len(s.vertex_classes) == 1 and s.cone_points() == []
    assert gauss_bonnet_check(s) <= 1e-9


@walk_settings
@given(
    st.one_of(st.just(SQUARE), seeds.map(lambda s: random_star_polygon(np.random.default_rng(s)))),
    seeds,
    st.integers(3, 6),
    st.integers(0, 5),
)
def test_cut_and_glue_adds_the_patch_or_raises_typed(polygon, seed, k, anchor):
    # A cut between two random points of a random triangle, patched with a
    # regular k-gon of perimeter twice the cut; odd k puts no patch vertex
    # at the far end of the cut, so a patch triangle is split there.
    base = double_of_polygon(polygon)
    rng = np.random.default_rng(seed)
    t = base.triangles[rng.integers(len(base.triangles))]
    p, q = (tuple(w @ np.array(t.corners)) for w in rng.dirichlet((1.0, 1.0, 1.0), 2))
    radius = math.dist(p, q) / (k * math.sin(math.pi / k))
    phase = rng.uniform(0.0, TWO_PI)
    patch = PolygonSpec(
        [(radius * math.cos(phase + TWO_PI * j / k), radius * math.sin(phase + TWO_PI * j / k)) for j in range(k)]
    )
    try:
        s = cut_and_glue(base, (t.id, p, q), patch, anchor % k)
    except FlatgeoError as e:
        assert not isinstance(e, UnmatchedEdge)  # the construction glues every edge once
        return
    patch_area = polygon_area(list(patch.vertices))
    assert s.euler_characteristic == 2
    assert math.isclose(s.area(), base.area() + patch_area, rel_tol=1e-12)
    assert gauss_bonnet_check(s) < 1e-9
    patch_tris = [tri for tri in s.triangles if tri.id in s.patch_triangle_ids]
    assert len(patch_tris) == len(s.patch_triangle_ids)
    assert math.isclose(sum(tri.signed_area() for tri in patch_tris), patch_area, rel_tol=1e-12)


def within_step_budget(s, length) -> bool:
    """Whether ``trace`` accepts ``length`` on ``s``: a star double's
    thinnest triangle may give a step budget past MAX_STEPS, which trace
    refuses (the star double of seed 1783 does at length 30)."""
    return 50.0 * length / tracer._trace_tables(s).min_height <= tracer.MAX_STEPS


@walk_settings
@given(
    st.sampled_from([random_star_polygon, random_rectilinear_polygon]),
    seeds,
    st.floats(0.0, TWO_PI, exclude_max=True),
)
@example(random_star_polygon, 0, 0.7)
@example(random_rectilinear_polygon, 0, 0.7)
def test_reverse_check_returns_to_the_start_on_random_doubles(polygon, seed, angle):
    s = double_of_polygon(polygon(np.random.default_rng(seed)))
    start = TangentDirection(incenter_point(s), (math.cos(angle), math.sin(angle)))
    assume(within_step_budget(s, 30.0))
    assume(trace(s, start, 30.0).termination.kind == LENGTH_REACHED)  # not into a cone point
    assert reverse_check(s, start, 30.0) < 1e-6


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.sampled_from(["cube", "ring-double"]), st.floats(0.0, TWO_PI, exclude_max=True))
def test_self_intersections_matches_reference_on_short_traces(catalog_surfaces, name, angle):
    s = catalog_surfaces[name]
    tr = trace(s, TangentDirection(incenter_point(s), (math.cos(angle), math.sin(angle))), 80.0)
    assume(tr.termination.kind == LENGTH_REACHED)
    first = reference_first_event(tr)
    assume(first is not None)
    assert self_intersections(s, tr) == first


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40))
def test_merge_mask_matches_sequential_walk(steps):
    # Parameters on a grid of 0.6 tolerances chain into runs of close events.
    step = 0.6 * EVENT_MERGE_TOL
    events = sorted((1.0 + a * step, 2.0 + b * step) for a, b in steps)
    kept = []
    for t1, t2 in events:
        if not kept or max(abs(kept[-1][0] - t1), abs(kept[-1][1] - t2)) > EVENT_MERGE_TOL:
            kept.append((t1, t2))
    keep = _merge_mask(np.array([e[0] for e in events]), np.array([e[1] for e in events]))
    assert [e for e, k in zip(events, keep) if k] == kept


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40))
def test_merge_mask_of_a_prefix_is_the_prefix_of_the_mask(steps):
    # The earliest-only search merges a prefix of the sorted events: each
    # verdict must depend only on the events before it.
    step = 0.6 * EVENT_MERGE_TOL
    t1, t2 = np.array(sorted((1.0 + a * step, 2.0 + b * step) for a, b in steps)).T
    keep = _merge_mask(t1, t2)
    for m in range(len(t1) + 1):
        assert np.array_equal(_merge_mask(t1[:m], t2[:m]), keep[:m])


_diameter = functools.lru_cache(maxsize=None)(diameter_estimate)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    st.sampled_from(["cube", "example1", "klein-bottle", "ring-double"]),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
def test_self_intersections_matches_reference_on_400_diameter_traces(catalog_surfaces, name, angle):
    s = catalog_surfaces[name]
    length = 400.0 * _diameter(s)
    tr = trace(s, TangentDirection(incenter_point(s), (math.cos(angle), math.sin(angle))), length)
    assume(tr.termination.kind == LENGTH_REACHED)
    assert self_intersections(s, tr) == reference_first_event(tr)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from(["cube", "example1", "klein-bottle", "ring-double"]), seeds),
    st.floats(20.0, 400.0),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
@example(surface="cube", diameters=100.0, angle=0.5)  # the first eighth decides
@example(surface="klein-bottle", diameters=20.0, angle=0.882)  # it cannot: the whole index decides
@example(surface="example1", diameters=20.0, angle=1.436)  # no two classes in it, and no crossing
@example(surface=0, diameters=100.0, angle=0.5)  # a star double, with wide charts
def test_self_intersections_matches_reference_on_fresh_traces(catalog_surfaces, surface, diameters, angle):
    # The search first tries the chords entering before PREFIX of the
    # length on their own index; searching the whole index alone must give
    # the same event.  A seed names the double of a random star polygon,
    # whose charts are wide.
    if isinstance(surface, str):
        s = catalog_surfaces[surface]
    else:
        s = double_of_polygon(random_star_polygon(np.random.default_rng(surface)))
    start = TangentDirection(incenter_point(s), (math.cos(angle), math.sin(angle)))
    length = diameters * _diameter(s)
    assume(within_step_budget(s, length))
    tr = trace(s, start, length)
    assume(tr.termination.kind == LENGTH_REACHED)
    assert isinstance(tr._rows, list)
    first = self_intersections(s, tr)
    assert first == reference_first_event(tr)
    assert analysis._earliest(tr.index, tr.length, math.inf) == first


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 8), st.booleans()), min_size=1, max_size=40),
    st.integers(0, 16),
)
# An unknown event drops the known one after it, whose t2 is only 0.6
# tolerances below tau: the rule must decline.
@example(drawn=[(1, 2, True), (0, 4, False)], tau_step=6)
# The known walk keeps (1+s, 1+9s), drops (1+2s, 1+8s) by it and keeps
# (1+3s, 1+8s); the whole walk keeps the unknown (1, 1+10s), which drops
# the first, and so keeps the second and drops the third.  The rule must
# decline the third, whose t2 equals a dropped event's.
@example(drawn=[(0, 8, False), (1, 6, True), (2, 4, True), (3, 3, True)], tau_step=10)
def test_certain_declines_or_returns_the_whole_walks_answer(drawn, tau_step):
    # Events on a grid of 0.6 tolerances, each with t2 - t1 of at least
    # 1.2 tolerances, as the kernel emits them.  An event drawn unknown
    # stays known unless its t2 is at least tau: a pair with a chord
    # entering at or after tau.  The rule, given the known events in walk
    # order, must decline or name the whole walk's answer.
    step = 0.6 * EVENT_MERGE_TOL
    tau = 1.0 + tau_step * step
    events = sorted((1.0 + a * step, 1.0 + (a + 2 + b) * step, k) for k, (a, b, _known) in enumerate(drawn))
    known = [e for e in events if drawn[e[2]][2] or e[1] < tau]
    kept = []
    for e in events:
        if not kept or max(abs(kept[-1][0] - e[0]), abs(kept[-1][1] - e[1])) > EVENT_MERGE_TOL:
            kept.append(e)
    answer = min(kept, key=lambda e: (e[1], e[0]))  # the first on ties
    if not known:
        return
    best = analysis._certain(np.array([e[0] for e in known]), np.array([e[1] for e in known]), tau)
    assert best is None or known[best] == answer
    # With every event known and no cut, the rule is the whole walk.
    t1, t2 = np.array([e[0] for e in events]), np.array([e[1] for e in events])
    assert events[analysis._certain(t1, t2, math.inf)] == answer


def _polyline_trace(seed, n, classes, charts, stretch=1.0):
    """A random polyline of n chords read as a trace over ``charts``
    charts, its directions from ``classes`` lines, either orientation, so
    that short loops abound; a chart holding more than MAX_CLASSES of them
    is one wide class.  The stated length is ``stretch`` times the sum of
    the chord lengths."""
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, math.pi, classes)[rng.integers(0, classes, n)] + math.pi * rng.integers(0, 2, n)
    D = np.column_stack((np.cos(ang), np.sin(ang)))
    L = rng.uniform(0.0, 1.0, n)
    Q = np.cumsum(np.vstack(([0.0, 0.0], L[:, None] * D)), axis=0)
    tri = rng.integers(0, charts, n).astype(float)
    rows = np.column_stack((tri, Q[:-1], Q[1:], D, np.cumsum(L) - L, L, np.full(n, -1.0)))
    return trace_of_rows(
        TangentDirection(SurfacePoint(0, (0.0, 0.0)), (1.0, 0.0)), rows, stretch * L.sum(), Termination(LENGTH_REACHED)
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seeds, st.integers(2, 80), st.integers(2, 10), st.integers(1, 8), st.floats(0.01, 64.0))
def test_self_intersections_matches_reference_on_random_polylines(seed, n, classes, charts, stretch):
    # The stated length scales the first window from no row to every row;
    # one to eight charts share each window.
    tr = _polyline_trace(seed, n, classes, charts, stretch)
    assert self_intersections(None, tr) == reference_first_event(tr)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seeds, st.integers(2, 120), st.integers(2, 12), st.integers(1, 8), st.sampled_from([1, 5, 64, PAIR_BATCH]))
def test_all_events_match_the_per_chart_kernel_on_random_polylines(seed, n, classes, charts, batch):
    # Every row of the charts that can cross, paired in one window,
    # ``batch`` candidate pairs at a time, sorted by (t1, t2, row) and
    # merged as ``self_intersections`` does: the six event columns must
    # equal those of pairing chart by chart, bit for bit and in order.
    tr = _polyline_trace(seed, n, classes, charts)
    ix = tr.index
    rows = np.flatnonzero(((np.diff(ix.classes) > 1) | ix.wide)[ix.chart])
    with mock.patch.object(analysis, "PAIR_BATCH", batch):
        t1, t2, row, px, py, angle = analysis._window_events(ix, rows)
    order = np.lexsort((row, t2, t1))
    cols = [c[order] for c in (t1, t2, ix.tris[ix.chart[row]], px, py, angle)]
    cols = [c[_merge_mask(cols[0], cols[1])] for c in cols]
    for col, ref in zip(cols, reference_self_intersections(tr)):
        assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes()


def assert_index_matches_reference(tr):
    ix, ref = tr.index, reference_index(tr)
    for field in dataclasses.fields(ChordIndex):
        a, b = getattr(ix, field.name), getattr(ref, field.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b), field.name
    for name, a, b in zip(("keys", "order", "bounds"), ix.bands, reference_bands(tr)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b), name
        assert not a.flags.writeable, name


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seeds, st.integers(1, 120), st.integers(1, 12), st.integers(1, 8))
def test_chord_index_matches_reference_on_random_polylines(seed, n, classes, charts):
    # Up to twelve lines over one to eight charts: some charts go wide.
    assert_index_matches_reference(_polyline_trace(seed, n, classes, charts))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from([name for name, _s in catalog()]), st.floats(0.0, TWO_PI, exclude_max=True))
def test_chord_index_matches_reference_on_catalog_traces(catalog_surfaces, name, angle):
    s = catalog_surfaces[name]
    tr = trace(s, TangentDirection(incenter_point(s), (math.cos(angle), math.sin(angle))), 50.0 * _diameter(s))
    assert_index_matches_reference(tr)
    # A trace with no chords, and one with one.
    for rows in (tr.chords[:0], tr.chords[:1]):
        assert_index_matches_reference(trace_of_rows(tr.start, rows, 0.0, Termination(LENGTH_REACHED)))


def _locate_oracle(tr, t):
    """The point at arc length t, found by bisecting the segments' t0."""
    t = min(max(t, 0.0), tr.length)
    i = bisect_right([seg.t0 for seg in tr.segments], t) - 1
    seg = tr.segments[max(0, min(i, len(tr.segments) - 1))]
    tau = min(max(t - seg.t0, 0.0), seg.length)
    return SurfacePoint(
        seg.tri, (seg.entry[0] + tau * seg.direction[0], seg.entry[1] + tau * seg.direction[1])
    )


def _truncate_oracle(tr, length):
    """The segments of the prefix up to ``length``, one segment at a time."""
    segs = []
    for seg in tr.segments:
        if seg.t0 >= length:
            break
        ln = min(seg.length, length - seg.t0)
        if ln < seg.length:
            exit_pt = (seg.entry[0] + ln * seg.direction[0], seg.entry[1] + ln * seg.direction[1])
            segs.append(TraceSegment(seg.tri, seg.entry, exit_pt, seg.direction, seg.t0, ln, None))
            break
        segs.append(seg)
    return tuple(segs)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.sampled_from(["cube", "klein-bottle"]),
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.5, 40.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    st.integers(0, 10**6),
)
def test_truncate_and_locate_match_segment_oracle(catalog_surfaces, name, angle, length, fractions, k):
    s = catalog_surfaces[name]
    start = TangentDirection(incenter_point(s), (math.cos(angle), math.sin(angle)))
    tr, read = trace(s, start, length), trace(s, start, length)
    read.chords  # the same trace, its record read as an array first
    seg = tr.segments[k % len(tr.segments)]
    # Random parameters, plus both ends of one chord, where the search side matters.
    for t in [f * tr.length for f in fractions] + [seg.t0, seg.t0 + seg.length]:
        for ray in (tr, read):
            assert locate(ray, t) == _locate_oracle(tr, t)
            short = truncate(ray, t)
            if t < tr.length:
                assert short.segments == _truncate_oracle(tr, t)
                assert (short.length, short.termination.kind) == (t, LENGTH_REACHED)
            else:
                assert short is ray
    assert isinstance(tr._rows, list) and isinstance(read._rows, list)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_mutated_surface_json_raises_only_typed_errors(catalog_surfaces, data):
    # One value anywhere in a torus file replaced (or its key deleted):
    # the parser either builds a surface or raises a FlatgeoError, which
    # the CLI reports with exit 2, never a traceback.
    doc = json.loads(surface_to_json(catalog_surfaces["unit-torus"]))
    try:
        surface_from_json(json.dumps(mutate_json(doc, data)))
    except FlatgeoError:
        pass


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_mutated_trace_json_raises_only_typed_errors(catalog_surfaces, data):
    # The same for a trace file: a trace or a FlatgeoError (MalformedTrace).
    start = TangentDirection(SurfacePoint(0, (0.5, 0.25)), (0.6, 0.8))
    doc = json.loads(trace_to_json(trace(catalog_surfaces["unit-torus"], start, 3.0)))
    try:
        trace_from_json(json.dumps(mutate_json(doc, data)))
    except FlatgeoError:
        pass


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    seeds,
    st.integers(1, 40),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from([1.0, 1e3, 1e5]),
    st.floats(-3.0, 0.5),
)
def test_density_band_matches_dense_on_random_chords(seed, n, bases, clustered, size, log_epsilon):
    # One chart of n chords in a box of the given size: directions either
    # within 1.2e-7 of a few base lines (classes with a spread, either
    # orientation) or all random (one wide class past MAX_CLASSES);
    # epsilon from 1e-3 to three times the box.  Points are random, or
    # within 1e-9 of epsilon of a chord anywhere along it, where the class
    # spread matters most.
    rng = np.random.default_rng(seed)
    if clustered:
        ang = rng.uniform(0.0, math.pi, bases)[rng.integers(0, bases, n)]
        ang += rng.uniform(-1.2e-7, 1.2e-7, n) + math.pi * rng.integers(0, 2, n)
    else:
        ang = rng.uniform(0.0, TWO_PI, n)
    D = np.column_stack((np.cos(ang), np.sin(ang)))
    P = rng.uniform(0.0, size, (n, 2))
    L = rng.uniform(0.0, size, n)
    rows = np.column_stack((np.zeros(n), P, P + L[:, None] * D, D, np.cumsum(L) - L, L, np.full(n, -1.0)))
    tr = trace_of_rows(
        TangentDirection(SurfacePoint(0, (0.0, 0.0)), (1.0, 0.0)), rows, L.sum(), Termination(LENGTH_REACHED)
    )
    epsilon = size * 10.0**log_epsilon
    k = rng.integers(0, n, 200)
    off = epsilon * rng.choice([1 - 1e-9, 1 + 1e-9, 0.5, -(1 - 1e-9), -(1 + 1e-9)], 200)
    normal = D[k, ::-1] * (-1.0, 1.0)
    near = P[k] + rng.uniform(0.0, 1.0, (200, 1)) * L[k, None] * D[k] + off[:, None] * normal
    Q = np.vstack((rng.uniform(-size, 2.0 * size, (200, 2)), near))
    band = band_hits(tr, 0, Q, epsilon)
    assert np.array_equal(band, dense_near_chords(Q, P, D, L, epsilon))
    # A nearest-first hit is a hit of the full band.
    assert not np.any(band_hits(tr, 0, Q, epsilon, nearest=True) & ~band)


@functools.cache
def oracle_surfaces() -> dict:
    """The catalog, plus the cube with every chart moved about 1e6 from the origin."""
    out = dict(catalog())
    cube = out["cube"]
    moved = [
        Triangle(t.id, tuple((x + 1.0e6 + 0.25, y - 7.0e5 + 0.125) for x, y in t.corners))
        for t in cube.triangles
    ]
    out["cube-far"] = build_surface(moved, cube.gluings, cube.tolerance)
    return out


oracle_weights = st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0))


def chart_point(t, weights):
    """The point of triangle t with the given (unnormalised) barycentric weights."""
    s = sum(weights)
    return tuple(sum(w * c[i] for w, c in zip(weights, t.corners)) / s for i in range(2))


def assert_same_trace(s, start, length, clearance):
    got = trace(s, start, length, clearance)
    ref = reference_trace(s, start, length, clearance)
    assert np.array_equal(got.chords, ref.chords)
    assert got.termination == ref.termination
    assert got.length == ref.length
    return got


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(CATALOG_PARALLEL) + ["cube-far"]),
    st.integers(0, 15),
    oracle_weights,
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.5, 40.0),
)
def test_trace_matches_the_reference_loop(name, k, weights, angle, length):
    s = oracle_surfaces()[name]
    t = s.triangles[k % len(s.triangles)]
    start = TangentDirection(SurfacePoint(t.id, chart_point(t, weights)), (math.cos(angle), math.sin(angle)))
    assert_same_trace(s, start, length, DEFAULT_VERTEX_CLEARANCE)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(n for n, s in oracle_surfaces().items() if s.cone_points())),
    st.integers(0, 63),
    oracle_weights,
    st.sampled_from([0.5, 0.99, 1.01, 2.0, 3.0]),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([DEFAULT_VERTEX_CLEARANCE, 1e-4, 1e-2]),
)
def test_trace_matches_the_reference_loop_past_a_cone_corner(name, k, weights, multiple, side, clearance):
    # The ray from a random point of a chart passes one of its cone corners
    # at a perpendicular offset of multiple * clearance, on either side.
    s = oracle_surfaces()[name]
    corners = [
        (t, t.corners[i])
        for t in s.triangles
        for i in range(3)
        if s.vertex_classes[s.corner_class[(t.id, i)]].is_cone
    ]
    t, c = corners[k % len(corners)]
    p = chart_point(t, weights)
    vx, vy = c[0] - p[0], c[1] - p[1]
    ln = math.hypot(vx, vy)
    off = side * multiple * clearance / ln
    d = (vx - off * vy, vy + off * vx)
    got = assert_same_trace(s, TangentDirection(SurfacePoint(t.id, p), d), 3.0 * ln, clearance)
    if multiple < 1.0:
        assert got.termination.kind == VERTEX_HIT


@functools.cache
def stuck_torus():
    """A unit torus whose triangle 1 has no exit candidates: a ray that
    enters it, or starts in it, finds no way out and leaves the domain."""
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    tab = tracer._TraceTables(s)
    dense = tab.id2dense[1]
    tab.exits[dense] = tuple((math.nan, math.nan, None, None, ()) for _ in tab.exits[dense])
    tracer._TABLES[s] = tab
    return s


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(oracle_surfaces()) + ["stuck-torus"]),
    st.integers(0, 63),
    oracle_weights,
    st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), st.integers(0, 2)),
    st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 60.0)),
)
@example("cube", 0, (1.0, 1.0, 1.0), 0, 10.0)  # at a cone corner: a vertex hit
@example("unit-torus", 1, (1.0, 2.0, 3.0), 2, 10.0)  # at a flat corner: a corner tie
@example("stuck-torus", 0, (1.0, 1.0, 1.0), 0.9, 5.0)  # enters triangle 1 and stops there
@example("stuck-torus", 1, (1.0, 1.0, 1.0), 0.9, 5.0)  # starts there: no chord at all
def test_trace_rows_hold_what_the_step_loop_computed(name, k, weights, aim, length):
    # The ray starts at a random point of a chart, at a random angle or, for
    # an integer aim, at that corner of the chart.  Its rows obey, bit for
    # bit: the exit point is p + length * d (a product, then a sum), t0 the
    # running sum of lengths (np.cumsum adds left to right), an early
    # stop's length the last row's t0 + length, the ids are the surface's,
    # and -1 (no exit edge) is on the last row only.
    s = stuck_torus() if name == "stuck-torus" else oracle_surfaces()[name]
    t = s.triangles[k % len(s.triangles)]
    p = chart_point(t, weights)
    if isinstance(aim, int):
        d = (t.corners[aim][0] - p[0], t.corners[aim][1] - p[1])
    else:
        d = (math.cos(aim), math.sin(aim))
    tr = trace(s, TangentDirection(SurfacePoint(t.id, p), d), length)
    assert isinstance(tr._rows, list)
    rows = tr.chords
    assert np.array_equal(rows[:, 3:5], rows[:, 1:3] + rows[:, 8:9] * rows[:, 5:7])
    assert np.array_equal(rows[:, 7], np.append(0.0, np.cumsum(rows[:-1, 8]))[: len(rows)])
    if tr.termination.kind == LENGTH_REACHED:
        assert tr.length == length
    else:
        assert tr.length == (rows[-1, 7] + rows[-1, 8] if len(rows) else 0.0)
    if tr.termination.kind == VERTEX_HIT:
        assert tr.termination.parameter == tr.length
    assert set(rows[:, 0].tolist()) <= {u.id for u in s.triangles}
    assert -1 not in rows[:-1, 9]
    assert len(rows) == 0 or (rows[-1, 9] == -1) == (tr.termination.kind != LEFT_DOMAIN)


def entering_start(s, t, e, f, d):
    """A start in the chart across edge e of triangle t whose first step
    crosses into t at fraction f of edge e, heading along d (t's chart);
    None when the backed-off start falls outside that chart."""
    a, b = t.corners[e], t.corners[(e + 1) % 3]
    p = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
    n = math.hypot(*d)
    ref, iso = s.edge_transition(t.id, e)
    for back in (0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4):
        x = iso.apply((p[0] - back * d[0] / n, p[1] - back * d[1] / n))
        if s.triangle(ref.tri).contains(x):
            return TangentDirection(SurfacePoint(ref.tri, x), iso.apply_vector(d))
    return None


def assert_same_entering_trace(s, t, e, f, d, length, clearance):
    """Check against the reference loop the trace whose third chord enters
    t by edge e at fraction f, heading along d, for ``length`` past that
    entry.  The start step is a fallback step, so it and the step after it
    always run the corner tests; the third chord is the first that may skip
    them.  Its start lies two charts back, found as the corner-window
    property finds it."""
    a, b = t.corners[e], t.corners[(e + 1) % 3]
    x = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
    ref, iso = s.edge_transition(t.id, e)
    before = s.triangle(ref.tri)
    d2 = iso.apply_vector(d)
    entry = line_entry(before, iso.apply(x), d2, ref.edge)
    assume(entry is not None)
    start = entering_start(s, before, *entry, d2)
    assume(start is not None)
    # The first two chords take at most 0.3 and the longest edge.
    lead = 0.3 + max(u.edge_length(k) for u in s.triangles for k in range(3))
    got = assert_same_trace(s, start, length + lead, clearance)
    # The ray did enter t by edge e on its third chord.
    assume(len(got.chords) >= 3 and got.chords[2, 0] == t.id and got.chords[1, 9] == s.edge_transition(t.id, e)[0].edge)
    return got


def side_margin(s):
    return 2e-9 * (1.0 + max(t.edge_length(k) for t in s.triangles for k in range(3)))


def tie_margin(s, clearance):
    """The tracer's ``tie_lo`` less the clearance: the rounding margin of
    the tie test, from which the corner window is built."""
    scale = max(t.edge_length(k) for t in s.triangles for k in range(3))
    reach = max(math.hypot(*c) for t in s.triangles for c in t.corners)
    return 1e-15 * (clearance + reach) + 1e-11 * (1.0 + scale)


def corner_window(s, clearance):
    """The tracer's corner window W at this clearance."""
    scale = max(t.edge_length(k) for t in s.triangles for k in range(3))
    sin_min = 1.0 / max(
        t.edge_length((k + 2) % 3) * t.edge_length(k) / (2.0 * t.signed_area()) for t in s.triangles for k in range(3)
    )
    return 4.0 * (2.0 * clearance + clearance + tie_margin(s, clearance)) / sin_min + 1e-9 * (1.0 + scale)


def line_entry(t, p, d, skip):
    """``(e, f)``: the edge of triangle t other than ``skip`` that the line
    through p along d crosses last before p, at fraction f of the edge;
    None if there is none."""
    best = None
    for e in range(3):
        a, b = t.corners[e], t.corners[(e + 1) % 3]
        ex, ey = b[0] - a[0], b[1] - a[1]
        den = ex * d[1] - ey * d[0]
        if e == skip or den == 0.0:
            continue
        wx, wy = p[0] - a[0], p[1] - a[1]
        f = (wx * d[1] - wy * d[0]) / den
        back = (ex * wy - ey * wx) / den
        if back > 0.0 and 0.0 <= f <= 1.0 and (best is None or back < best[0]):
            best = (back, e, f)
    return None if best is None else best[1:]


clearances = st.sampled_from([DEFAULT_VERTEX_CLEARANCE, 1e-9, 1e-4])


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(oracle_surfaces())),
    st.integers(0, 63),
    st.integers(0, 2),
    st.floats(0.05, 0.95),
    st.sampled_from(["ulp", "side"]),
    st.sampled_from([0.0, 1.0, -1.0, 1.0 - 1e-3, -1.0 + 1e-3, 1.0 + 1e-3, -1.0 - 1e-3]),
    clearances,
)
def test_trace_matches_the_reference_loop_through_the_opposite_corner(name, k, e, f, unit, multiple, clearance):
    # The ray enters a chart by edge e and passes the opposite corner v at a
    # perpendicular offset of 0, one ulp, or (1 +- 1e-3) times the side
    # test's margin, on either side; then it travels one more unit.
    s = oracle_surfaces()[name]
    t = s.triangles[k % len(s.triangles)]
    a, b, v = t.corners[e], t.corners[(e + 1) % 3], t.corners[(e + 2) % 3]
    p = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
    wx, wy = v[0] - p[0], v[1] - p[1]
    ln = math.hypot(wx, wy)
    off = multiple * (math.ulp(ln) if unit == "ulp" else side_margin(s))
    d = (wx - off * wy / ln, wy + off * wx / ln)
    assert_same_entering_trace(s, t, e, f, d, ln + 1.0, max(clearance, s.tolerance))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(oracle_surfaces())),
    st.integers(0, 63),
    st.integers(0, 2),
    st.one_of(st.floats(0.05, 0.95), st.sampled_from([1e-11, 1e-10, 1e-9, 1.0 - 1e-9, 1.0 - 1e-10, 1.0 - 1e-11])),
    st.integers(1, 2),
    st.integers(0, 1),
    st.sampled_from(["ulp", "margin"]),
    st.sampled_from([0.0, 1.0, -1.0, 1e-3, -1e-3, 3.0, -3.0]),
    clearances,
)
def test_trace_matches_the_reference_loop_at_the_tie_window(name, k, e, f, x, end, unit, multiple, clearance):
    # The ray enters by edge e and crosses exit edge e + x at
    # vertex_clearance plus a few ulps or a fraction of the tie window's
    # margin from one of its ends, either side of the window's edge.  An
    # entry point just past the entry guard near a corner makes the chord
    # nearly parallel to an exit edge that ends there.
    s = oracle_surfaces()[name]
    t = s.triangles[k % len(s.triangles)]
    clearance = max(clearance, s.tolerance)
    a, b = t.corners[e], t.corners[(e + 1) % 3]
    p = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
    ex = (e + x) % 3
    c, o = t.corners[(ex + end) % 3], t.corners[(ex + 1 - end) % 3]
    ln = math.dist(c, o)
    dist = clearance + multiple * (math.ulp(clearance) if unit == "ulp" else tie_margin(s, clearance))
    z = (c[0] + dist * (o[0] - c[0]) / ln, c[1] + dist * (o[1] - c[1]) / ln)
    d = (z[0] - p[0], z[1] - p[1])
    assert_same_entering_trace(s, t, e, f, d, math.hypot(*d) + 1.0, clearance)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(oracle_surfaces())),
    st.integers(0, 63),
    st.integers(0, 2),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.7, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]),
    st.integers(1, 2),
    st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]
                    + [m * 1e-3 for m in (1.0, -1.0, 1.001, -1.001, 0.999, -0.999)]),
    clearances,
)
def test_trace_matches_the_reference_loop_along_an_edge(name, k, e, f, y, angle, clearance):
    # The ray enters by edge e at fraction f, some of them within a few
    # ulps of a corner, parallel to another edge of the chart rotated by a
    # small angle: nearly parallel to the edge it does not leave by, or,
    # entering near that edge's corner, to the edge it leaves by.  Angles
    # near 1e-3 straddle the side test's parallel guard.
    s = oracle_surfaces()[name]
    t = s.triangles[k % len(s.triangles)]
    # Edge e + 1 runs from b to v, edge e + 2 from v to a: head along b -> v or a -> v.
    start = t.corners[(e + 1) % 3] if y == 1 else t.corners[e]
    v = t.corners[(e + 2) % 3]
    ux, uy = v[0] - start[0], v[1] - start[1]
    d = (ux * math.cos(angle) - uy * math.sin(angle), ux * math.sin(angle) + uy * math.cos(angle))
    assert_same_entering_trace(s, t, e, f, d, 2.0 * math.hypot(ux, uy), max(clearance, s.tolerance))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(n for n, s in oracle_surfaces().items() if s.cone_points())),
    st.integers(0, 63),
    st.integers(0, 1),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.one_of(st.sampled_from([0.5, 0.99, 1.01, 3.0]), st.floats(0.5, 3.0)),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([DEFAULT_VERTEX_CLEARANCE, 1e-4, 1e-2]),
)
def test_trace_matches_the_reference_loop_at_the_corner_window(name, k, y, windows, multiple, side, role, clearance):
    # The ray's third chord, the first that may skip the corner tests,
    # enters (role 1) or leaves (role -1) its chart by an edge at a cone
    # corner, 0.5, 1 or 2 corner windows from the corner.  Its line passes
    # that corner at 0.5 to 3 clearances, heading toward it (side 1) or
    # away, so the nearest pass falls in the chord, before it or after it.
    s = oracle_surfaces()[name]
    clearance = max(clearance, s.tolerance)
    corners = [(t, i) for t in s.triangles for i in range(3) if s.vertex_classes[s.corner_class[(t.id, i)]].is_cone]
    t, i = corners[k % len(corners)]
    e = i if y == 0 else (i + 2) % 3  # edge i starts at corner i, edge i + 2 ends there
    c, o = t.corners[i], t.corners[(i + 1) % 3 if y == 0 else (i + 2) % 3]
    ln = math.dist(c, o)
    dist = windows * corner_window(s, clearance)
    assume(dist <= 0.5 * ln)
    ux, uy = (o[0] - c[0]) / ln, (o[1] - c[1]) / ln
    nx, ny = (-uy, ux) if y == 0 else (uy, -ux)  # into t
    sin_a = multiple * clearance / dist
    cos_a = math.sqrt(1.0 - sin_a * sin_a)
    d = (-side * ux * cos_a + role * nx * sin_a, -side * uy * cos_a + role * ny * sin_a)
    z = (c[0] + dist * ux, c[1] + dist * uy)
    # Where the third chord enters t, and where the second enters the chart before.
    if role > 0:
        e3, x = e, z
    else:
        entry = line_entry(t, z, d, e)
        assume(entry is not None)
        e3, f = entry
        a, b = t.corners[e3], t.corners[(e3 + 1) % 3]
        x = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
    ref, iso = s.edge_transition(t.id, e3)
    before = s.triangle(ref.tri)
    d2 = iso.apply_vector(d)
    entry = line_entry(before, iso.apply(x), d2, ref.edge)
    assume(entry is not None)
    start = entering_start(s, before, *entry, d2)
    assume(start is not None)
    got = assert_same_trace(s, start, 4.0, clearance)
    assume(len(got.chords) >= 3 and got.chords[2, 0] == t.id)


@pytest.mark.parametrize("name", sorted(oracle_surfaces()))
def test_long_traces_match_the_reference_loop(name):
    # L = 100 from four points of every catalog surface, parallel or not,
    # and the far cube.
    s = oracle_surfaces()[name]
    rng = np.random.default_rng(19)
    for _ in range(4):
        t = s.triangles[int(rng.integers(len(s.triangles)))]
        angle = rng.uniform(0.0, TWO_PI)
        start = TangentDirection(SurfacePoint(t.id, chart_point(t, rng.uniform(0.05, 1.0, 3))), (math.cos(angle), math.sin(angle)))
        assert_same_trace(s, start, 100.0, DEFAULT_VERTEX_CLEARANCE)


@pytest.mark.parametrize("name", sorted(CATALOG_PARALLEL))
def test_the_side_test_alone_picks_every_exit_away_from_corners(name):
    # With the fallback's candidates removed for every entered chart, a ray
    # that never passes within the side margin of a corner still traces
    # bit for bit: the side test chose every exit after the start step.
    s = oracle_surfaces()[name]
    copy = surface_from_json(surface_to_json(s))
    tab = tracer._TraceTables(copy)
    tab.exits = [
        tuple((vx, vy, neg, pos, ()) if k < 3 else entry for k, entry in enumerate(row) for vx, vy, neg, pos, _ in [entry])
        for row in tab.exits
    ]
    tracer._TABLES[copy] = tab
    t = s.triangles[0]
    for angle in (0.3, 1.1, 2.0, 4.4):
        start = TangentDirection(incenter_point(s, t.id), (math.cos(angle), math.sin(angle)))
        want = trace(s, start, 50.0)
        got = trace(copy, start, 50.0)
        assert len(want.chords) > 50
        assert np.array_equal(got.chords, want.chords) and got.termination == want.termination


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(oracle_surfaces())),
    st.integers(0, 15),
    oracle_weights,
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.one_of(st.floats(1e-9, 1.0), st.floats(1.0, 60.0)),
)
def test_reverse_check_matches_the_full_rows_reference(name, k, weights, angle, length):
    # Each leg's end read from its last row's values gives the residual, inf
    # included, that the last row of its full chords gives, and the same
    # legs stop at a cone point.
    s = oracle_surfaces()[name]
    t = s.triangles[k % len(s.triangles)]
    start = TangentDirection(SurfacePoint(t.id, chart_point(t, weights)), (math.cos(angle), math.sin(angle)))
    try:
        want = reference_reverse_check(s, start, length)
    except TraceIncomplete as exc:
        with pytest.raises(TraceIncomplete, match=str(exc)):
            reverse_check(s, start, length)
    else:
        assert reverse_check(s, start, length) == want


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(oracle_surfaces())),
    st.integers(0, 15),
    oracle_weights,
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(-1.0, 2.0),
    st.floats(-3.0, 0.0),
    st.integers(100, 3000),
    st.integers(0, 2**32),
)
@example("unit-torus", 0, (1.0, 1.0, 1.0), 0.3, 0.0, -1.3, 1, 0)
def test_density_matches_the_reference_loop(name, k, weights, angle, log_diameters, log_epsilon, samples, seed):
    # Traces of 0.1 to 100 diameters from a random point of a random chart,
    # epsilon from 1e-3 to 1, 100 to 3000 samples (and one): the same
    # samples, and the same verdict for every one of them, as the
    # per-triangle band loop.
    s = oracle_surfaces()[name]
    t = s.triangles[k % len(s.triangles)]
    start = TangentDirection(SurfacePoint(t.id, chart_point(t, weights)), (math.cos(angle), math.sin(angle)))
    tr = trace(s, start, 10.0**log_diameters * diameter_estimate(s))
    epsilon = 10.0**log_epsilon
    fraction, verdicts = reference_density(s, tr, epsilon, samples, seed)
    assert density_estimate(s, tr, epsilon, samples, seed).covered_fraction == fraction
    tri, x, y = _sample_points(s, samples, seed)
    order = np.argsort(tri, kind="stable")  # the reference's grouping by triangle
    ref = reference_sample_points(s, samples, seed)
    assert np.array_equal(np.column_stack((x, y))[order], np.concatenate(list(ref.values())))
    assert [s.triangles[d].id for d in np.unique(tri)] == list(ref)
    assert np.array_equal(_covered(s, tr, epsilon, samples, seed)[order], verdicts)
