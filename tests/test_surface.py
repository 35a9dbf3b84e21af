import math

import numpy as np
import pytest

from conftest import all_sources_diameter

from flatgeo.builders import (
    L_SHAPE,
    SQUARE,
    PolygonSpec,
    cube_surface,
    double_of_polygon,
    example2_candidates,
    flat_torus,
    isosceles_tetrahedron,
    klein_bottle,
    random_star_polygon,
    square_identification_surface,
)
from flatgeo.errors import (
    DegenerateTriangle,
    Disconnected,
    LengthMismatch,
    MalformedSurface,
    UnmatchedEdge,
)
import flatgeo.surface as surface_mod
from flatgeo.jsonio import surface_from_json, surface_to_json
from flatgeo.surface import (
    EdgeRef,
    Gluing,
    Triangle,
    build_surface,
    diameter_estimate,
    gauss_bonnet_check,
)

TORUS_TRIS = [
    Triangle(0, ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))),
    Triangle(1, ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
]
TORUS_GL = [
    Gluing(EdgeRef(0, 0), EdgeRef(1, 1)),
    Gluing(EdgeRef(0, 1), EdgeRef(1, 2)),
    Gluing(EdgeRef(0, 2), EdgeRef(1, 0)),
]


def test_flat_torus_by_hand():
    s = build_surface(TORUS_TRIS, TORUS_GL)
    assert s.euler_characteristic == 0
    assert s.orientable
    assert len(s.vertex_classes) == 1
    v = s.vertex_classes[0]
    assert v.cone_angle == pytest.approx(2 * math.pi)
    assert v.curvature == pytest.approx(0.0)
    assert not v.is_cone


def test_regular_tetrahedron_curvatures():
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    assert len(s.vertex_classes) == 4
    for v in s.vertex_classes:
        assert v.cone_angle == pytest.approx(math.pi, abs=1e-12)
        assert v.curvature == pytest.approx(math.pi, abs=1e-12)
    assert s.euler_characteristic == 2


def test_cube_vertex_curvature():
    s = cube_surface()
    # three quarter-turn corners per vertex: 2*pi - 3*pi/2
    for v in s.vertex_classes:
        assert v.curvature == pytest.approx(math.pi / 2, abs=1e-12)


def test_length_mismatch_raises():
    tris = [
        Triangle(0, ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))),
        Triangle(1, ((0.0, 0.0), (0.9, 0.0), (0.0, 0.9))),
    ]
    gl = [
        Gluing(EdgeRef(0, 0), EdgeRef(1, 0)),
        Gluing(EdgeRef(0, 1), EdgeRef(1, 1)),
        Gluing(EdgeRef(0, 2), EdgeRef(1, 2)),
    ]
    with pytest.raises(LengthMismatch):
        build_surface(tris, gl)


def test_unmatched_edge_raises():
    with pytest.raises(UnmatchedEdge):
        build_surface(TORUS_TRIS, TORUS_GL[:2])
    dup = TORUS_GL + [Gluing(EdgeRef(0, 0), EdgeRef(1, 1))]
    with pytest.raises(UnmatchedEdge):
        build_surface(TORUS_TRIS, dup)


def test_degenerate_triangle_raises():
    tris = [Triangle(0, ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))] + TORUS_TRIS[1:]
    with pytest.raises(DegenerateTriangle):
        build_surface(tris, TORUS_GL)
    clockwise = [Triangle(0, ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)))] + TORUS_TRIS[1:]
    with pytest.raises(DegenerateTriangle):
        build_surface(clockwise, TORUS_GL)
    # Finite corners whose area overflows to inf, or whose edge vectors
    # overflow so that the area is nan.
    for corners in (
        ((0.0, 0.0), (1e200, 0.0), (1e200, 1e200)),
        ((-1e308, -1e308), (1e308, -1e308), (1e308, 1e308)),
    ):
        with pytest.raises(DegenerateTriangle, match="non-finite signed area"):
            build_surface([Triangle(0, corners)] + TORUS_TRIS[1:], TORUS_GL)


def test_disconnected_raises():
    tris = TORUS_TRIS + [
        Triangle(2, ((5.0, 0.0), (6.0, 0.0), (6.0, 1.0))),
        Triangle(3, ((5.0, 0.0), (6.0, 1.0), (5.0, 1.0))),
    ]
    gl = TORUS_GL + [
        Gluing(EdgeRef(2, 0), EdgeRef(3, 1)),
        Gluing(EdgeRef(2, 1), EdgeRef(3, 2)),
        Gluing(EdgeRef(2, 2), EdgeRef(3, 0)),
    ]
    with pytest.raises(Disconnected):
        build_surface(tris, gl)


def test_orientability_witness_on_klein_bottle():
    s = klein_bottle()
    assert not s.orientable
    witness = s.orientation_witness
    assert witness
    # the witness walk must compose to an orientation-reversing map
    reflections = sum(1 for gi in witness if s.edge_transition(*s.gluings[gi].a)[1].reflect)
    assert reflections % 2 == 1


def test_doubles_are_spheres_and_orientable():
    for spec in (SQUARE, L_SHAPE):
        s = double_of_polygon(spec)
        assert s.euler_characteristic == 2
        assert s.orientable


def test_gauss_bonnet_examples(catalog_surfaces):
    tet = catalog_surfaces["regular-tetrahedron"]
    assert gauss_bonnet_check(tet) < 1e-12
    torus = catalog_surfaces["unit-torus"]
    assert gauss_bonnet_check(torus) < 1e-12
    l_double = catalog_surfaces["l-double"]
    # five corners of curvature pi, one of -pi, against 2*pi*chi = 4*pi
    assert sum(v.curvature for v in l_double.vertex_classes) == pytest.approx(4 * math.pi)
    assert gauss_bonnet_check(l_double) < 1e-12


def test_corner_cycles_partition_and_angle_sum(catalog_surfaces):
    for s in catalog_surfaces.values():
        n_corners = sum(len(v.corners) for v in s.vertex_classes)
        assert n_corners == 3 * len(s.triangles)
        total_cone = sum(v.cone_angle for v in s.vertex_classes)
        total_angles = sum(t.angle_at(k) for t in s.triangles for k in range(3))
        assert total_cone == pytest.approx(total_angles, abs=1e-9)


def test_every_edge_glued_once(catalog_surfaces):
    for s in catalog_surfaces.values():
        for t in s.triangles:
            for e in range(3):
                there, iso = s.edge_transition(t.id, e)
                back, inv = s.edge_transition(*there)
                assert back == (t.id, e)
                assert inv.compose(iso).is_identity()


def test_transition_endpoint_audit(catalog_surfaces):
    for s in catalog_surfaces.values():
        for g in s.gluings:
            ta, tb = s.triangle(g.a.tri), s.triangle(g.b.tri)
            a0, a1 = ta.edge_start(g.a.edge), ta.edge_end(g.a.edge)
            if g.reversed:
                want = (tb.edge_start(g.b.edge), tb.edge_end(g.b.edge))
            else:
                want = (tb.edge_end(g.b.edge), tb.edge_start(g.b.edge))
            for src, dst in zip((a0, a1), want):
                assert math.dist(s.edge_transition(*g.a)[1].apply(src), dst) < 1e-9


def test_build_is_deterministic():
    a = build_surface(TORUS_TRIS, TORUS_GL)
    b = build_surface(TORUS_TRIS, TORUS_GL)
    assert surface_to_json(a) == surface_to_json(b)
    assert [v.corners for v in a.vertex_classes] == [v.corners for v in b.vertex_classes]


def test_json_round_trip_bit_exact(catalog_surfaces):
    for s in catalog_surfaces.values():
        text = surface_to_json(s)
        back = surface_from_json(text)
        assert surface_to_json(back) == text
        assert back.euler_characteristic == s.euler_characteristic
        assert back.orientable == s.orientable


def test_check_vertex_requires_membership():
    a = build_surface(TORUS_TRIS, TORUS_GL)
    b = isosceles_tetrahedron((1.0, 1.0, 1.0))
    a.check_vertex(a.vertex_classes[0])
    with pytest.raises(ValueError, match="does not belong"):
        a.check_vertex(b.vertex_classes[0])


def test_marked_points_excluded_from_cone_set():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    assert len(s.vertex_classes) == 1
    assert s.cone_points() == []


# The pruned diameter must be the all-sources maximum bit for bit: scan
# lengths are multiples of it, so one ulp would change every scan CSV.
def test_diameter_matches_all_sources_on_catalog(catalog_surfaces):
    for name, s in catalog_surfaces.items():
        assert diameter_estimate(s) == all_sources_diameter(s), name


def test_diameter_matches_all_sources_on_square_identifications():
    for name, pairing in example2_candidates():
        s = square_identification_surface(pairing)
        assert diameter_estimate(s) == all_sources_diameter(s), name


def test_diameter_matches_all_sources_on_400_triangle_star_double():
    s = double_of_polygon(random_star_polygon(np.random.default_rng(2024), 202, 202))
    assert len(s.triangles) == 400
    assert diameter_estimate(s) == all_sources_diameter(s)


def test_diameter_keeps_a_sliver_centroid_that_shortens_a_path(monkeypatch):
    # The top ear is a sliver 4e-9 high.  Its centroid's spokes exceed its
    # base by less than rounding, so the centroid stays a graph node; the
    # float path through it is an ulp shorter than the edge, and folding
    # it out would move the diameter by that ulp.
    s = double_of_polygon(PolygonSpec([
        (0.0, 0.0),
        (1.9740290523102784, 0.0),
        (1.9740290523102784, 1.6973880839609412),
        (0.49023715068125545, 1.6973880880353314),
        (0.0, 1.6973880839609412),
    ]))
    assert len(surface_mod._skeleton(s)[3]) == 2  # one sliver per copy
    assert diameter_estimate(s) == all_sources_diameter(s)
    monkeypatch.setattr(surface_mod, "CENTROID_FOLD_REL", -math.inf)
    assert len(surface_mod._skeleton(s)[3]) == 0
    assert diameter_estimate(s) != all_sources_diameter(s)


def test_items_not_triangles_or_gluings_raise_malformed_surface():
    as_tuples = [(t.id, t.corners) for t in TORUS_TRIS]
    with pytest.raises(MalformedSurface, match="is not a Triangle"):
        build_surface(as_tuples, TORUS_GL)
    as_tuples = [(tuple(g.a), tuple(g.b), g.reversed) for g in TORUS_GL]
    with pytest.raises(MalformedSurface, match="is not a Gluing"):
        build_surface(TORUS_TRIS, as_tuples)


@pytest.mark.parametrize(
    "gluing",
    [
        Gluing((0, 0), (1, 1)),
        Gluing(EdgeRef(0, 0.0), EdgeRef(1, 1)),
        Gluing(EdgeRef(0, True), EdgeRef(1, 1)),
    ],
    ids=["plain-tuples", "float-edge", "bool-edge"],
)
def test_gluing_sides_that_are_not_int_edge_refs_raise_malformed_surface(gluing):
    with pytest.raises(MalformedSurface, match="is not an EdgeRef of two ints"):
        build_surface(TORUS_TRIS, [gluing, *TORUS_GL[1:]])


@pytest.mark.parametrize("tri_id", [True, 0.5], ids=["bool", "float"])
def test_triangle_ids_that_are_not_ints_raise_malformed_surface(tri_id):
    tris = [TORUS_TRIS[0], Triangle(tri_id, TORUS_TRIS[1].corners)]
    with pytest.raises(MalformedSurface, match="triangle id must be an integer"):
        build_surface(tris, TORUS_GL)


def test_numpy_int_gluing_sides_build():
    gl = [Gluing(EdgeRef(np.int64(g.a.tri), g.a.edge), g.b, g.reversed) for g in TORUS_GL]
    assert build_surface(TORUS_TRIS, gl).crossings == build_surface(TORUS_TRIS, TORUS_GL).crossings
