import hashlib
import json
import math

import numpy as np
import pytest

from conftest import thin_torus

from flatgeo.builders import (
    L_SHAPE,
    cube_surface,
    double_of_polygon,
    flat_torus,
    isosceles_tetrahedron,
    klein_bottle,
    random_rectilinear_polygon,
    ring_double,
)
from flatgeo.errors import PointNotOnEdge
from flatgeo.geometry import TWO_PI, angle_distance_mod
from flatgeo.holonomy import (
    LineField,
    curvature_test,
    holonomy_generators,
    is_parallel,
    line_field_residual,
    loop_holonomy,
    transport_across,
    vertex_holonomy,
)
from flatgeo.surface import EdgeRef, Gluing, Triangle, build_surface
from flatgeo.tracer import SurfacePoint, TangentDirection, reverse_check


def edge_mid(surface, tri, edge):
    t = surface.triangle(tri)
    a, b = t.edge_start(edge), t.edge_end(edge)
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def test_transport_identity_on_torus():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    # the right<->left gluing is a pure translation
    gi = 1
    g = s.gluings[gi]
    p = SurfacePoint(g.a.tri, edge_mid(s, g.a.tri, g.a.edge))
    out = transport_across(s, TangentDirection(p, (0.0, 1.0)), gi)
    assert out.unit == pytest.approx((0.0, 1.0), abs=1e-12)


def test_transport_round_trip(catalog_surfaces):
    for s in catalog_surfaces.values():
        for gi, g in enumerate(s.gluings):
            p = SurfacePoint(g.a.tri, edge_mid(s, g.a.tri, g.a.edge))
            d = (math.cos(0.83), math.sin(0.83))
            there = transport_across(s, TangentDirection(p, d), gi)
            back = transport_across(s, there, gi)
            assert back.at.tri == p.tri
            assert math.dist(back.at.xy, p.xy) < 1e-9
            assert math.dist(back.unit, d) < 1e-12


def test_transport_reflected_gluing_angle_oracle():
    # Across a reversed gluing the linear part reflects: a direction at
    # angle t maps to (phi_a + phi_b) - t, where phi_a, phi_b are the two
    # chart edge angles.  Derived from the edge-to-edge identification.
    s = klein_bottle()
    gi = next(i for i, g in enumerate(s.gluings) if s.edge_transition(*g.a)[1].reflect)
    g = s.gluings[gi]
    ta, tb = s.triangle(g.a.tri), s.triangle(g.b.tri)
    (ax, ay), (bx, by) = ta.edge_vector(g.a.edge), tb.edge_vector(g.b.edge)
    phi_a, phi_b = math.atan2(ay, ax), math.atan2(by, bx)
    p = SurfacePoint(g.a.tri, edge_mid(s, g.a.tri, g.a.edge))
    for theta in (0.2, 1.1, 2.9, 4.4):
        out = transport_across(s, TangentDirection(p, (math.cos(theta), math.sin(theta))), gi)
        got = math.atan2(out.unit[1], out.unit[0])
        assert angle_distance_mod(got, phi_a + phi_b - theta, TWO_PI) < 1e-9


def test_transport_requires_point_on_edge():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(PointNotOnEdge):
        transport_across(s, TangentDirection(SurfacePoint(0, (0.5, 0.25)), (1.0, 0.0)), 0)


def test_generators_torus_trivial():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    gens = holonomy_generators(s)
    assert len(gens) == 2
    for _loop, h in gens:
        assert not h.reflect
        assert angle_distance_mod(h.angle, 0.0, TWO_PI) < 1e-12


def test_generators_tetrahedron_half_turns():
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    for _loop, h in holonomy_generators(s):
        assert not h.reflect and angle_distance_mod(h.angle, 0.0, math.pi) <= 1e-12


def test_generators_cube_quarter_turn():
    s = cube_surface()
    gens = holonomy_generators(s)
    assert any(
        not h.reflect and not h.is_half_turn_multiple() for _loop, h in gens
    )


def test_vertex_holonomy_examples(catalog_surfaces):
    tet = catalog_surfaces["regular-tetrahedron"]
    for v in tet.vertex_classes:
        h = vertex_holonomy(tet, v)
        assert not h.reflect
        assert angle_distance_mod(h.angle, math.pi, TWO_PI) < 1e-12
    cube = catalog_surfaces["cube"]
    for v in cube.vertex_classes:
        h = vertex_holonomy(cube, v)
        assert angle_distance_mod(h.angle, 3 * math.pi / 2, TWO_PI) < 1e-12
    torus = catalog_surfaces["unit-torus"]
    h = vertex_holonomy(torus, torus.vertex_classes[0])
    assert not h.reflect and angle_distance_mod(h.angle, 0.0, TWO_PI) < 1e-12


def test_vertex_holonomy_matches_curvature_everywhere(catalog_surfaces):
    for s in catalog_surfaces.values():
        for v in s.vertex_classes:
            h = vertex_holonomy(s, v)
            assert not h.reflect
            assert angle_distance_mod(h.angle, -v.curvature, TWO_PI) < 1e-9


def test_is_parallel_verdicts(catalog_surfaces):
    from flatgeo.builders import CATALOG_PARALLEL

    for name, s in catalog_surfaces.items():
        assert is_parallel(s).parallel == CATALOG_PARALLEL[name], name


def test_parallel_verdict_witness_properties(catalog_surfaces):
    for name, s in catalog_surfaces.items():
        v = is_parallel(s)
        root = min(t.id for t in s.triangles)
        if v.parallel:
            assert v.field is not None
            assert line_field_residual(s, v.field) < 1e-9
        else:
            assert v.witness is not None
            assert v.witness.reflect or not v.witness.is_half_turn_multiple()
            # replaying the witness loop reproduces the offending element
            replay = loop_holonomy(s, list(v.witness_loop), root)
            assert replay.reflect == v.witness.reflect
            assert angle_distance_mod(replay.angle, v.witness.angle, TWO_PI) < 1e-9


def test_orientability_witness_replays_to_reflection(catalog_surfaces):
    for s in catalog_surfaces.values():
        if s.orientable:
            assert s.orientation_witness is None
            continue
        root = min(t.id for t in s.triangles)
        assert loop_holonomy(s, s.orientation_witness, root).reflect


def test_parallel_implies_curvature_test(catalog_surfaces):
    for s in catalog_surfaces.values():
        if is_parallel(s).parallel:
            ok, offending = curvature_test(s)
            assert ok and not offending


def test_parallel_implies_orientable(catalog_surfaces):
    for s in catalog_surfaces.values():
        if is_parallel(s).parallel:
            assert s.orientable


def test_curvature_test_agrees_with_parallel_on_spheres(catalog_surfaces):
    # on a topological sphere, curvatures in Z*pi and parallelism coincide
    rng = np.random.default_rng(606)
    from flatgeo.builders import random_star_polygon

    spheres = [s for s in catalog_surfaces.values() if s.euler_characteristic == 2]
    spheres += [double_of_polygon(random_star_polygon(rng)) for _ in range(20)]
    for s in spheres:
        assert curvature_test(s)[0] == is_parallel(s).parallel


def test_sphere_converse_on_random_rectilinear_doubles():
    rng = np.random.default_rng(20250809)
    for _ in range(25):
        spec = random_rectilinear_polygon(rng)
        s = double_of_polygon(spec)
        assert s.euler_characteristic == 2
        ok, _off = curvature_test(s)
        assert ok
        assert is_parallel(s).parallel


def test_curvature_test_cube_fails_everywhere():
    ok, offending = curvature_test(cube_surface())
    assert not ok
    assert len(offending) == 8


def test_ring_double_quarter_turn_witness():
    s = ring_double()
    assert curvature_test(s)[0]  # all curvatures in Z*pi ...
    v = is_parallel(s)
    assert not v.parallel  # ... yet not parallel: no sphere converse off chi=2
    assert not v.witness.reflect
    assert angle_distance_mod(v.witness.angle, math.pi / 2, math.pi) < 1e-9


def test_loop_composition_group_laws():
    # The cube's generators are rotations, so concatenating dual loops adds
    # their angles and the reversed loop negates its angle, mod 2*pi.
    s = cube_surface()
    gens = holonomy_generators(s)
    (l1, h1), (l2, h2) = gens[0], gens[1]
    root = min(t.id for t in s.triangles)
    e1 = loop_holonomy(s, list(l1), root)
    e2 = loop_holonomy(s, list(l2), root)
    both = loop_holonomy(s, list(l1) + list(l2), root)
    back = loop_holonomy(s, list(reversed(l1)), root)
    assert not (e1.reflect or e2.reflect or both.reflect or back.reflect)
    assert angle_distance_mod(e2.angle + e1.angle, both.angle, TWO_PI) < 1e-9
    assert angle_distance_mod(e1.angle + back.angle, 0.0, TWO_PI) <= 1e-9
    assert e1.reflect == h1.reflect
    assert angle_distance_mod(e1.angle, h1.angle, TWO_PI) < 1e-9
    assert angle_distance_mod(e2.angle, h2.angle, TWO_PI) < 1e-9


@pytest.mark.parametrize("kind", ["nan-angle", "missing-triangle"])
def test_line_field_residual_rejects_uncheckable_field(kind):
    s = double_of_polygon(L_SHAPE)
    if kind == "nan-angle":
        field = LineField({t.id: math.nan for t in s.triangles})
    else:
        field = LineField({t.id: 0.0 for t in s.triangles[1:]})
    with pytest.raises(ValueError, match="no finite angle"):
        line_field_residual(s, field)


def gluing_walks_text(s) -> str:
    """Every value the gluing walks produce on one surface, as reprs."""
    rows = [repr(s.edge_transition(t.id, e)) for t in s.triangles for e in range(3)]
    rows += [repr(list(s.corner_fan(*v.corners[0]))) for v in s.vertex_classes]
    rows += [repr(sorted(s.chart_to_root.items())), repr(s.orientation_witness)]
    root = min(t.id for t in s.triangles)
    rows += [repr((loop, h, loop_holonomy(s, list(loop), root))) for loop, h in holonomy_generators(s)]
    rows += [repr(vertex_holonomy(s, v)) for v in s.vertex_classes]
    rows.append(json.dumps(is_parallel(s).to_json_dict()))
    for gi, g in enumerate(s.gluings):
        p = SurfacePoint(g.a.tri, edge_mid(s, g.a.tri, g.a.edge))
        rows.append(repr(transport_across(s, TangentDirection(p, (math.cos(0.83), math.sin(0.83))), gi)))
    return "\n".join(rows)


# Recorded before the crossing table replaced the per-call side decoding;
# a refactor of the gluing walks must leave every value bit-identical.
GOLDEN_GLUING_WALK_DIGESTS = {
    "cube": "ce688f8de38bf827ffda5da1cb5942533f916f47da21632884b0befa321bcb2c",
    "example1": "c8b5960548b02cfa806a8094b0770ca799e796c3b0849ba9edfe6e12bc4c6e9c",
    "isosceles-tetrahedron": "778df9e85dd5f4e1298d223fa57603b487b776d75449c6d6a79720b48d7be459",
    "klein-bottle": "2c91b1c50c07bb21587962843733c68ee9de2266b00cf4ecfbe38acbba698a7e",
    "l-double": "9085dbc161681aeb1ef97c96592f0c03cab198be36f0780b952faed36ae9b0b5",
    "regular-tetrahedron": "4fb0d85fb0082cc4f9e4d7958f015c665db931077c3e0741d7161819b1d4335d",
    "ring-double": "96a9d92bdea6deb0f667ddc0ac27c61fb18579fa07146f6b6196bc338a892222",
    "sheared-torus": "5c01e4151b386258b3d4a01b036b853dffd29b727785aacc272979eb955a4513",
    "square-double": "aab95827b4848c0689d90d9d29be8bcc6f1edb2961d43294cd6641488a93a3fc",
    "unit-torus": "716077f1f2cbb2ec2a2a38fb3d388b7cde27f61a329a980fb34e1baa189fc0ae",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GLUING_WALK_DIGESTS))
def test_gluing_walks_match_golden_digest(catalog_surfaces, name):
    text = gluing_walks_text(catalog_surfaces[name])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GLUING_WALK_DIGESTS[name]


def self_glued_sphere(reversed_fold: bool):
    """Two triangles; triangle 0 folds its edge 1 onto its own edge 2, so
    both sides of that gluing, and of (1, 1)~(1, 2), are one triangle."""
    tris = [
        Triangle(0, ((0.0, 0.0), (2.0, 0.0), (1.0, 1.0))),
        Triangle(1, ((2.0, 0.0), (0.0, 0.0), (1.0, -1.0))),
    ]
    gluings = [
        Gluing(EdgeRef(0, 1), EdgeRef(0, 2), reversed_fold),
        Gluing(EdgeRef(0, 0), EdgeRef(1, 0)),
        Gluing(EdgeRef(1, 1), EdgeRef(1, 2)),
    ]
    return build_surface(tris, gluings)


def test_gluing_with_both_sides_in_one_triangle():
    s = self_glued_sphere(False)
    assert (s.euler_characteristic, s.orientable) == (2, True)
    assert sorted(v.cone_angle for v in s.vertex_classes) == pytest.approx(
        [math.pi / 2, math.pi / 2, math.pi]
    )
    verdict = is_parallel(s)
    assert not verdict.parallel and not verdict.witness.reflect
    assert angle_distance_mod(verdict.witness.angle, 3 * math.pi / 2, TWO_PI) < 1e-12
    for loop, h in holonomy_generators(s):
        assert loop_holonomy(s, list(loop), 0) == h
    for v in s.vertex_classes:
        h = vertex_holonomy(s, v)
        assert not h.reflect and angle_distance_mod(h.angle, -v.curvature, TWO_PI) < 1e-9
    start = TangentDirection(SurfacePoint(0, (1.0, 0.6)), (math.cos(0.3), math.sin(0.3)))
    assert reverse_check(s, start, 20.0) < 1e-9


def test_reversed_gluing_within_one_triangle_is_a_cross_cap():
    s = self_glued_sphere(True)
    assert (s.euler_characteristic, s.orientable) == (1, False)
    assert loop_holonomy(s, s.orientation_witness, 0).reflect


GLUING_ID_CASES = {
    "transport-negative-id": lambda t, c: transport_across(t, _torus_tangent(t), -3),
    "transport-id-past-end": lambda t, c: transport_across(t, _torus_tangent(t), 3),
    "transport-bool-id": lambda t, c: transport_across(t, _torus_tangent(t), True),
    "loop-negative-id": lambda t, c: loop_holonomy(t, [0, -3], 0),
    "loop-float-id": lambda t, c: loop_holonomy(t, [0.0], 0),
    "loop-base-not-on-surface": lambda t, c: loop_holonomy(t, [], 999),
    "loop-bool-base": lambda t, c: loop_holonomy(t, [], True),
    "foreign-vertex": lambda t, c: vertex_holonomy(t, c.vertex_classes[5]),
}


def _torus_tangent(torus):
    g = torus.gluings[0]
    return TangentDirection(SurfacePoint(g.a.tri, edge_mid(torus, g.a.tri, g.a.edge)), (0.0, 1.0))


@pytest.mark.parametrize("case", GLUING_ID_CASES)
def test_ids_not_of_the_surface_raise_value_error(catalog_surfaces, case):
    torus, cube = catalog_surfaces["unit-torus"], catalog_surfaces["cube"]
    with pytest.raises(ValueError):
        GLUING_ID_CASES[case](torus, cube)


def test_numpy_integer_gluing_ids_are_gluing_ids(catalog_surfaces):
    for name in ("unit-torus", "cube"):
        s = catalog_surfaces[name]
        if name == "unit-torus":
            d = _torus_tangent(s)
            assert transport_across(s, d, np.int64(0)) == transport_across(s, d, 0)
        for loop, h in holonomy_generators(s):
            assert loop_holonomy(s, [np.int64(gi) for gi in loop], np.int64(0)) == h
            assert loop_holonomy(s, [np.uint16(gi) for gi in loop], 0) == h


def test_thin_torus_is_parallel_within_its_chart_resolution():
    s = thin_torus()
    assert all(not h.is_half_turn_multiple() for _loop, h in holonomy_generators(s))
    verdict = is_parallel(s)
    assert verdict.parallel
    assert line_field_residual(s, verdict.field) < 1e-8
