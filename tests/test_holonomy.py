import math

import numpy as np
import pytest

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
from flatgeo.geometry import TWO_PI, angle_distance_mod, angle_of
from flatgeo.holonomy import (
    HolonomyElement,
    LineField,
    curvature_test,
    holonomy_generators,
    is_parallel,
    line_field_residual,
    loop_holonomy,
    transport_across,
    vertex_holonomy,
)
from flatgeo.tracer import SurfacePoint, TangentDirection


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
    gi = next(i for i, tr in enumerate(s.transitions) if tr.reflect)
    g = s.gluings[gi]
    ta, tb = s.triangle(g.a.tri), s.triangle(g.b.tri)
    phi_a = angle_of(ta.edge_vector(g.a.edge))
    phi_b = angle_of(tb.edge_vector(g.b.edge))
    p = SurfacePoint(g.a.tri, edge_mid(s, g.a.tri, g.a.edge))
    for theta in (0.2, 1.1, 2.9, 4.4):
        out = transport_across(s, TangentDirection(p, (math.cos(theta), math.sin(theta))), gi)
        got = angle_of(out.unit)
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
        assert h.is_half_turn_multiple(1e-12)


def test_generators_cube_quarter_turn():
    s = cube_surface()
    gens = holonomy_generators(s)
    assert any(
        not h.reflect and not h.is_half_turn_multiple(1e-9) for _loop, h in gens
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
            assert v.witness.reflect or not v.witness.is_half_turn_multiple(1e-9)
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
    rng = np.random.default_rng(99)
    elems = [
        HolonomyElement(bool(rng.integers(0, 2)), float(rng.uniform(0, TWO_PI)))
        for _ in range(30)
    ]
    for a in elems[:10]:
        for b in elems[10:20]:
            ab = a.compose(b)
            assert ab.compose(b.inverse()).compose(a.inverse()).is_rotation_by(0.0, 1e-9)
    # concatenating dual loops multiplies their elements, and inverse
    # loops give inverse elements
    s = cube_surface()
    gens = holonomy_generators(s)
    (l1, h1), (l2, h2) = gens[0], gens[1]
    root = min(t.id for t in s.triangles)
    e1 = loop_holonomy(s, list(l1), root)
    e2 = loop_holonomy(s, list(l2), root)
    both = loop_holonomy(s, list(l1) + list(l2), root)
    assert angle_distance_mod(e2.compose(e1).angle, both.angle, TWO_PI) < 1e-9
    back = loop_holonomy(s, list(reversed(l1)), root)
    assert e1.compose(back).is_rotation_by(0.0, 1e-9)
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
