import hashlib
import math

import numpy as np
import pytest

from conftest import all_vertices_ear_clip, pairwise_validate, validate_outcome

from flatgeo.builders import (
    CATALOG_PARALLEL,
    EXAMPLE1_PARAM,
    L_SHAPE,
    SQUARE,
    PolygonSpec,
    _ear_clip,
    catalog,
    cut_and_glue,
    double_of_polygon,
    example1_surface,
    example2_candidates,
    find_triangle_with_germ,
    flat_torus,
    isosceles_tetrahedron,
    klein_bottle,
    random_rectilinear_polygon,
    random_star_polygon,
    ring_double,
    square_identification_surface,
)
from flatgeo.errors import (
    ArcLengthMismatch,
    CutThroughVertex,
    DegenerateLattice,
    DegenerateTriangle,
    NonSimplePolygon,
    NotAcute,
    PerimeterMismatch,
    UncoveredBoundary,
    UnsupportedCut,
)
from flatgeo.geometry import polygon_area
from flatgeo.holonomy import curvature_test, is_parallel
from flatgeo.jsonio import surface_to_json
from flatgeo.surface import build_surface, gauss_bonnet_check
from flatgeo.tracer import SurfacePoint, TangentDirection, trace
from flatgeo.analysis import closed_geodesic_detect
from flatgeo.cli import main


def curvatures_as_pi(surface):
    return sorted(round(v.curvature / math.pi, 9) for v in surface.vertex_classes)


# --- tetrahedra -----------------------------------------------------------------


def test_regular_tetrahedron_is_parallel():
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    assert curvatures_as_pi(s) == [1.0, 1.0, 1.0, 1.0]
    assert is_parallel(s).parallel


def test_non_acute_face_still_builds():
    s = isosceles_tetrahedron((1.0, 1.0, 1.5))
    assert curvatures_as_pi(s) == [1.0, 1.0, 1.0, 1.0]


def test_impossible_face_raises():
    with pytest.raises(NotAcute):
        isosceles_tetrahedron((1.0, 1.0, 2.1))


def random_acute_triangle(rng):
    while True:
        a, b, c = rng.uniform(0.5, 2.0, 3)
        if a + b > c and b + c > a and c + a > b:
            if a * a + b * b > c * c and b * b + c * c > a * a and c * c + a * a > b * b:
                return (float(a), float(b), float(c))


def test_hundred_random_acute_tetrahedra():
    rng = np.random.default_rng(314)
    for _ in range(100):
        sides = random_acute_triangle(rng)
        s = isosceles_tetrahedron(sides)
        for v in s.vertex_classes:
            assert abs(v.curvature - math.pi) < 1e-9
        assert is_parallel(s).parallel


# --- tori -----------------------------------------------------------------------


def test_unit_torus():
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    assert s.euler_characteristic == 0
    assert is_parallel(s).parallel


def test_area_two_torus():
    s = flat_torus((2.0, 0.0), (1.0, 1.0))
    assert s.area() == pytest.approx(2.0)
    assert curvatures_as_pi(s) == [0.0]


def test_degenerate_lattice():
    with pytest.raises(DegenerateLattice):
        flat_torus((1.0, 0.0), (2.0, 0.0))


def test_lattice_of_infinite_area_rejected():
    with pytest.raises(DegenerateTriangle, match="non-finite signed area"):
        flat_torus((1e200, 0.0), (0.0, 1e200))


# --- doubles --------------------------------------------------------------------


def test_square_double_is_degenerate_tetrahedron():
    s = double_of_polygon(SQUARE)
    assert curvatures_as_pi(s) == [1.0, 1.0, 1.0, 1.0]
    assert is_parallel(s).parallel


def test_l_double_curvatures():
    s = double_of_polygon(L_SHAPE)
    assert curvatures_as_pi(s) == [-1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert is_parallel(s).parallel


def test_right_triangle_double_fails_curvature_test():
    s = double_of_polygon(PolygonSpec([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    # 2*pi - 2*beta: pi for the right angle, 3*pi/2 for each pi/4 corner
    assert curvatures_as_pi(s) == [-0.5, -0.5, 1.0] or curvatures_as_pi(s) == sorted([1.0, 1.5, 1.5])
    ok, offending = curvature_test(s)
    assert not ok
    assert len(offending) == 2


def test_double_corner_curvature_matches_interior_angle():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        spec = random_star_polygon(rng)
        s = double_of_polygon(spec)
        assert s.euler_characteristic == 2
        assert gauss_bonnet_check(s) < 1e-9
        assert sum(v.curvature for v in s.vertex_classes) == pytest.approx(4 * math.pi)
        pts = spec.vertices
        n = len(pts)
        interior = []
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            v1 = (a[0] - b[0], a[1] - b[1])
            v2 = (c[0] - b[0], c[1] - b[1])
            # counterclockwise polygon: interior angle turns from the
            # outgoing edge to the incoming one
            ang = math.atan2(v2[0] * v1[1] - v2[1] * v1[0], v2[0] * v1[0] + v2[1] * v1[1])
            interior.append(ang % (2 * math.pi))
        expected = sorted(2 * math.pi - 2 * b for b in interior)
        got = sorted(v.curvature for v in s.vertex_classes)
        assert got == pytest.approx(expected, abs=1e-9)


def test_non_simple_polygon_rejected():
    with pytest.raises(NonSimplePolygon):
        double_of_polygon(PolygonSpec([(0, 0), (1, 1), (1, 0), (0, 1)]))
    with pytest.raises(NonSimplePolygon):
        double_of_polygon(PolygonSpec([(0, 0), (0, 1), (1, 1), (1, 0)]))  # clockwise


@pytest.mark.parametrize(
    "vertices",
    [
        [(0.0, 0.0), (1.0, 0.0), (1.0, math.nan), (0.0, 1.0)],
        [(0.0, 0.0), (1.0, 0.0), (1.0, math.inf), (0.0, 1.0)],
        [(0.0, 0.0), (1e308, 0.0), (1e308, 1e308), (0.0, 1e308)],  # area overflows
    ],
    ids=["nan-vertex", "inf-vertex", "area-overflow"],
)
def test_non_finite_polygon_rejected(vertices):
    with pytest.raises(NonSimplePolygon, match="non-finite"):
        double_of_polygon(PolygonSpec(vertices))


def non_simple_variants(pts, rng):
    """(kind, vertices) for the polygon with two non-adjacent vertices
    swapped, a vertex moved onto the midpoint of a non-adjacent edge, an
    edge run back over itself, and a vertex repeated."""
    n = len(pts)
    i = int(rng.integers(n))
    j = (i + int(rng.integers(2, n - 1))) % n  # neither i nor next to it
    swapped = list(pts)
    swapped[i], swapped[j] = pts[j], pts[i]
    (ax, ay), (bx, by) = pts[j], pts[(j + 1) % n]
    touch = list(pts)
    touch[i] = ((ax + bx) / 2, (ay + by) / 2)
    # a -> 3/4 -> bump -> 1/2 -> b: the first and last pieces overlap
    (ax, ay), (bx, by) = pts[i], pts[(i + 1) % n]
    along = [(ax + t * (bx - ax), ay + t * (by - ay)) for t in (0.75, 0.6, 0.5)]
    along[1] = (along[1][0] - 0.1 * (by - ay), along[1][1] + 0.1 * (bx - ax))
    overlap = list(pts[: i + 1]) + along + list(pts[i + 1 :])
    repeated = list(pts[: j + 1]) + [pts[i]] + list(pts[j + 1 :])
    return [("swap", swapped), ("touch", touch), ("overlap", overlap), ("repeat", repeated)]


@pytest.mark.parametrize(
    "family,seeds",
    [
        (random_star_polygon, 40),
        (random_rectilinear_polygon, 40),
        (lambda rng: random_star_polygon(rng, 120, 120), 6),
    ],
    ids=["star", "rectilinear", "star-120"],
)
def test_validate_matches_all_pairs_oracle(family, seeds):
    rejected = dict.fromkeys(["swap", "touch", "overlap", "repeat"], 0)
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        pts = family(rng).vertices
        assert validate_outcome(lambda v: PolygonSpec(v).validate(), pts) is None
        for kind, vertices in non_simple_variants(pts, rng):
            got = validate_outcome(lambda v: PolygonSpec(v).validate(), vertices)
            assert got == validate_outcome(pairwise_validate, vertices), (seed, kind)
            rejected[kind] += got is not None
    assert all(rejected.values()), rejected


@pytest.mark.parametrize(
    "vertices,pair",
    [
        ([(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)], (0, 2)),
        ([(0, 0), (4, 0), (4, 3), (2, 3), (2, 0), (1, 3), (0, 3)], (0, 3)),
        ([(0, 0), (4, 0), (5, -2), (7, -2), (6, 0), (2, 0), (2, 3), (0, 3)], (0, 4)),
    ],
    ids=["vertex-on-edge", "t-junction", "collinear-overlap"],
)
def test_validate_rejects_lattice_contacts_at_the_first_pair(vertices, pair):
    # No pair crosses properly: the exact on-segment test decides each one.
    vertices = [(float(x), float(y)) for x, y in vertices]
    message = f"boundary edges {pair[0]} and {pair[1]} intersect"
    assert validate_outcome(lambda v: PolygonSpec(v).validate(), vertices) == message
    assert validate_outcome(pairwise_validate, vertices) == message


# --- ear clipping ---------------------------------------------------------------


def clip_outcome(clip, pts):
    try:
        return clip(tuple(pts))
    except NonSimplePolygon as e:
        return ("NonSimplePolygon", str(e))


def spike_polygon(gap):
    """A C shape whose lower arm sends a spike up to (5, -gap), just below
    the edge from vertex 0 to vertex 1.  Vertex 0's triangle (10, 0, 1)
    holds no vertex, but for gap <= eps / 10 = 4e-11 the eps-closed test
    counts the spike tip (vertex 4) in it.  The tip is then vertex 0's only
    blocker and the first ear, and clipping it makes vertex 0 an ear."""
    return [
        (0.0, 0.0), (10.0, 0.0), (10.0, -10.0), (6.0, -10.0), (5.0, -gap), (4.0, -10.0),
        (0.0, -10.0), (0.0, -20.0), (12.0, -20.0), (12.0, 10.0), (0.0, 10.0),
    ]


def diagonal_quad(t):
    """Vertex 2 at (5 + t, 5 + t): on vertex 0's diagonal x + y = 10 for
    t = 0 and beyond it for t > 0.  With eps = 1e-10 it blocks vertex 0,
    and is not convex, up to t = 5e-12; beyond that it is a convex ear."""
    return [(0.0, 0.0), (10.0, 0.0), (5.0 + t, 5.0 + t), (0.0, 10.0)]


EAR_CLIP_CASES = {
    "collinear-square": [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)],
    "collinear-l": [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1.5), (0, 1)],
    "collinear-skyline": [(0, 0), (3, 0), (3, 1), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)],
    "diagonal-inside": diagonal_quad(-1e-11),
    "diagonal-on": diagonal_quad(0.0),
    "diagonal-within-eps-beyond": diagonal_quad(4e-12),
    "diagonal-beyond-eps": diagonal_quad(6e-12),
    "spike-within-eps": spike_polygon(1e-11),
    "spike-beyond-eps": spike_polygon(5e-11),
    "clockwise": [(0, 0), (0, 1), (1, 1), (1, 0)],
    "figure-eight": [(0, 0), (4, 0), (4, 4), (2, 4), (2, -2), (1, -2), (1, 4), (0, 4)],
}


@pytest.mark.parametrize("name", EAR_CLIP_CASES)
def test_ear_clip_matches_all_vertices_oracle(name):
    pts = [(float(x), float(y)) for x, y in EAR_CLIP_CASES[name]]
    got = clip_outcome(_ear_clip, pts)
    assert got == clip_outcome(all_vertices_ear_clip, pts)
    # the non-simple inputs raise, with the same message
    assert isinstance(got, tuple) == (name in ("clockwise", "figure-eight"))


def test_ear_clip_retests_the_vertices_a_clipped_spike_blocked():
    # Without the re-test, vertex 0 keeps its dead blocker and (5, 6, 7) is clipped second.
    assert _ear_clip(tuple(spike_polygon(1e-11)))[:2] == [(3, 4, 5), (10, 0, 1)]
    assert _ear_clip(tuple(spike_polygon(5e-11)))[:2] == [(10, 0, 1), (3, 4, 5)]


def test_ear_clip_matches_oracle_on_non_simple_variants():
    raised = 0
    for seed in range(20):
        for family in (random_star_polygon, random_rectilinear_polygon):
            rng = np.random.default_rng(seed)
            pts = family(rng).vertices
            for kind, vertices in non_simple_variants(pts, rng):
                got = clip_outcome(_ear_clip, vertices)
                assert got == clip_outcome(all_vertices_ear_clip, vertices), (seed, kind)
                raised += isinstance(got, tuple)
    assert raised


# sha256 of `surface_to_json` of large star doubles and a rectilinear
# double, recorded before ear clipping kept each vertex's status: the
# triangles and their order fix every id and gluing.
GOLDEN_DOUBLE_DIGESTS = {
    "star-202": (
        lambda: random_star_polygon(np.random.default_rng(202), 202, 202),
        "0c443886bbd78ec16fdb8f134f1a910e652328217b074062c4b38b56b050a126",
    ),
    "star-802": (
        lambda: random_star_polygon(np.random.default_rng(802), 802, 802),
        "c2ce567f2aef161f4aef8779e73e10a6f64f4670f3d4333a5b7f8c52c2f15d68",
    ),
    "rectilinear": (
        lambda: random_rectilinear_polygon(np.random.default_rng(0)),
        "f423670c1b387a28aeab9837f7597a474b92209db00c3d588f0b88072a25c1df",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_DOUBLE_DIGESTS)
def test_large_double_matches_golden_digest(name):
    polygon, digest = GOLDEN_DOUBLE_DIGESTS[name]
    assert sha256(surface_to_json(double_of_polygon(polygon()))) == digest


# --- cut and glue ---------------------------------------------------------------


def test_example1_surface_invariants():
    s, info = example1_surface()
    assert s.euler_characteristic == 2
    assert s.orientable
    assert gauss_bonnet_check(s) < 1e-9
    assert s.area() == pytest.approx(2.0 + (1.0 / 6.0) ** 2, abs=1e-12)
    assert curvatures_as_pi(s) == [-0.5, -0.5, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0]
    verdict = is_parallel(s)
    assert not verdict.parallel
    assert not curvature_test(s)[0]
    assert len(info["patch_ids"]) == 2


def test_example1_closed_geodesics_avoid_patch():
    s, info = example1_surface()
    start = SurfacePoint(info["start_tri"], info["start_xy"])
    for n in (2, 3):
        d = (1.0 / n, 1.0)
        ln = math.hypot(*d)
        tr = trace(s, TangentDirection(start, (d[0] / ln, d[1] / ln)), 15.0)
        assert tr.termination.kind == "LengthReached"
        assert not any(seg.tri in info["patch_ids"] for seg in tr.segments)
        period = closed_geodesic_detect(s, tr)
        assert period == pytest.approx(2 * n * math.sqrt(1 + 1 / n**2), abs=1e-9)


SMALL_SQUARE = PolygonSpec([(0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.0, 0.1)])
EQUILATERAL_SIDE = 2.0 / 9.0
EQUILATERAL = PolygonSpec(
    [(0.0, 0.0), (EQUILATERAL_SIDE, 0.0), (EQUILATERAL_SIDE / 2, EQUILATERAL_SIDE * math.sqrt(3) / 2)]
)


def square_double_cut(x, y0, y1, patch, anchor=0):
    """The square double slit along {x} x [y0, y1], with ``patch`` sewn in."""
    base = double_of_polygon(SQUARE)
    host = find_triangle_with_germ(base, (x, (y0 + y1) / 2), (1.0, 0.0))
    return cut_and_glue(base, (host, (x, y0), (x, y1)), patch, anchor)


def test_cut_and_glue_preserves_area_and_adds_patch():
    s = square_double_cut(0.75, 0.3, 0.5, SMALL_SQUARE)
    assert s.area() == pytest.approx(2.0 + 0.01, abs=1e-12)
    assert s.euler_characteristic == 2
    assert gauss_bonnet_check(s) < 1e-9


def test_cut_and_glue_triangle_patch_splits_patch_edge():
    # equilateral patch: no patch vertex lands at the bank transition, so
    # one patch triangle must be split at an interior boundary point
    s = square_double_cut(EXAMPLE1_PARAM, 1.0 / 3.0, 2.0 / 3.0, EQUILATERAL)
    assert s.euler_characteristic == 2
    assert gauss_bonnet_check(s) < 1e-9
    assert s.area() == pytest.approx(2.0 + polygon_area(list(EQUILATERAL.vertices)), abs=1e-12)
    assert len(s.patch_triangle_ids) == 2  # one patch triangle was split in two


@pytest.mark.parametrize(
    "args", [(0.75, 0.5, 0.3, SMALL_SQUARE), (EXAMPLE1_PARAM, 2.0 / 3.0, 1.0 / 3.0, EQUILATERAL)]
)
def test_cut_with_two_host_corners_on_its_left(args):
    # Cutting downwards leaves the host's two right-hand corners on the
    # left of the cut; the left fan then wraps past the end of its polygon.
    s = square_double_cut(*args)
    assert s.euler_characteristic == 2
    assert s.area() == pytest.approx(2.0 + polygon_area(list(args[3].vertices)), abs=1e-12)
    assert gauss_bonnet_check(s) < 1e-9


@pytest.mark.parametrize("end", [(0.75, math.nan), (math.inf, 0.5)], ids=["nan", "inf"])
def test_non_finite_cut_endpoint_rejected(end):
    base = double_of_polygon(SQUARE)
    host = find_triangle_with_germ(base, (0.75, 0.4), (1.0, 0.0))
    with pytest.raises(UnsupportedCut, match="must be finite"):
        cut_and_glue(base, (host, (0.75, 0.3), end), SMALL_SQUARE)


def test_cut_perimeter_mismatch():
    base = double_of_polygon(SQUARE)
    host = find_triangle_with_germ(base, (0.75, 0.35), (1.0, 0.0))
    patch = PolygonSpec([(0.0, 0.0), (0.125, 0.0), (0.125, 0.125), (0.0, 0.125)])
    with pytest.raises(PerimeterMismatch):
        cut_and_glue(base, (host, (0.75, 1.0 / 3.0), (0.75, 2.0 / 3.0)), patch)


def test_cut_perimeter_checked_at_the_surface_tolerance():
    # Off by 1e-11: inside the old 1e-9 floor, beyond a 1e-14 surface
    # tolerance, so the cut must fail before any surgery.
    d = double_of_polygon(SQUARE)
    base = build_surface(d.triangles, d.gluings, 1e-14)
    host = find_triangle_with_germ(base, (0.75, 0.4), (1.0, 0.0))
    with pytest.raises(PerimeterMismatch):
        cut_and_glue(base, (host, (0.75, 0.3), (0.75, 0.5 + 1e-11)), SMALL_SQUARE)


@pytest.mark.parametrize("anchor", [1.5, 1.0, "1", None, True, -1, 4])
def test_cut_anchor_must_be_an_index(anchor):
    with pytest.raises(UnsupportedCut, match="anchor"):
        square_double_cut(0.75, 0.3, 0.5, SMALL_SQUARE, anchor)


def test_cut_accepts_a_numpy_integer_anchor():
    plain = surface_to_json(square_double_cut(0.75, 0.3, 0.5, SMALL_SQUARE, 2))
    assert surface_to_json(square_double_cut(0.75, 0.3, 0.5, SMALL_SQUARE, np.int64(2))) == plain


def test_cut_through_vertex():
    base = double_of_polygon(SQUARE)
    host = find_triangle_with_germ(base, (0.9, 0.5), (1.0, 0.0))
    tri = base.triangle(host)
    corner = tri.corner(1)
    inside = (0.8 * corner[0] + 0.2 * 0.85, 0.8 * corner[1] + 0.2 * 0.55)
    patch = PolygonSpec([(0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.0, 0.1)])
    with pytest.raises(CutThroughVertex):
        cut_and_glue(base, (host, corner, inside), patch)


# sha256 of every file `flatgeo catalog` writes, and of `surface_to_json`
# (with the patch triangle ids) of cuts of the square double: a square
# patch and a triangle patch that must be split, each at anchor 0, at
# another anchor, and cut downwards so that two host corners lie on the
# left of the cut.  A refactor of the builders must leave them
# byte-identical.
GOLDEN_CATALOG_DIGESTS = {
    "MANIFEST.json": "403132083d7c64f6ec9d767c78eba5a0b552ddc67918e7b3734548e0d58c55c9",
    "cube.json": "27fea9ae4409bd10f06e4152b02ca5c48509b7debf60d420e6974ce98dc210a9",
    "example1.json": "c98ede293f8aca1055524846e1d869055729a7564d300ff11dc169bf8d6d372c",
    "isosceles-tetrahedron.json": "de30c9d1441974b4e5dfc22f71131f8ddf03a47f6798c3448fc5091b80f4ed60",
    "klein-bottle.json": "ecadd2a76c7aa0e9e3632517b1da1dacca84ee65dc4f63c8e1f3b550d7a94cc7",
    "l-double.json": "2068cbe745ffe8c674cf3c7386389920a1620c70abd76ad3a299d95b790e51ba",
    "regular-tetrahedron.json": "1086ff0514817fe4225bc677e0b7c187e02503c87b06f760603b31d658f281ff",
    "ring-double.json": "80207f495880ca70912417c013cde33cdc7274c0853200850a99784eb70adb9c",
    "sheared-torus.json": "cfdbc09841fd7e27b98d3212401540caff0e5a74a22a5777b8a0ea456422d43c",
    "square-double.json": "f4efcfa554b927a797fedeb1bedbd89861df766128a28cdf26da04fff3fef343",
    "unit-torus.json": "46bd1f2e475be5326b384eab4958d49b40e4925ce3b93f00318793c970ecac38",
}
GOLDEN_CUT_DIGESTS = {
    "square-patch": (
        (0.75, 0.3, 0.5, SMALL_SQUARE, 0),
        "da4086fcdea5c1365eb5df6c17c875e04618c0c4978942b63dc77fe8abb126d7",
        (17, 18),
    ),
    "square-patch-anchor-3": (
        (0.75, 0.3, 0.5, SMALL_SQUARE, 3),
        "eb19f8cbdc1a1f16d067ed519adc3590e12d652fdeb38140a156f8c14bbb915f",
        (17, 18),
    ),
    "equilateral-split": (
        (EXAMPLE1_PARAM, 1.0 / 3.0, 2.0 / 3.0, EQUILATERAL, 0),
        "766ac716b9ef3ac48fa4e0ab82cd03544d8133b69478e73d486efc32be97774f",
        (18, 19),
    ),
    "equilateral-split-anchor-1": (
        (EXAMPLE1_PARAM, 1.0 / 3.0, 2.0 / 3.0, EQUILATERAL, 1),
        "99ad779760bc2cfc5c289fa7abe5fa7e0f5c58c1705b7c2db4a7e10a678c93d4",
        (18, 19),
    ),
    "square-patch-downward": (
        (0.75, 0.5, 0.3, SMALL_SQUARE, 0),
        "502717cb13328a595917493574cc6226caeaf9bd0352cefb70c623e355107be8",
        (17, 18),
    ),
    "equilateral-split-downward": (
        (EXAMPLE1_PARAM, 2.0 / 3.0, 1.0 / 3.0, EQUILATERAL, 0),
        "3bc4be1b328d9329a5e22691f05efc56df93310cb1ae8fccb36a22ca2da5bfa2",
        (18, 19),
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalog_files_match_golden_digests(tmp_path, capsys):
    assert main(["catalog", str(tmp_path)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert got == GOLDEN_CATALOG_DIGESTS


@pytest.mark.parametrize("name", GOLDEN_CUT_DIGESTS)
def test_cut_and_glue_matches_golden_digest(name):
    args, digest, patch_ids = GOLDEN_CUT_DIGESTS[name]
    s = square_double_cut(*args)
    assert (sha256(surface_to_json(s)), s.patch_triangle_ids) == (digest, patch_ids)


# --- square identifications ------------------------------------------------------


def test_square_identification_torus_matches_lattice_torus():
    s = square_identification_surface(
        [((0.0, 1.0), (2.0, 3.0), False), ((1.0, 2.0), (3.0, 4.0), False)]
    )
    t = flat_torus((1.0, 0.0), (0.0, 1.0))
    assert (s.euler_characteristic, s.orientable) == (t.euler_characteristic, t.orientable)
    assert curvatures_as_pi(s) == [0.0, 0.0]  # fan center is an extra marked point
    assert s.cone_points() == [] and t.cone_points() == []
    # matching closed-geodesic periods in both axis directions
    for d in ((1.0, 0.0), (0.0, 1.0)):
        tr_s = trace(s, TangentDirection(SurfacePoint(0, (0.3, 0.25)), d), 2.5)
        tr_t = trace(t, TangentDirection(SurfacePoint(0, (0.3, 0.25)), d), 2.5)
        ps = closed_geodesic_detect(s, tr_s)
        pt = closed_geodesic_detect(t, tr_t)
        assert ps == pytest.approx(1.0, abs=1e-9)
        assert pt == pytest.approx(1.0, abs=1e-9)


def test_klein_bottle_flat_and_nonorientable():
    s = klein_bottle()
    assert s.euler_characteristic == 0
    assert not s.orientable
    assert s.cone_points() == []
    assert not is_parallel(s).parallel


def test_identification_validation_errors():
    with pytest.raises(ArcLengthMismatch):
        square_identification_surface(
            [((0.0, 1.0), (2.0, 2.5), False), ((1.0, 2.0), (3.0, 4.0), False)]
        )
    with pytest.raises(UncoveredBoundary):
        square_identification_surface([((0.0, 1.0), (2.0, 3.0), False)])
    with pytest.raises(UncoveredBoundary):
        square_identification_surface(
            [((0.0, 1.5), (2.0, 3.5), False), ((1.5, 2.0), (3.5, 4.0), False)]
        )


def test_example2_candidate_with_stated_invariants_exists():
    found = []
    for name, pairing in example2_candidates():
        s = square_identification_surface(pairing)
        cones = s.cone_points()
        if (
            s.euler_characteristic == -1
            and not s.orientable
            and len(cones) == 1
            and abs(cones[0].curvature + 2 * math.pi) < 1e-9
        ):
            found.append(name)
    assert found


# --- ring double (quarter-turn holonomy with curvatures +-pi) --------------------


def test_ring_double_curvature_multiset():
    s = ring_double()
    assert curvatures_as_pi(s) == [-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
    assert s.euler_characteristic == 0
    assert s.orientable


# --- catalog ---------------------------------------------------------------------


def test_catalog_complete_and_audited():
    entries = catalog()
    assert len(entries) == 10
    names = [n for n, _s in entries]
    assert names == sorted(CATALOG_PARALLEL, key=names.index)
    for name, s in entries:
        assert gauss_bonnet_check(s) < 1e-9
        assert is_parallel(s).parallel == CATALOG_PARALLEL[name]


def test_catalog_deterministic_bytes():
    a = {n: surface_to_json(s) for n, s in catalog()}
    b = {n: surface_to_json(s) for n, s in catalog()}
    assert a == b


# --- random families -------------------------------------------------------------


def test_random_rectilinear_polygons_have_half_turn_corners():
    rng = np.random.default_rng(555)
    for _ in range(20):
        spec = random_rectilinear_polygon(rng)
        spec.validate()
        s = double_of_polygon(spec)
        for v in s.vertex_classes:
            assert abs(abs(v.curvature) - math.pi) < 1e-9
