"""Constructors for every surface family used by the experiments.

All builders are deterministic: identical inputs give bit-identical
surfaces, so catalog files and fixtures reproduce byte-for-byte.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutThroughVertex,
    DegenerateLattice,
    NonSimplePolygon,
    NotAcute,
    PerimeterMismatch,
    UncoveredBoundary,
    ArcLengthMismatch,
    UnsupportedCut,
    int_arg,
)
from .geometry import (
    METRIC_TOL,
    Vec,
    cross,
    normalize,
    point_segment_distance,
    polygon_area,
)
from .surface import EdgeRef, FlatSurface, Gluing, Triangle, build_surface


# Row-by-edge cells of one block of validate's bounding-box test.
_PAIR_BLOCK = 1 << 16


def _edges_intersect(xy, i, j) -> np.ndarray:
    """Whether the closed polygon edges ``(pts[i], pts[i + 1])`` and
    ``(pts[j], pts[(j + 1) % n])`` meet, for index arrays i < n - 1 and j,
    by the orientation-sign test of the pairwise oracle
    ``segments_intersect`` in ``tests/conftest.py`` at ``tol = 0``.  Its
    four orientations and four on-segment tests share their corner triples
    (a, b, c), so each expression runs once over all four, operand for
    operand.  ``on_seg`` is ``wx - t * vx == 0 and wy - t * vy == 0``,
    which is where its hypot is at most 0, with ``t`` clamped as
    ``max(0.0, min(1.0, ...))`` clamps it (NaN to 1)."""
    n = len(xy)
    i1, j1 = i + 1, (j + 1) % n
    (ax, ay), (bx, by), (cx, cy) = (
        xy[np.array(k)].transpose(2, 0, 1) for k in ((i, i, j, j), (i1, i1, j1, j1), (j, j1, i, i1))
    )
    with np.errstate(all="ignore"):
        vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay
        o = vx * wy - vy * wx
        pos = o > 0
        proper = (pos[0] != pos[1]) & (pos[2] != pos[3]) & (o != 0).all(axis=0)
        denom = vx * vx + vy * vy
        t = (wx * vx + wy * vy) / denom
        t = np.where(t < 1.0, t, 1.0)
        t = np.where((t > 0.0) & (denom != 0.0), t, 0.0)
        on_seg = (wx - t * vx == 0.0) & (wy - t * vy == 0.0)
    return proper | on_seg.any(axis=0)


@dataclass(frozen=True)
class PolygonSpec:
    """A simple counterclockwise polygon in the plane."""

    vertices: tuple[Vec, ...]

    def __init__(self, vertices):
        object.__setattr__(
            self, "vertices", tuple((float(x), float(y)) for x, y in vertices)
        )

    def validate(self) -> None:
        """Raise NonSimplePolygon unless the polygon is finite, simple and
        counterclockwise."""
        pts = self.vertices
        n = len(pts)
        if n < 3:
            raise NonSimplePolygon("polygon needs at least 3 vertices")
        xy = np.array(pts)
        area = polygon_area(list(pts))
        if not (np.isfinite(xy).all() and math.isfinite(area)):
            raise NonSimplePolygon("polygon has a non-finite coordinate or area")
        if area <= 0:
            raise NonSimplePolygon("polygon must be counterclockwise with positive area")
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            if math.hypot(b[0] - a[0], b[1] - a[1]) == 0.0:
                raise NonSimplePolygon("zero-length polygon edge")
        # Only edge pairs whose padded bounding boxes overlap can pass the
        # exact test: the pad is far above its rounding.  Each block of rows
        # tests its candidate pairs at once, in (i, j) order, so the first
        # failing pair is that of the all-pairs loop.
        ends = np.roll(xy, -1, axis=0)
        pad = 1e-9 * (1.0 + np.abs(xy).max())
        (x0, y0), (x1, y1) = (np.minimum(xy, ends) - pad).T, (np.maximum(xy, ends) + pad).T
        step = max(1, _PAIR_BLOCK // n)
        for r in range(0, n - 2, step):
            rows = np.arange(r, min(r + step, n - 2))[:, None]
            near = (x0 <= x1[rows]) & (x1 >= x0[rows]) & (y0 <= y1[rows]) & (y1 >= y0[rows])
            near &= np.arange(n) >= rows + 2
            if r == 0:
                near[0, n - 1] = False  # edges 0 and n - 1 share vertex 0
            i, j = np.nonzero(near)
            i += r
            hit = np.flatnonzero(_edges_intersect(xy, i, j))
            if len(hit):
                raise NonSimplePolygon(f"boundary edges {i[hit[0]]} and {j[hit[0]]} intersect")

    def perimeter(self) -> float:
        pts = self.vertices
        return sum(
            math.hypot(pts[(i + 1) % len(pts)][0] - p[0], pts[(i + 1) % len(pts)][1] - p[1])
            for i, p in enumerate(pts)
        )


# Ear clipping's collinearity and containment epsilon, relative to the
# squared coordinate scale.
EAR_REL_EPS = 1e-12
# Edge-by-vertex cells of one containment broadcast; bounds its temporaries.
_EAR_BLOCK = 1 << 16
_NOT_CONVEX, _EAR, _CLIPPED = -1, -2, -3


def _first_blockers(xy, alive, a: list, b: list, c: list, eps) -> list[int]:
    """For each convex tip ``b[r]`` with neighbours ``a[r]`` and ``c[r]``:
    the first live vertex other than those three in its ``eps``-closed
    triangle, or _EAR if there is none.  A point p is outside when
    ``(v0 - u0) * (p1 - u1) - (v1 - u1) * (p0 - u0) < -eps`` for an edge
    (u, v): the scalar test's expression, operand for operand, so every
    boolean equals the scalar one."""
    n = xy.shape[1]
    step = max(1, _EAR_BLOCK // (3 * n))
    first = []
    for r in range(0, len(b), step):
        ar, br, cr = a[r : r + step], b[r : r + step], c[r : r + step]
        k = len(br)
        ends = np.array(ar + br + cr + br + cr + ar)  # edges ab, bc, ca of each tip
        uv = xy[:, ends]
        u = uv[:, : 3 * k]
        d = (uv[:, 3 * k :] - u)[:, :, None]  # (v0 - u0, v1 - u1)
        prod = d * (xy[:, None, :] - u[:, :, None])[::-1]  # times (p1 - u1, p0 - u0)
        out = (prod[0] - prod[1] < -eps).reshape(3, k, n)
        inside = alive > np.logical_or.reduce(out)
        inside[np.array(list(range(k)) * 3), ends[: 3 * k]] = False
        j = inside.argmax(axis=1).tolist()
        first += [jr if row[jr] else _EAR for row, jr in zip(inside, j)]
    return first


def _ear_clip(pts: tuple[Vec, ...]) -> list[tuple[int, int, int]]:
    """Deterministic ear clipping: lowest remaining index first.

    Each vertex keeps a status: not convex (its corner's cross product is
    at most eps), blocked by a live vertex in its closed triangle, or an
    ear; the ears wait in a heap.  Clipping tip t changes the triangles of
    t's two neighbours only and takes t out of every test, so only those
    neighbours and the vertices t blocked are decided again.  Every other
    status stands: its triangle and its blocker are unchanged, and an ear
    stays an ear as the live set shrinks.  So the triangles are those of
    testing every vertex against every other after every clip.  (In exact
    arithmetic a vertex's last blocker is reflex, so no clip can unblock
    it; the eps-closed test breaks that for a convex vertex within eps of
    the triangle, which is why the vertices a tip blocked are re-tested.)
    """
    n = len(pts)
    scale = max(max(abs(x), abs(y)) for x, y in pts) or 1.0
    eps = EAR_REL_EPS * scale * scale
    xy = np.array(pts, dtype=float).T.copy()
    prev, nxt = [n - 1, *range(n - 1)], [*range(1, n), 0]
    alive = np.ones(n, dtype=bool)
    status = [_NOT_CONVEX] * n
    blocks: list[list[int]] = [[] for _ in range(n)]  # tips whose blocker is j
    ears: list[int] = []

    def decide(tips) -> None:
        convex = []
        for i in tips:
            a, b, c = pts[prev[i]], pts[i], pts[nxt[i]]
            if cross(b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]) <= eps:
                status[i] = _NOT_CONVEX
            else:
                convex.append(i)
        a, c = [prev[i] for i in convex], [nxt[i] for i in convex]
        for i, s in zip(convex, _first_blockers(xy, alive, a, convex, c, eps)):
            status[i] = s
            if s == _EAR:
                heapq.heappush(ears, i)
            else:
                blocks[s].append(i)

    if n > 3:
        decide(range(n))
    tris: list[tuple[int, int, int]] = []
    q = 0  # a live vertex
    for m in range(n, 3, -1):  # m vertices remain
        while ears and status[ears[0]] != _EAR:
            heapq.heappop(ears)
        if not ears:
            raise NonSimplePolygon("ear clipping failed; polygon may be non-simple")
        t = heapq.heappop(ears)
        p, q = prev[t], nxt[t]
        tris.append((p, t, q))
        status[t], alive[t] = _CLIPPED, False
        nxt[p], prev[q] = q, p
        if m > 4:  # another clip follows
            decide({p, q, *(i for i in blocks[t] if status[i] == t)})
    tris.append(tuple(sorted((prev[q], q, nxt[q]))))  # the last three, in index order
    return tris


def _edge_pairs(edges: dict) -> Iterator[tuple]:
    """Each unordered edge of ``edges`` (oriented edge (u, v) -> (triangle
    id, edge)) once, in first-seen order: (u, v), its (triangle id, edge),
    and that of the reverse edge (v, u), or None on a boundary."""
    seen = set()
    for (u, v), ref in edges.items():
        if (v, u) in seen:
            continue
        seen.add((u, v))
        yield (u, v), ref, edges.get((v, u))


def _double_from_triangulation(pts: tuple[Vec, ...], tris: list[tuple[int, int, int]]) -> FlatSurface:
    """Two mirror copies of a triangulated domain glued along the boundary.

    Edges appearing in exactly one triangle are boundary edges and get
    glued to their mirror image; edges shared by two triangles are glued
    within each copy.
    """
    T = len(tris)
    triangles: list[Triangle] = []
    top_edges: dict[tuple[int, int], tuple[int, int]] = {}
    bot_edges: dict[tuple[int, int], tuple[int, int]] = {}
    for t, (i, j, k) in enumerate(tris):
        triangles.append(Triangle(t, (pts[i], pts[j], pts[k])))
        mirror = tuple((pts[m][0], -pts[m][1]) for m in (i, k, j))
        triangles.append(Triangle(T + t, mirror))
        for e, pair in enumerate(((i, j), (j, k), (k, i))):
            top_edges[pair] = (t, e)
        for e, pair in enumerate(((i, k), (k, j), (j, i))):
            bot_edges[pair] = (T + t, e)

    gluings: list[Gluing] = []
    for (i, j), top, rev in _edge_pairs(top_edges):
        if rev is not None:
            gluings.append(Gluing(EdgeRef(*top), EdgeRef(*rev)))
            gluings.append(Gluing(EdgeRef(*bot_edges[(i, j)]), EdgeRef(*bot_edges[(j, i)])))
        else:
            gluings.append(Gluing(EdgeRef(*top), EdgeRef(*bot_edges[(j, i)])))
    return build_surface(triangles, gluings)


def double_of_polygon(spec: PolygonSpec) -> FlatSurface:
    """Glue two mirror copies of a simple polygon along their boundary.

    A corner with interior angle beta becomes a vertex of curvature
    2*pi - 2*beta; the result is a topological sphere.
    """
    spec.validate()
    return _double_from_triangulation(spec.vertices, _ear_clip(spec.vertices))


def flat_torus(u: Vec, v: Vec) -> FlatSurface:
    """Fundamental parallelogram of the lattice (u, v), opposite sides glued.

    In each coordinate the smaller of u and v moves by the rounding error
    of u + v, which makes the sum exact (Dekker's Fast2Sum).  Opposite
    sides are then equal float vectors, so every transition is an exact
    translation and the torus classifies as parallel however thin it is.
    """
    u = (float(u[0]), float(u[1]))
    v = (float(v[0]), float(v[1]))
    if cross(u[0], u[1], v[0], v[1]) < 0:
        u, v = v, u
    uv = (u[0] + v[0], u[1] + v[1])
    u, v = zip(*((s - b, b) if abs(a) < abs(b) else (a, s - a) for a, b, s in zip(u, v, uv)))
    o = (0.0, 0.0)
    t0 = Triangle(0, (o, u, uv))
    t1 = Triangle(1, (o, uv, v))
    # build_surface would reject a triangle of area at most METRIC_TOL.
    if min(t0.signed_area(), t1.signed_area()) <= METRIC_TOL:
        raise DegenerateLattice("spanning vectors are collinear")
    gl = [
        Gluing(EdgeRef(0, 0), EdgeRef(1, 1)),  # bottom to top
        Gluing(EdgeRef(0, 1), EdgeRef(1, 2)),  # right to left
        Gluing(EdgeRef(0, 2), EdgeRef(1, 0)),  # shared diagonal
    ]
    return build_surface([t0, t1], gl)


def isosceles_tetrahedron(sides: tuple[float, float, float]) -> FlatSurface:
    """Four congruent faces glued via the standard one-big-triangle net.

    ``sides`` are the face's edge lengths.  Raises NotAcute when they
    violate the strict triangle inequality (no face triangle exists).
    Non-acute faces still produce a valid surface with four curvature-pi
    vertices, though the 3-space realization is then degenerate.
    """
    a, b, c = (float(s) for s in sides)
    if min(a, b, c) <= 0 or a + b <= c or b + c <= a or c + a <= b:
        raise NotAcute(f"side lengths {sides} do not form a triangle")
    # Big triangle with doubled side lengths; the four faces are its medial
    # triangle plus the three corner triangles (net of the folded surface).
    p0 = (0.0, 0.0)
    p1 = (2.0 * a, 0.0)
    x = (4 * a * a + 4 * c * c - 4 * b * b) / (4.0 * a)
    y2 = 4 * c * c - x * x
    if y2 <= 0:
        raise NotAcute(f"side lengths {sides} give a degenerate big triangle")
    p2 = (x, math.sqrt(y2))
    m0 = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
    m1 = ((p2[0] + p0[0]) / 2, (p2[1] + p0[1]) / 2)
    m2 = ((p0[0] + p1[0]) / 2, (p0[1] + p1[1]) / 2)
    tris = [
        Triangle(0, (m0, m1, m2)),  # central face
        Triangle(1, (p0, m2, m1)),
        Triangle(2, (p1, m0, m2)),
        Triangle(3, (p2, m1, m0)),
    ]
    gl = [
        # central edges against the coincident corner-face edges
        Gluing(EdgeRef(0, 0), EdgeRef(3, 1)),  # m0->m1 vs m1->m0
        Gluing(EdgeRef(0, 1), EdgeRef(1, 1)),  # m1->m2 vs m2->m1
        Gluing(EdgeRef(0, 2), EdgeRef(2, 1)),  # m2->m0 vs m0->m2
        # folds along the big triangle's sides, rotation by pi about midpoints
        Gluing(EdgeRef(1, 0), EdgeRef(2, 2)),  # p0->m2 vs m2->p1
        Gluing(EdgeRef(2, 0), EdgeRef(3, 2)),  # p1->m0 vs m0->p2
        Gluing(EdgeRef(3, 0), EdgeRef(1, 2)),  # p2->m1 vs m1->p0
    ]
    return build_surface(tris, gl)


def _face_chart(quad3d: list[tuple[float, float, float]]) -> list[Vec]:
    """Isometric 2D chart of a planar 3D polygon, counterclockwise from outside."""
    q = np.asarray(quad3d, dtype=float)
    u = q[1] - q[0]
    u = u / np.linalg.norm(u)
    n = np.cross(u, q[2] - q[0])
    n = n / np.linalg.norm(n)
    w = np.cross(n, u)
    return [(float((p - q[0]) @ u), float((p - q[0]) @ w)) for p in q]


def cube_surface() -> FlatSurface:
    """Unit cube boundary, two triangles per face.

    Face k owns triangles (2k, 2k+1); all eight vertices have curvature
    pi/2, which makes the surface a convenient non-parallel sphere.
    """
    faces = [
        [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
        [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)],
        [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],
        [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)],
        [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)],
        [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],
    ]
    tris: list[Triangle] = []
    owner: dict[tuple, tuple[int, int]] = {}
    gluings: list[Gluing] = []
    for f, quad in enumerate(faces):
        chart = _face_chart([tuple(map(float, p)) for p in quad])
        t0, t1 = 2 * f, 2 * f + 1
        tris.append(Triangle(t0, (chart[0], chart[1], chart[2])))
        tris.append(Triangle(t1, (chart[0], chart[2], chart[3])))
        gluings.append(Gluing(EdgeRef(t0, 2), EdgeRef(t1, 0)))  # shared diagonal
        boundary = [
            (quad[0], quad[1], t0, 0),
            (quad[1], quad[2], t0, 1),
            (quad[2], quad[3], t1, 1),
            (quad[3], quad[0], t1, 2),
        ]
        for a3, b3, t, e in boundary:
            owner[(a3, b3)] = (t, e)
    for _edge, ref, rev in _edge_pairs(owner):
        gluings.append(Gluing(EdgeRef(*ref), EdgeRef(*rev)))
    return build_surface(tris, gluings)


def cube_face_partition() -> list[list[int]]:
    return [[2 * f, 2 * f + 1] for f in range(6)]


def ring_double() -> FlatSurface:
    """Double of a square ring whose hole is a 45-degree-rotated square.

    All eight vertices have curvature +pi (outer corners) or -pi (hole
    corners), yet a loop through both copies around the hole crosses two
    reflections meeting at 45 degrees, so its holonomy is a quarter turn
    and the surface is not parallel.
    """
    pts = (
        (-2.0, -2.0),
        (2.0, -2.0),
        (2.0, 2.0),
        (-2.0, 2.0),
        (0.0, -1.0),
        (1.0, 0.0),
        (0.0, 1.0),
        (-1.0, 0.0),
    )
    tris = [
        (0, 1, 4),
        (1, 5, 4),
        (1, 2, 5),
        (2, 6, 5),
        (2, 3, 6),
        (3, 7, 6),
        (3, 0, 7),
        (0, 4, 7),
    ]
    return _double_from_triangulation(pts, tris)


def square_identification_surface(
    pairings: list[tuple[tuple[float, float], tuple[float, float], bool]],
) -> FlatSurface:
    """Quotient of the unit square by identified boundary arcs.

    Arcs are (start, end) in perimeter coordinates s in [0, 4]: side 0 is
    the bottom (s in [0,1]), then right, top, left, counterclockwise.
    Each pairing is (arc_a, arc_b, aligned): ``aligned=True`` identifies
    the arcs with matching perimeter direction (an orientation-reversing
    gluing), ``aligned=False`` with opposite directions (the torus-style
    convention).  Arcs must not contain a corner in their interior and
    must partition the whole boundary, both up to METRIC_TOL.
    """

    def boundary_point(s: float) -> Vec:
        s = s % 4.0
        side = int(s)
        f = s - side
        if side == 0:
            return (f, 0.0)
        if side == 1:
            return (1.0, f)
        if side == 2:
            return (1.0 - f, 1.0)
        return (0.0, 1.0 - f)

    arcs: list[tuple[float, float]] = []
    for a, b, _flag in pairings:
        for s0, s1 in (a, b):
            if not (0.0 <= s0 < s1 <= 4.0):
                raise UncoveredBoundary(f"bad arc ({s0}, {s1})")
            for corner in range(5):
                if s0 + METRIC_TOL < corner < s1 - METRIC_TOL:
                    raise UncoveredBoundary(
                        f"arc ({s0}, {s1}) contains corner s={corner} in its interior"
                    )
            arcs.append((s0, s1))
    for (a, b, _flag) in pairings:
        if abs((a[1] - a[0]) - (b[1] - b[0])) > METRIC_TOL:
            raise ArcLengthMismatch(f"arcs {a} and {b} differ in length")
    arcs.sort()
    cover = 0.0
    for i, (s0, s1) in enumerate(arcs):
        if abs(s0 - cover) > METRIC_TOL:
            raise UncoveredBoundary(f"gap or overlap near s={cover}")
        cover = s1
    if abs(cover - 4.0) > METRIC_TOL:
        raise UncoveredBoundary("arcs do not cover the boundary")

    # Fan triangulation from the center; boundary nodes are the corners
    # plus all arc endpoints, so each arc is exactly one fan edge.
    node_pos = sorted({0.0, 1.0, 2.0, 3.0} | {s for arc in arcs for s in arc if s < 4.0})
    center = (0.5, 0.5)
    n = len(node_pos)
    tris = []
    for i in range(n):
        a = boundary_point(node_pos[i])
        b = boundary_point(node_pos[(i + 1) % n])
        tris.append(Triangle(i, (center, a, b)))
    gluings = [Gluing(EdgeRef(i, 2), EdgeRef((i + 1) % n, 0)) for i in range(n)]

    # Each arc start is a boundary node, so its fan edge is found by index.
    for a, b, aligned in pairings:
        ta = node_pos.index(a[0])
        tb = node_pos.index(b[0])
        gluings.append(Gluing(EdgeRef(ta, 1), EdgeRef(tb, 1), reversed=aligned))
    return build_surface(tris, gluings)


def klein_bottle() -> FlatSurface:
    """Unit square with one straight and one orientation-flipped side pair."""
    return square_identification_surface(
        [
            ((0.0, 1.0), (2.0, 3.0), False),
            ((1.0, 2.0), (3.0, 4.0), True),
        ]
    )


def example2_candidates() -> list[tuple[str, list[tuple[tuple[float, float], tuple[float, float], bool]]]]:
    """Candidate three-pair square identifications for the genus-3 quotient.

    The bottom and top sides are halved; halves pair across, the left and
    right sides pair with each other.  All matchings and orientation
    flags are enumerated; the figure's exact layout is unrecoverable, so
    callers search these for the stated invariants (non-orientable,
    Euler characteristic -1, one vertex of curvature -2*pi).
    """
    b1, b2 = (0.0, 0.5), (0.5, 1.0)
    t1, t2 = (2.0, 2.5), (2.5, 3.0)
    r, l = (1.0, 2.0), (3.0, 4.0)
    out = []
    for swap in (False, True):
        pair_b1 = t2 if swap else t1
        pair_b2 = t1 if swap else t2
        for f1 in (False, True):
            for f2 in (False, True):
                for f3 in (False, True):
                    name = f"swap{int(swap)}-f{int(f1)}{int(f2)}{int(f3)}"
                    out.append(
                        (
                            name,
                            [
                                (b1, pair_b1, f1),
                                (b2, pair_b2, f2),
                                (r, l, f3),
                            ],
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Cut-and-glue surgery


# Floor of cut_and_glue's corner margin and arc-position snap, which
# otherwise scale with the surface's tolerance.
CUT_FLOOR = 1e-12


def _fan(polygon: list, apex: int) -> list[tuple]:
    """Fan triangulation of a convex polygon from one vertex; the polygon
    and the triangles list vertex names.

    Consecutive collinear vertices are fine as long as the apex is off
    their line.  Triangles are listed from the corner after the apex, so
    consecutive ones share a spoke.
    """
    n = len(polygon)
    out = []
    for i in ((apex + 1 + r) % n for r in range(n)):
        j = (i + 1) % n
        if i == apex or j == apex:
            continue
        out.append((polygon[apex], polygon[i], polygon[j]))
    return out


def _split_triangle(
    corners: tuple[Vec, Vec, Vec], edge: int, point: Vec, first_id: int
) -> tuple[list[tuple[int, tuple[Vec, Vec, Vec]]], Gluing]:
    """Split a triangle at a point of one edge into triangles ``first_id``
    (edge start, point, opposite corner) and ``first_id + 1`` (point, edge
    end, opposite corner), and glue their shared spoke."""
    u0, u1, opp = corners[edge], corners[(edge + 1) % 3], corners[(edge + 2) % 3]
    subs = [(first_id, (u0, point, opp)), (first_id + 1, (point, u1, opp))]
    return subs, Gluing(EdgeRef(first_id, 1), EdgeRef(first_id + 1, 2))


def cut_and_glue(
    surface: FlatSurface,
    cut: tuple[int, Vec, Vec],
    patch: PolygonSpec,
    anchor: int = 0,
) -> FlatSurface:
    """Slit the surface along a chart segment and sew a polygon into the slit.

    ``cut`` is (triangle id, start, end) with both endpoints strictly
    inside that triangle's chart; the slit boundary has length twice the
    cut, which must equal the patch perimeter.  ``anchor`` names the patch
    vertex identified with the cut start.  The cut endpoints become cone
    points.  Patch triangles receive the highest triangle ids, and the
    result records them in ``patch_triangle_ids``.  The surface's own
    tolerance decides which cuts are too close to a corner.

    Cuts spanning several triangles are not supported; pick a chart in
    which the cut is a single segment.
    """
    tol = surface.tolerance
    host_id, p, q = cut[0], (float(cut[1][0]), float(cut[1][1])), (float(cut[2][0]), float(cut[2][1]))
    if not all(math.isfinite(x) for x in (*p, *q)):
        raise UnsupportedCut(f"cut endpoints {p} and {q} must be finite")
    try:
        host_id = int_arg("cut triangle id", host_id)
    except ValueError as err:
        raise UnsupportedCut(str(err)) from None
    if not surface.has_triangle(host_id):
        raise UnsupportedCut(f"no triangle with id {host_id}")
    host = surface.triangle(host_id)
    scale = max(host.edge_length(k) for k in range(3))
    margin = max(tol * (1 + scale), CUT_FLOOR)
    ell = math.hypot(q[0] - p[0], q[1] - p[1])
    if ell <= margin:
        raise UnsupportedCut("cut endpoints coincide")
    for pt in (p, q):
        if not host.contains(pt, tol=0.0):
            raise UnsupportedCut(f"cut endpoint {pt} outside triangle {host_id}")
    for k in range(3):
        if point_segment_distance(host.corners[k], p, q) <= margin:
            raise CutThroughVertex(f"cut passes through corner {k} of triangle {host_id}")

    patch.validate()
    if abs(patch.perimeter() - 2.0 * ell) > tol * (1.0 + 2.0 * ell):
        raise PerimeterMismatch(
            f"patch perimeter {patch.perimeter()!r} != twice cut length {2 * ell!r}"
        )
    try:
        anchor = int_arg("anchor", anchor, 0, len(patch.vertices) - 1)
    except ValueError as err:
        raise UnsupportedCut(str(err)) from None

    w = normalize((q[0] - p[0], q[1] - p[1]))

    # Supporting line through p, q extended to the triangle boundary.
    crossings = []  # (edge, t along line from p, point)
    for e in range(3):
        a = host.edge_start(e)
        v = host.edge_vector(e)
        elen = host.edge_length(e)
        ux, uy = v[0] / elen, v[1] / elen
        denom = ux * w[1] - uy * w[0]
        if abs(denom) < 1e-13:
            continue
        sx, sy = p[0] - a[0], p[1] - a[1]
        t = (sx * uy - sy * ux) / denom
        s = (sx * w[1] - sy * w[0]) / denom
        if -margin <= s <= elen + margin:
            if s <= margin or s >= elen - margin:
                raise CutThroughVertex("supporting line of the cut meets a corner")
            crossings.append((e, t, (p[0] + t * w[0], p[1] + t * w[1])))
    if len(crossings) != 2:
        raise UnsupportedCut("cut line does not cross the triangle boundary twice")
    crossings.sort(key=lambda c: c[1])
    (eP, tP, P0), (eQ, tQ, Q0) = crossings
    if tP >= -margin or tQ <= ell + margin:
        raise UnsupportedCut("cut endpoints must be strictly inside the triangle")

    side_of = []
    for k in range(3):
        c = host.corners[k]
        s = cross(w[0], w[1], c[0] - p[0], c[1] - p[1])
        if abs(s) <= margin:
            raise CutThroughVertex("a corner lies on the supporting line of the cut")
        side_of.append(s > 0)

    # Patch boundary walk: counterclockwise from the anchor corresponds to
    # ascending positions on the right bank (p to q) then on the left bank
    # (q back to p); this is forced by orientation compatibility.
    pverts = patch.vertices
    np_ = len(pverts)
    positions = [0.0]
    for j in range(np_):
        a = pverts[(anchor + j) % np_]
        b = pverts[(anchor + j + 1) % np_]
        positions.append(positions[-1] + math.hypot(b[0] - a[0], b[1] - a[1]))
    # positions[j] = arc position of patch vertex (anchor + j); last = perimeter
    snap = max(tol, CUT_FLOOR) * (1 + 2 * ell)
    positions = [ell if abs(s - ell) <= snap else s for s in positions]

    def bank_point(s: float) -> Vec:
        if s <= ell:
            return (p[0] + s * w[0], p[1] + s * w[1])
        r = s - ell
        return (q[0] - r * w[0], q[1] - r * w[1])

    # Every corner the surgery makes has a name, and every edge is found by
    # the names of its two ends.  Host side: corner k, the crossings "P0"
    # and "Q0", the cut ends "p" and "q", and the bank node ("bank", j)
    # facing patch vertex anchor + j.  Patch side: vertex i, and "mid"
    # where the bank turns at q inside a patch edge.  The walk pairs each
    # patch stop with its bank node, from p round to p again.
    xy = {"P0": P0, "Q0": Q0, "p": p, "q": q, **dict(enumerate(host.corners))}
    walk = []
    split_at = None  # the stop j whose patch edge holds "mid"
    for j, s in enumerate(positions[:-1]):
        bank = "p" if j == 0 else "q" if s == ell else ("bank", j)
        xy.setdefault(bank, bank_point(s))  # p and q keep their own points
        walk.append(((anchor + j) % np_, bank))
        if s < ell < positions[j + 1]:
            split_at = j
            walk.append(("mid", "q"))
    walk.append((anchor, "p"))
    banks = [bank for _v, bank in walk]
    iq = banks.index("q")
    right_bank, left_bank = banks[1:iq], banks[iq + 1 : -1]

    # Host replacement: counterclockwise, the corners after Q0 up to P0 lie
    # left of the cut and those after P0 up to Q0 right of it.
    left_corners = [(eQ + i) % 3 for i in range(1, (eP - eQ) % 3 + 1)]
    right_corners = [(eP + i) % 3 for i in range(1, (eQ - eP) % 3 + 1)]
    for k in left_corners:
        if not side_of[k]:
            raise UnsupportedCut("internal error: corner side bookkeeping")
    left_nodes = ["P0", "p", *left_bank[::-1], "q", "Q0"]
    left_poly = left_nodes + left_corners
    right_poly = ["P0", *right_corners, "Q0", "q", *right_bank[::-1], "p"]

    next_id = max(t.id for t in surface.triangles) + 1
    new_tris: dict[int, tuple[Vec, Vec, Vec]] = {}
    host_edges: dict[tuple, EdgeRef] = {}  # (start name, end name) -> edge
    new_gluings: list[Gluing] = []

    def add_fan(poly: list, apex: int):
        nonlocal next_id
        for n, names in enumerate(_fan(poly, apex)):
            new_tris[next_id] = tuple(xy[v] for v in names)
            for e in range(3):
                host_edges[names[e], names[(e + 1) % 3]] = EdgeRef(next_id, e)
            if n:  # consecutive fan triangles share a spoke
                new_gluings.append(Gluing(EdgeRef(next_id - 1, 2), EdgeRef(next_id, 0)))
            next_id += 1

    add_fan(left_poly, len(left_nodes))  # apex = first left corner
    add_fan(right_poly, 1)  # apex = first right corner

    # Chord pieces outside the slit are resealed left-to-right.
    new_gluings.append(Gluing(host_edges["P0", "p"], host_edges["p", "P0"]))
    new_gluings.append(Gluing(host_edges["q", "Q0"], host_edges["Q0", "q"]))

    # Pieces of the host's original edges, from edge start to edge end, for
    # regluing to the neighbors.
    piece_map: dict[EdgeRef, list[EdgeRef]] = {}
    crossing = {eP: ["P0"], eQ: ["Q0"]}
    for e in range(3):
        chain = [e, *crossing.get(e, []), (e + 1) % 3]
        piece_map[EdgeRef(host_id, e)] = [host_edges[ab] for ab in zip(chain, chain[1:])]

    # Split the neighbors across eP and eQ at the crossing images.
    split_ids = {host_id}
    for e_host, X in ((eP, P0), (eQ, Q0)):
        ref, iso = surface.edge_transition(host_id, e_host)
        if ref.tri == host_id or ref.tri in split_ids:
            raise UnsupportedCut(
                "cut line exits through edges glued to the host or to one neighbor twice"
            )
        split_ids.add(ref.tri)
        ntri = surface.triangle(ref.tri)
        subs, spoke = _split_triangle(ntri.corners, ref.edge, iso.apply(X), next_id)
        new_tris.update(subs)
        new_gluings.append(spoke)
        piece_map[ref] = [EdgeRef(next_id, 0), EdgeRef(next_id + 1, 0)]
        piece_map[EdgeRef(ref.tri, (ref.edge + 1) % 3)] = [EdgeRef(next_id + 1, 1)]
        piece_map[EdgeRef(ref.tri, (ref.edge + 2) % 3)] = [EdgeRef(next_id, 2)]
        next_id += 2

    # Patch triangulation in its own chart, split where the walk passes q.
    first_patch_id = next_id
    clipped = _ear_clip(pverts)
    patch_edges: dict[tuple, EdgeRef] = {}
    for (i, j, k) in clipped:
        new_tris[next_id] = (pverts[i], pverts[j], pverts[k])
        for e, pair in enumerate(((i, j), (j, k), (k, i))):
            patch_edges[pair] = EdgeRef(next_id, e)
        next_id += 1
    split_spoke: list[Gluing] = []  # glued after the internal edges
    if split_at is not None:
        # The sub-triangles take over the split triangle's two intact edges
        # in place, so the internal gluings keep their order.
        u, v = walk[split_at][0], walk[split_at + 2][0]
        a, b = pverts[u], pverts[v]
        f = (ell - positions[split_at]) / (positions[split_at + 1] - positions[split_at])
        mid = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
        owner = patch_edges.pop((u, v))
        opp = clipped[owner.tri - first_patch_id][(owner.edge + 2) % 3]
        subs, spoke = _split_triangle(new_tris.pop(owner.tri), owner.edge, mid, next_id)
        new_tris.update(subs)
        patch_edges[v, opp] = EdgeRef(next_id + 1, 1)
        patch_edges[opp, u] = EdgeRef(next_id, 2)
        patch_edges[u, "mid"] = EdgeRef(next_id, 0)
        patch_edges["mid", v] = EdgeRef(next_id + 1, 0)
        split_spoke.append(spoke)
        next_id += 2
    for _edge, ref, rev in _edge_pairs(patch_edges):
        if rev is not None:
            new_gluings.append(Gluing(ref, rev))
    new_gluings += split_spoke

    # Glue patch boundary arcs onto the slit banks.
    for (pa, ba), (pb, bb) in zip(walk, walk[1:]):
        new_gluings.append(Gluing(patch_edges[pa, pb], host_edges[bb, ba]))

    # Reattach the original gluings over the pieces.
    final_tris: list[Triangle] = [
        t for t in surface.triangles if t.id not in split_ids
    ]
    final_tris += [Triangle(tid, c) for tid, c in new_tris.items()]
    final_gluings: list[Gluing] = []
    # A reversed gluing maps edge start to edge start, so its pieces pair in
    # order; any other gluing maps edge start to edge end.
    for g in surface.gluings:
        pieces_a = piece_map.get(g.a, [g.a])
        pieces_b = piece_map.get(g.b, [g.b])
        if len(pieces_a) != len(pieces_b):
            raise UnsupportedCut("internal error: a gluing's two sides split into different pieces")
        for ref_a, ref_b in zip(pieces_a, pieces_b if g.reversed else pieces_b[::-1]):
            final_gluings.append(Gluing(ref_a, ref_b, g.reversed))

    final_gluings.extend(new_gluings)
    out = build_surface(final_tris, final_gluings, tol)
    out.patch_triangle_ids = tuple(sorted(t for t in new_tris if t >= first_patch_id))
    return out


# ---------------------------------------------------------------------------
# Catalog


SQUARE = PolygonSpec([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
L_SHAPE = PolygonSpec([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)])

EXAMPLE1_PARAM = math.sqrt(2.0) / 2.0


def example1_surface():
    """Square double cut along {a} x [1/3, 2/3] with a side-1/6 square patch,
    for a = EXAMPLE1_PARAM.

    Returns (surface, info) where info holds the patch triangle ids and a
    start tangent on the upper face at (a, 0) for the closed-geodesic
    experiments.  As a lies in (2/3, 1), the cut stays inside one chart
    triangle.
    """
    a = EXAMPLE1_PARAM
    base = double_of_polygon(SQUARE)
    host = next(
        t.id
        for t in base.triangles
        if t.contains((a, 1.0 / 3.0), tol=-1e-9) and t.contains((a, 2.0 / 3.0), tol=-1e-9)
    )
    side = 1.0 / 6.0
    patch = PolygonSpec([(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)])
    surf = cut_and_glue(base, (host, (a, 1.0 / 3.0), (a, 2.0 / 3.0)), patch, anchor=0)
    start_tri = find_triangle_with_germ(surf, (a, 0.0), (0.1, 1.0))
    info = {
        "patch_ids": surf.patch_triangle_ids,
        "start_tri": start_tri,
        "start_xy": (a, 0.0),
        "cut_length": 1.0 / 3.0,
    }
    return surf, info


def find_triangle_with_germ(surface: FlatSurface, xy: Vec, direction: Vec) -> int:
    """Unique triangle whose chart contains xy plus a nudge along direction."""
    d = normalize(direction)
    hits = []
    for t in surface.triangles:
        tol = 1e-9 * (1 + max(t.edge_length(k) for k in range(3)))
        if not t.contains(xy, tol):
            continue
        nudge = (xy[0] + 1e-7 * d[0], xy[1] + 1e-7 * d[1])
        if t.contains(nudge, tol):
            hits.append(t.id)
    if len(hits) != 1:
        raise UnsupportedCut(f"germ at {xy} lies in {len(hits)} charts: {hits}")
    return hits[0]


def catalog() -> list[tuple[str, FlatSurface]]:
    """The fixed experiment catalog, ten surfaces, deterministic order."""
    ex1, _info = example1_surface()
    return [
        ("regular-tetrahedron", isosceles_tetrahedron((1.0, 1.0, 1.0))),
        ("isosceles-tetrahedron", isosceles_tetrahedron((1.0, 1.0, 1.2))),
        ("unit-torus", flat_torus((1.0, 0.0), (0.0, 1.0))),
        ("sheared-torus", flat_torus((1.0, 0.0), (0.5, 1.0))),
        ("square-double", double_of_polygon(SQUARE)),
        ("l-double", double_of_polygon(L_SHAPE)),
        ("cube", cube_surface()),
        ("example1", ex1),
        ("klein-bottle", klein_bottle()),
        ("ring-double", ring_double()),
    ]


CATALOG_PARALLEL = {
    "regular-tetrahedron": True,
    "isosceles-tetrahedron": True,
    "unit-torus": True,
    "sheared-torus": True,
    "square-double": True,
    "l-double": True,
    "cube": False,
    "example1": False,
    "klein-bottle": False,
    "ring-double": False,
}


# ---------------------------------------------------------------------------
# Random polygon families for the statistical audits


def random_star_polygon(rng: np.random.Generator, n_min: int = 4, n_max: int = 9) -> PolygonSpec:
    """Random simple polygon, star-shaped around the origin.

    Angular gaps are normalized increments, so every gap stays well below
    pi and the origin is strictly interior; that makes the polygon simple
    by construction.
    """
    n = int(rng.integers(n_min, n_max + 1))
    gaps = rng.uniform(0.2, 1.0, n)
    angles = np.cumsum(gaps) * (2.0 * math.pi / float(np.sum(gaps)))
    radii = rng.uniform(0.5, 2.0, n)
    pts = [(float(r * math.cos(t)), float(r * math.sin(t))) for r, t in zip(radii, angles)]
    return PolygonSpec(pts)


def random_rectilinear_polygon(rng: np.random.Generator) -> PolygonSpec:
    """Random axis-aligned histogram polygon, 2 to 6 columns; all corners are right angles."""
    k = int(rng.integers(2, 7))
    heights = [int(rng.integers(1, 6))]
    while len(heights) < k:
        h = int(rng.integers(1, 6))
        if h != heights[-1]:
            heights.append(h)
    pts: list[Vec] = [(0.0, 0.0), (float(k), 0.0)]
    for i in range(k - 1, -1, -1):
        pts.append((float(i + 1), float(heights[i])))
        pts.append((float(i), float(heights[i])))
    # drop collinear duplicates along the skyline
    cleaned: list[Vec] = []
    for pt in pts:
        if len(cleaned) >= 2:
            a, b = cleaned[-2], cleaned[-1]
            if (
                cross(b[0] - a[0], b[1] - a[1], pt[0] - b[0], pt[1] - b[1]) == 0.0
            ):
                cleaned.pop()
        cleaned.append(pt)
    return PolygonSpec(cleaned)
