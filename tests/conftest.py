import heapq
import math

import numpy as np
import pytest

from flatgeo.builders import catalog
from flatgeo.errors import NonSimplePolygon
from flatgeo.geometry import cross, norm, polygon_area, segments_intersect
from flatgeo.surface import EdgeRef, Gluing, Triangle, build_surface
from flatgeo.tracer import SurfacePoint


@pytest.fixture(scope="session")
def catalog_surfaces():
    return dict(catalog())


def incenter_point(surface, tri_id=None) -> SurfacePoint:
    """Incenter of a triangle chart, a safe interior start point."""
    tri_id = surface.triangles[0].id if tri_id is None else tri_id
    t = surface.triangle(tri_id)
    a, b, c = t.corners
    la = math.dist(b, c)
    lb = math.dist(c, a)
    lc = math.dist(a, b)
    s = la + lb + lc
    return SurfacePoint(
        tri_id,
        ((la * a[0] + lb * b[0] + lc * c[0]) / s, (la * a[1] + lb * b[1] + lc * c[1]) / s),
    )


def edge_midpoint_tangent(surface, tri_id, edge, angle_to_edge):
    """Tangent at an edge midpoint, rotated from the edge direction."""
    t = surface.triangle(tri_id)
    a, b = t.edge_start(edge), t.edge_end(edge)
    mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    ex, ey = b[0] - a[0], b[1] - a[1]
    ln = math.hypot(ex, ey)
    ex, ey = ex / ln, ey / ln
    c, s = math.cos(angle_to_edge), math.sin(angle_to_edge)
    return mid, (ex * c - ey * s, ex * s + ey * c)


def thin_torus():
    """Two-triangle torus whose short edges sit 4 from the origin: its
    charts hold the short edges' directions only to about 6e-9 rad, and its
    generators come out 1.4e-9 from the identity."""
    u, v = (1e-7, 1e-7), (0.0, 4.0)
    uv = (u[0] + v[0], u[1] + v[1])
    o = (0.0, 0.0)
    return build_surface(
        [Triangle(0, (o, u, uv)), Triangle(1, (o, uv, v))],
        [
            Gluing(EdgeRef(0, 0), EdgeRef(1, 1)),
            Gluing(EdgeRef(0, 1), EdgeRef(1, 2)),
            Gluing(EdgeRef(0, 2), EdgeRef(1, 0)),
        ],
    )


def dense_near_chords(Q, P, D, L, epsilon):
    """Which points Q lie within epsilon of chords (P, D, L): every point
    against every chord, in the expressions density_estimate uses."""
    W = Q[:, None, :] - P[None, :, :]
    proj = W[:, :, 0] * D[None, :, 0] + W[:, :, 1] * D[None, :, 1]
    proj = np.clip(proj, 0.0, L[None, :])
    dx = W[:, :, 0] - proj * D[None, :, 0]
    dy = W[:, :, 1] - proj * D[None, :, 1]
    return np.sqrt(np.min(dx * dx + dy * dy, axis=1)) < epsilon


def all_sources_diameter(surface) -> float:
    """Reference for ``diameter_estimate``: the same skeleton graph, with
    Dijkstra run from every node."""
    nodes: dict[object, int] = {}
    for i, _v in enumerate(surface.vertex_classes):
        nodes[("v", i)] = len(nodes)
    for t in surface.triangles:
        nodes[("c", t.id)] = len(nodes)

    edges: dict[int, list[tuple[int, float]]] = {i: [] for i in nodes.values()}

    def connect(u, w, d):
        edges[nodes[u]].append((nodes[w], d))
        edges[nodes[w]].append((nodes[u], d))

    for t in surface.triangles:
        cx = sum(c[0] for c in t.corners) / 3.0
        cy = sum(c[1] for c in t.corners) / 3.0
        for k in range(3):
            vk = surface.corner_class[(t.id, k)]
            connect(("c", t.id), ("v", vk), norm(t.corners[k][0] - cx, t.corners[k][1] - cy))
            vk1 = surface.corner_class[(t.id, (k + 1) % 3)]
            connect(("v", vk), ("v", vk1), t.edge_length(k))

    best = 0.0
    n = len(nodes)
    for src in range(n):
        dist = [math.inf] * n
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for w, dw in edges[u]:
                nd = d + dw
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        best = max(best, max(x for x in dist if x < math.inf))
    return best


def pairwise_validate(pts) -> None:
    """Reference for ``PolygonSpec.validate`` on finite input: every pair
    of non-adjacent boundary edges goes to ``segments_intersect``."""
    n = len(pts)
    if n < 3:
        raise NonSimplePolygon("polygon needs at least 3 vertices")
    if polygon_area(list(pts)) <= 0:
        raise NonSimplePolygon("polygon must be counterclockwise with positive area")
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if norm(b[0] - a[0], b[1] - a[1]) == 0.0:
            raise NonSimplePolygon("zero-length polygon edge")
    for i in range(n):
        a1, b1 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            a2, b2 = pts[j], pts[(j + 1) % n]
            if segments_intersect(a1, b1, a2, b2):
                raise NonSimplePolygon(f"boundary edges {i} and {j} intersect")


def all_vertices_ear_clip(pts) -> list[tuple[int, int, int]]:
    """Reference for ``builders._ear_clip``: after every clip, test the
    remaining vertices in index order, each against every other remaining
    vertex, and clip the first ear."""
    n = len(pts)
    scale = max(max(abs(x), abs(y)) for x, y in pts) or 1.0
    eps = 1e-12 * scale * scale

    def in_closed_triangle(p, a, b, c) -> bool:
        for u, v in ((a, b), (b, c), (c, a)):
            if cross(v[0] - u[0], v[1] - u[1], p[0] - u[0], p[1] - u[1]) < -eps:
                return False
        return True

    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []
    while len(idx) > 3:
        clipped = False
        m = len(idx)
        for pos in range(m):
            ip, i, inx = idx[pos - 1], idx[pos], idx[(pos + 1) % m]
            a, b, c = pts[ip], pts[i], pts[inx]
            if cross(b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]) <= eps:
                continue
            ok = True
            for j in idx:
                if j in (ip, i, inx):
                    continue
                if in_closed_triangle(pts[j], a, b, c):
                    ok = False
                    break
            if ok:
                tris.append((ip, i, inx))
                del idx[pos]
                clipped = True
                break
        if not clipped:
            raise NonSimplePolygon("ear clipping failed; polygon may be non-simple")
    tris.append((idx[0], idx[1], idx[2]))
    return tris
