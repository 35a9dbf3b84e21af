"""Compact flat surfaces built from glued Euclidean triangles.

Each triangle lives in its own planar chart; all global structure flows
through per-gluing transition isometries.  A built :class:`FlatSurface`
is immutable and safe to share across threads.

Gluing convention: with both triangles counterclockwise in their charts,
``reversed=False`` identifies edge ``a`` with edge ``b`` so the two
triangles induce opposite orientations on the common edge (start of a
maps to end of b); ``reversed=True`` composes with a reflection and maps
start to start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DegenerateTriangle,
    Disconnected,
    LengthMismatch,
    UnmatchedEdge,
)
from .geometry import (
    TWO_PI,
    PlaneIsometry,
    Vec,
    cross,
    metric_tolerance,
    norm,
)


@dataclass(frozen=True)
class Triangle:
    """A triangle in its own chart, corners listed counterclockwise."""

    id: int
    corners: tuple[Vec, Vec, Vec]

    def corner(self, k: int) -> Vec:
        return self.corners[k % 3]

    def edge_start(self, k: int) -> Vec:
        return self.corners[k % 3]

    def edge_end(self, k: int) -> Vec:
        return self.corners[(k + 1) % 3]

    def edge_vector(self, k: int) -> Vec:
        a = self.edge_start(k)
        b = self.edge_end(k)
        return (b[0] - a[0], b[1] - a[1])

    def edge_length(self, k: int) -> float:
        v = self.edge_vector(k)
        return norm(v[0], v[1])

    def signed_area(self) -> float:
        a, b, c = self.corners
        return 0.5 * cross(b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1])

    def angle_at(self, k: int) -> float:
        p = self.corners[k % 3]
        u = self.corners[(k + 1) % 3]
        w = self.corners[(k + 2) % 3]
        ux, uy = u[0] - p[0], u[1] - p[1]
        wx, wy = w[0] - p[0], w[1] - p[1]
        return math.atan2(abs(cross(ux, uy, wx, wy)), ux * wx + uy * wy)

    def contains(self, p: Vec, tol: float = 0.0) -> bool:
        """Point-in-triangle test, inclusive of the boundary up to tol."""
        for k in range(3):
            a = self.corners[k]
            b = self.corners[(k + 1) % 3]
            ex, ey = b[0] - a[0], b[1] - a[1]
            side = cross(ex, ey, p[0] - a[0], p[1] - a[1])
            if side < -tol * norm(ex, ey):
                return False
        return True


class EdgeRef(NamedTuple):
    tri: int
    edge: int


@dataclass(frozen=True)
class Gluing:
    a: EdgeRef
    b: EdgeRef
    reversed: bool = False


@dataclass(frozen=True)
class VertexClass:
    """One identified vertex: a cycle of triangle corners around it."""

    index: int
    corners: tuple[tuple[int, int], ...]  # (triangle id, corner index), in cycle order
    cone_angle: float

    @property
    def curvature(self) -> float:
        return TWO_PI - self.cone_angle

    def is_cone(self, tol: float = 1e-9) -> bool:
        """False for removable marked points whose total angle is 2*pi."""
        return abs(self.curvature) > tol


# A germ is one end of one edge: (triangle id, edge index, end in {0,1}).
# End 0 sits at the edge's start corner, end 1 at its end corner.


def _germ_corner(germ: tuple[int, int, int]) -> tuple[int, int]:
    t, e, end = germ
    return (t, (e + end) % 3)


def _other_germ(germ: tuple[int, int, int]) -> tuple[int, int, int]:
    t, e, end = germ
    k = (e + end) % 3
    if end == 0:
        return (t, (k - 1) % 3, 1)
    return (t, k, 0)


class FlatSurface:
    """A validated closed flat surface. Construct via :func:`build_surface`."""

    def __init__(
        self,
        triangles: tuple[Triangle, ...],
        gluings: tuple[Gluing, ...],
        transitions: tuple[PlaneIsometry, ...],
        vertex_classes: tuple[VertexClass, ...],
        corner_class: dict[tuple[int, int], int],
        edge_gluing: dict[tuple[int, int], tuple[int, int]],
        euler_characteristic: int,
        orientable: bool,
        orientation_witness: list[int] | None,
        tolerance: float,
    ):
        self.triangles = triangles
        self.gluings = gluings
        self.transitions = transitions
        self.vertex_classes = vertex_classes
        self.corner_class = corner_class
        self.edge_gluing = edge_gluing
        self.euler_characteristic = euler_characteristic
        self.orientable = orientable
        self.orientation_witness = orientation_witness
        self.tolerance = tolerance
        self.patch_triangle_ids: tuple[int, ...] = ()  # set by cut-and-glue builders
        self._by_id = {t.id: t for t in triangles}
        self._trace_tables_cache = None

    def triangle(self, tri_id: int) -> Triangle:
        return self._by_id[tri_id]

    def has_triangle(self, tri_id: int) -> bool:
        return tri_id in self._by_id

    def edge_transition(self, tri_id: int, edge: int) -> tuple[EdgeRef, PlaneIsometry]:
        """Target edge and chart-to-chart isometry for crossing an edge."""
        gi, side = self.edge_gluing[(tri_id, edge)]
        g = self.gluings[gi]
        if side == 0:
            return g.b, self.transitions[gi]
        return g.a, self.transitions[gi].inverse()

    def vertex_of(self, tri_id: int, corner: int) -> VertexClass:
        return self.vertex_classes[self.corner_class[(tri_id, corner)]]

    def area(self) -> float:
        return sum(t.signed_area() for t in self.triangles)

    def cone_points(self) -> list[VertexClass]:
        return [v for v in self.vertex_classes if v.is_cone(self.tolerance)]

    def _trace_tables(self):
        # Built lazily; see tracer.py for the layout.
        if self._trace_tables_cache is None:
            from .tracer import _TraceTables

            self._trace_tables_cache = _TraceTables(self)
        return self._trace_tables_cache


def _validate_triangles(triangles, tol: float) -> None:
    seen = set()
    for t in triangles:
        if t.id in seen:
            raise DegenerateTriangle(f"duplicate triangle id {t.id}")
        seen.add(t.id)
        if not all(math.isfinite(x) for c in t.corners for x in c):
            raise DegenerateTriangle(f"triangle {t.id} has a non-finite corner")
        area = t.signed_area()
        if area <= tol:
            raise DegenerateTriangle(
                f"triangle {t.id} has signed area {area:.3e}; corners must be "
                "counterclockwise and non-collinear"
            )


def _edge_gluing_map(triangles, gluings) -> dict[tuple[int, int], tuple[int, int]]:
    ids = {t.id for t in triangles}
    edge_gluing: dict[tuple[int, int], tuple[int, int]] = {}
    for gi, g in enumerate(gluings):
        for side, ref in enumerate((g.a, g.b)):
            if ref.tri not in ids or not 0 <= ref.edge < 3:
                raise UnmatchedEdge(f"gluing {gi} references unknown edge {ref}")
            key = (ref.tri, ref.edge)
            if key in edge_gluing:
                raise UnmatchedEdge(f"edge {key} glued more than once")
            edge_gluing[key] = (gi, side)
    for t in triangles:
        for e in range(3):
            if (t.id, e) not in edge_gluing:
                raise UnmatchedEdge(f"edge ({t.id}, {e}) is not glued; surface must be closed")
    return edge_gluing


def _transition_for(surface_tris: dict[int, Triangle], g: Gluing) -> PlaneIsometry:
    ta = surface_tris[g.a.tri]
    tb = surface_tris[g.b.tri]
    a0, a1 = ta.edge_start(g.a.edge), ta.edge_end(g.a.edge)
    b0, b1 = tb.edge_start(g.b.edge), tb.edge_end(g.b.edge)
    if g.reversed:
        return PlaneIsometry.from_point_pairs(a0, a1, b0, b1, reflect=True)
    return PlaneIsometry.from_point_pairs(a0, a1, b1, b0, reflect=False)


def _walk_vertex_classes(triangles, gluings, edge_gluing):
    classes: list[VertexClass] = []
    corner_class: dict[tuple[int, int], int] = {}
    by_id = {t.id: t for t in triangles}
    visited: set[tuple[int, int, int]] = set()

    def cross_germ(germ):
        t, e, end = germ
        gi, side = edge_gluing[(t, e)]
        g = gluings[gi]
        other = g.b if side == 0 else g.a
        new_end = end if g.reversed else 1 - end
        return (other.tri, other.edge, new_end)

    for t in triangles:
        for k in range(3):
            g0 = (t.id, k, 0)
            if g0 in visited:
                continue
            cycle: list[tuple[int, int]] = []
            angle = 0.0
            g = g0
            while True:
                visited.add(g)
                tri_id, corner = _germ_corner(g)
                cycle.append((tri_id, corner))
                angle += by_id[tri_id].angle_at(corner)
                h = cross_germ(g)
                visited.add(h)
                g = _other_germ(h)
                if g == g0:
                    break
            idx = len(classes)
            classes.append(VertexClass(idx, tuple(cycle), angle))
            for c in cycle:
                corner_class[c] = idx

    total_corners = sum(len(v.corners) for v in classes)
    if total_corners != 3 * len(triangles):
        raise UnmatchedEdge("corner cycles do not partition the corners")
    return tuple(classes), corner_class


def _orient_and_connect(triangles, gluings):
    """BFS the dual graph: connectivity, orientability, witness loop."""
    adj: dict[int, list[tuple[int, int]]] = {t.id: [] for t in triangles}
    for gi, g in enumerate(gluings):
        adj[g.a.tri].append((gi, g.b.tri))
        adj[g.b.tri].append((gi, g.a.tri))

    root = min(adj)
    sign = {root: 1}
    parent_edge: dict[int, int] = {}
    order = [root]
    queue = [root]
    witness: list[int] | None = None
    while queue:
        cur = queue.pop(0)
        for gi, other in sorted(adj[cur]):
            flip = -1 if gluings[gi].reversed else 1
            if other not in sign:
                sign[other] = sign[cur] * flip
                parent_edge[other] = gi
                order.append(other)
                queue.append(other)
            elif witness is None and sign[other] != sign[cur] * flip:
                # Orientation-reversing dual loop: tree paths to root plus gi.
                def path_up(t):
                    out = []
                    while t != root:
                        gi2 = parent_edge[t]
                        out.append(gi2)
                        g2 = gluings[gi2]
                        t = g2.b.tri if g2.a.tri == t else g2.a.tri
                    return out

                witness = list(reversed(path_up(cur))) + [gi] + path_up(other)
    if len(sign) != len(adj):
        missing = sorted(set(adj) - set(sign))
        raise Disconnected(f"triangles {missing} are not connected to triangle {root}")
    return witness is None, witness


def build_surface(triangles, gluings, tol: float | None = None) -> FlatSurface:
    """Validate triangles and gluings and derive all global structure.

    Raises DegenerateTriangle, UnmatchedEdge, LengthMismatch or
    Disconnected on invalid input.  The result carries transition
    isometries, vertex classes, Euler characteristic and orientability.
    """
    tol = metric_tolerance() if tol is None else tol
    if not triangles or not gluings:
        raise UnmatchedEdge("need at least one triangle and one gluing")
    triangles = tuple(
        t if isinstance(t, Triangle) else Triangle(t[0], tuple(tuple(map(float, c)) for c in t[1]))
        for t in triangles
    )
    gluings = tuple(
        g if isinstance(g, Gluing) else Gluing(EdgeRef(*g[0]), EdgeRef(*g[1]), bool(g[2]))
        for g in gluings
    )
    _validate_triangles(triangles, tol)
    by_id = {t.id: t for t in triangles}

    edge_gluing = _edge_gluing_map(triangles, gluings)
    for gi, g in enumerate(gluings):
        if g.a == g.b:
            raise UnmatchedEdge(f"gluing {gi} identifies an edge with itself")
        la = by_id[g.a.tri].edge_length(g.a.edge)
        lb = by_id[g.b.tri].edge_length(g.b.edge)
        if abs(la - lb) > tol:
            raise LengthMismatch(
                f"gluing {gi}: edge lengths {la!r} and {lb!r} differ beyond tolerance"
            )

    transitions = tuple(_transition_for(by_id, g) for g in gluings)
    # Transition audit: each isometry must map edge a endpoint-to-endpoint onto b.
    for gi, g in enumerate(gluings):
        ta, tb = by_id[g.a.tri], by_id[g.b.tri]
        a0, a1 = ta.edge_start(g.a.edge), ta.edge_end(g.a.edge)
        if g.reversed:
            targets = (tb.edge_start(g.b.edge), tb.edge_end(g.b.edge))
        else:
            targets = (tb.edge_end(g.b.edge), tb.edge_start(g.b.edge))
        for src, dst in zip((a0, a1), targets):
            img = transitions[gi].apply(src)
            if norm(img[0] - dst[0], img[1] - dst[1]) > 1e-9 + tol:
                raise LengthMismatch(f"gluing {gi}: transition fails endpoint audit")

    orientable, witness = _orient_and_connect(triangles, gluings)
    vertex_classes, corner_class = _walk_vertex_classes(triangles, gluings, edge_gluing)

    euler = len(vertex_classes) - len(gluings) + len(triangles)
    residual = abs(sum(v.curvature for v in vertex_classes) - TWO_PI * euler)
    if residual > max(tol, 1e-9):
        raise LengthMismatch(f"curvature audit failed: residual {residual:.3e}")

    return FlatSurface(
        triangles,
        gluings,
        transitions,
        vertex_classes,
        corner_class,
        edge_gluing,
        euler,
        orientable,
        witness,
        tol,
    )


def curvature(surface: FlatSurface, v: VertexClass) -> float:
    """Singular curvature of a vertex: 2*pi minus its cone angle."""
    if not (0 <= v.index < len(surface.vertex_classes)) or surface.vertex_classes[v.index] is not v:
        raise ValueError("vertex class does not belong to this surface")
    return v.curvature


def orientability(surface: FlatSurface) -> tuple[bool, list[int] | None]:
    """Orientability flag plus, when False, a reversing dual loop (gluing ids)."""
    return surface.orientable, surface.orientation_witness


def gauss_bonnet_check(surface: FlatSurface) -> float:
    """|sum of curvatures - 2*pi*chi|; tiny on every valid surface."""
    total = sum(v.curvature for v in surface.vertex_classes)
    return abs(total - TWO_PI * surface.euler_characteristic)


def diameter_estimate(surface: FlatSurface) -> float:
    """Upper-bound diameter estimate from the edge skeleton.

    Shortest paths are measured through triangle corners and centroids
    only, so the value overestimates the true intrinsic diameter but
    scales with it; used to pick experiment lengths.
    """
    import heapq

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
