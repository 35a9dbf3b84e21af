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

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateTriangle,
    Disconnected,
    LengthMismatch,
    MalformedSurface,
    UnmatchedEdge,
)
from .geometry import (
    METRIC_TOL,
    TWO_PI,
    PlaneIsometry,
    Vec,
    cross,
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
    is_cone: bool  # |curvature| above the surface tolerance; False for flat marked points

    @property
    def curvature(self) -> float:
        return TWO_PI - self.cone_angle


class FlatSurface:
    """A validated closed flat surface. Construct via :func:`build_surface`.

    Construction walks the gluings twice.  A breadth-first search of the
    dual graph (root = lowest triangle id, neighbours in gluing order)
    gives connectivity, the dual spanning tree (``tree_gluing``: the
    gluing to each non-root triangle's parent) and each chart's isometry
    into the root chart (``chart_to_root``).  A triangle's orientation
    sign is the ``reflect`` bit of its chart-to-root isometry, because
    every reversed gluing's transition is a reflection.  The corner fans
    (:meth:`corner_fan`) then give the vertex classes.
    """

    def __init__(
        self,
        triangles: tuple[Triangle, ...],
        gluings: tuple[Gluing, ...],
        transitions: tuple[PlaneIsometry, ...],
        edge_gluing: dict[tuple[int, int], tuple[int, int]],
        tolerance: float,
    ):
        self.triangles = triangles
        self.gluings = gluings
        self.transitions = transitions
        self.edge_gluing = edge_gluing
        self.tolerance = tolerance
        self.patch_triangle_ids: tuple[int, ...] = ()  # set by cut-and-glue builders
        self._by_id = {t.id: t for t in triangles}
        self._grow_dual_tree()
        self._walk_vertex_classes()
        self.euler_characteristic = len(self.vertex_classes) - len(gluings) + len(triangles)

    def _grow_dual_tree(self) -> None:
        adj: dict[int, list[tuple[int, int]]] = {t.id: [] for t in self.triangles}
        for gi, g in enumerate(self.gluings):
            adj[g.a.tri].append((gi, g.b.tri))
            adj[g.b.tri].append((gi, g.a.tri))
        root = min(adj)
        to_root: dict[int, PlaneIsometry] = {root: PlaneIsometry.identity()}
        self.tree_gluing: dict[int, int] = {}
        self.orientation_witness: list[int] | None = None
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for gi, other in sorted(adj[cur]):
                g = self.gluings[gi]
                if other not in to_root:
                    step = self.transitions[gi] if g.a.tri == cur else self.transitions[gi].inverse()
                    # step maps chart(cur) -> chart(other); invert to go back.
                    to_root[other] = to_root[cur].compose(step.inverse())
                    self.tree_gluing[other] = gi
                    queue.append(other)
                elif self.orientation_witness is None and (
                    to_root[other].reflect != (to_root[cur].reflect != g.reversed)
                ):
                    # Orientation-reversing dual loop: tree paths to root plus gi.
                    self.orientation_witness = (
                        self.tree_path(cur) + [gi] + self.tree_path(other)[::-1]
                    )
        if len(to_root) != len(adj):
            missing = sorted(set(adj) - set(to_root))
            raise Disconnected(f"triangles {missing} are not connected to triangle {root}")
        self.chart_to_root = to_root
        self.orientable = self.orientation_witness is None

    def tree_path(self, tri_id: int) -> list[int]:
        """Gluing ids along the dual spanning tree from the root triangle to ``tri_id``."""
        path = []
        while tri_id in self.tree_gluing:
            gi = self.tree_gluing[tri_id]
            path.append(gi)
            g = self.gluings[gi]
            tri_id = g.b.tri if g.a.tri == tri_id else g.a.tri
        return path[::-1]

    def corner_fan(self, tri_id: int, corner: int):
        """Walk once around the vertex at a triangle corner, one gluing per step.

        Yields ``(tri_id, corner, iso)`` for each corner reached, with
        ``iso`` mapping the start chart to that corner's chart.  The walk
        ends at the start corner, so the last ``iso`` is the holonomy of
        the loop around the vertex.
        """
        # A germ is one end of one edge: (triangle id, edge index, end in {0,1}).
        # End 0 sits at the edge's start corner, end 1 at its end corner.
        start = (tri_id, corner, 0)
        germ = start
        iso = PlaneIsometry.identity()
        while True:
            t, e, end = germ
            gi, side = self.edge_gluing[(t, e)]
            g = self.gluings[gi]
            step = self.transitions[gi] if side == 0 else self.transitions[gi].inverse()
            iso = step.compose(iso)
            other = g.b if side == 0 else g.a
            end = end if g.reversed else 1 - end
            # Arrived at one end of other.edge; leave by the corner's other edge.
            k = (other.edge + end) % 3
            germ = (other.tri, (k - 1) % 3, 1) if end == 0 else (other.tri, k, 0)
            yield other.tri, k, iso
            if germ == start:
                return

    def _walk_vertex_classes(self) -> None:
        classes: list[VertexClass] = []
        corner_class: dict[tuple[int, int], int] = {}
        for t in self.triangles:
            for k in range(3):
                if (t.id, k) in corner_class:
                    continue
                fan = [(tri_id, c) for tri_id, c, _iso in self.corner_fan(t.id, k)]
                cycle = [fan[-1]] + fan[:-1]
                angle = 0.0
                for tri_id, c in cycle:
                    angle += self._by_id[tri_id].angle_at(c)
                idx = len(classes)
                cone = abs(TWO_PI - angle) > self.tolerance
                classes.append(VertexClass(idx, tuple(cycle), angle, cone))
                for c in cycle:
                    corner_class[c] = idx
        total_corners = sum(len(v.corners) for v in classes)
        if total_corners != 3 * len(self.triangles):
            raise UnmatchedEdge("corner cycles do not partition the corners")
        self.vertex_classes = tuple(classes)
        self.corner_class = corner_class

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
        return [v for v in self.vertex_classes if v.is_cone]


def _validate_triangles(triangles, tol: float) -> None:
    seen = set()
    for t in triangles:
        if t.id in seen:
            raise DegenerateTriangle(f"duplicate triangle id {t.id}")
        seen.add(t.id)
        # Trace chords hold triangle ids as float64, exact up to 2**53.
        if not abs(t.id) <= 2**53:
            raise MalformedSurface(f"triangle id {t.id} is beyond 2**53")
        if not all(math.isfinite(x) for c in t.corners for x in c):
            raise DegenerateTriangle(f"triangle {t.id} has a non-finite corner")
        area = t.signed_area()
        if not math.isfinite(area):
            raise DegenerateTriangle(f"triangle {t.id} has non-finite signed area {area}")
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


def build_surface(triangles, gluings, tol: float = METRIC_TOL) -> FlatSurface:
    """Validate triangles and gluings and derive all global structure.

    Raises DegenerateTriangle, UnmatchedEdge, LengthMismatch,
    Disconnected or MalformedSurface (a triangle id beyond 2**53) on
    invalid input, and ValueError unless ``tol`` is positive and finite.  The result carries transition isometries,
    vertex classes, Euler characteristic and orientability.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
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

    surface = FlatSurface(triangles, gluings, transitions, edge_gluing, tol)
    residual = gauss_bonnet_check(surface)
    if residual > max(tol, 1e-9):
        raise LengthMismatch(f"curvature audit failed: residual {residual:.3e}")
    return surface


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


def _dijkstra(edges: list[list[tuple[int, float]]], src: int) -> np.ndarray:
    """Shortest-path distances from ``src`` over an adjacency list."""
    dist = [math.inf] * len(edges)
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
    return np.array(dist)


def diameter_estimate(surface: FlatSurface) -> float:
    """Upper-bound diameter estimate from the edge skeleton.

    Shortest paths are measured through triangle corners and centroids
    only, so the value overestimates the true intrinsic diameter but
    scales with it; used to pick experiment lengths.

    The value is the largest eccentricity over all nodes, but Dijkstra
    runs only from nodes that can still reach it (Takes & Kosters 2011).
    After a run from v, every node w gets the upper bound
    ``U[w] = min(U[w], ecc(v) + d_v[w])`` and is skipped once
    ``(1 + 1e-9) * U[w] < best``, the largest eccentricity computed so far.
    Sources alternate between the live node of largest ``U`` and the one
    of smallest lower bound ``max(d_v[w], ecc(v) - d_v[w])``, from node 0.
    The result is the all-sources maximum bit for bit: a computed distance
    is a float sum along a path of at most n edges, so it is within a
    relative n * 2**-53 of the exact graph distance, far below 1e-9.  So
    the triangle inequality ``ecc(w) <= ecc(v) + d(v, w)`` puts a skipped
    node's own computed eccentricity below ``best``.
    """
    # Nodes: the vertex classes, then one centroid per triangle.
    n = len(surface.vertex_classes) + len(surface.triangles)
    edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for c, t in enumerate(surface.triangles, start=len(surface.vertex_classes)):
        cx = sum(p[0] for p in t.corners) / 3.0
        cy = sum(p[1] for p in t.corners) / 3.0
        for k in range(3):
            vk = surface.corner_class[(t.id, k)]
            vk1 = surface.corner_class[(t.id, (k + 1) % 3)]
            for u, w, d in (
                (c, vk, norm(t.corners[k][0] - cx, t.corners[k][1] - cy)),
                (vk, vk1, t.edge_length(k)),
            ):
                edges[u].append((w, d))
                edges[w].append((u, d))

    upper = np.full(n, math.inf)
    lower = np.zeros(n)
    live = np.ones(n, dtype=bool)
    best = 0.0
    src = 0
    for run in range(n):
        live[src] = False
        dist = _dijkstra(edges, src)
        ecc = dist.max()
        best = max(best, float(ecc))
        np.minimum(upper, ecc + dist, out=upper)
        np.maximum(lower, np.maximum(dist, ecc - dist), out=lower)
        live &= (1.0 + 1e-9) * upper >= best
        candidates = np.flatnonzero(live)
        if not len(candidates):
            break
        pick = np.argmin(lower[candidates]) if run % 2 else np.argmax(upper[candidates])
        src = int(candidates[pick])
    return best
