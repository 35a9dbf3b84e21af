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
    float_arg,
    int_arg,
)
from .geometry import (
    METRIC_TOL,
    TWO_PI,
    PlaneIsometry,
    Vec,
    cross,
)


@dataclass(frozen=True)
class Triangle:
    """A triangle in its own chart, corners listed counterclockwise."""

    id: int
    corners: tuple[Vec, Vec, Vec]

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
        return math.hypot(v[0], v[1])

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
            if side < -tol * math.hypot(ex, ey):
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
    gives connectivity, the dual spanning tree (``tree_parent``: each
    non-root triangle's (gluing id, parent triangle)) and each chart's
    isometry into the root chart (``chart_to_root``).  A triangle's
    orientation sign is the ``reflect`` bit of its chart-to-root isometry,
    because every reversed gluing's transition is a reflection.  The
    corner fans (:meth:`_fan_steps`) then give the vertex classes.  A fan
    steps by each crossing's ``reflect`` bit alone; only :meth:`corner_fan`,
    which holonomy and the tracer read, composes the isometries.

    Both walks read ``crossings``, one entry per oriented edge: the edge
    it lands on and the isometry from its chart to that edge's chart.
    Side ``a`` of a gluing stores the gluing's transition and side ``b``
    its inverse.
    """

    def __init__(
        self,
        by_id: dict[int, Triangle],
        gluings: tuple[Gluing, ...],
        crossings: dict[EdgeRef, tuple[EdgeRef, PlaneIsometry]],
        tolerance: float,
    ):
        self.triangles = tuple(by_id.values())
        self.gluings = gluings
        self.crossings = crossings
        self.tolerance = tolerance
        self.patch_triangle_ids: tuple[int, ...] = ()  # set by cut-and-glue builders
        self._by_id = by_id
        self._grow_dual_tree()
        self._walk_vertex_classes()
        self.euler_characteristic = len(self.vertex_classes) - len(gluings) + len(self.triangles)

    def _grow_dual_tree(self) -> None:
        # Each triangle's glued edges, in gluing order.
        adj: dict[int, list[tuple[int, EdgeRef]]] = {t.id: [] for t in self.triangles}
        for gi, g in enumerate(self.gluings):
            adj[g.a.tri].append((gi, g.a))
            adj[g.b.tri].append((gi, g.b))
        root = min(adj)
        to_root: dict[int, PlaneIsometry] = {root: PlaneIsometry.identity()}
        self.tree_parent: dict[int, tuple[int, int]] = {}
        self.orientation_witness: list[int] | None = None
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for gi, edge in adj[cur]:
                (other, _), step = self.crossings[edge]
                if other not in to_root:
                    # step maps chart(cur) -> chart(other); invert to go back.
                    to_root[other] = to_root[cur].compose(step.inverse())
                    self.tree_parent[other] = (gi, cur)
                    queue.append(other)
                elif self.orientation_witness is None and (
                    to_root[other].reflect != (to_root[cur].reflect != step.reflect)
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
        while tri_id in self.tree_parent:
            gi, tri_id = self.tree_parent[tri_id]
            path.append(gi)
        return path[::-1]

    def _fan_steps(self, tri_id: int, corner: int):
        """Walk once around the vertex at a triangle corner, one gluing per step.

        Yields ``(tri_id, corner, step)`` for each corner reached, with
        ``step`` the isometry of the gluing just crossed.  The walk ends at
        the start corner.
        """
        # A germ is one end of one edge: (triangle id, edge index, end in {0,1}).
        # End 0 sits at the edge's start corner, end 1 at its end corner.
        start = (tri_id, corner, 0)
        germ = start
        while True:
            t, e, end = germ
            other, step = self.crossings[(t, e)]
            end = end if step.reflect else 1 - end
            # Arrived at one end of other.edge; leave by the corner's other edge.
            k = (other.edge + end) % 3
            germ = (other.tri, (k - 1) % 3, 1) if end == 0 else (other.tri, k, 0)
            yield other.tri, k, step
            if germ == start:
                return

    def corner_fan(self, tri_id: int, corner: int):
        """Walk once around the vertex at a triangle corner, one gluing per step.

        Yields ``(tri_id, corner, iso)`` for each corner reached, with
        ``iso`` mapping the start chart to that corner's chart.  The walk
        ends at the start corner, so the last ``iso`` is the holonomy of
        the loop around the vertex.
        """
        iso = PlaneIsometry.identity()
        for t, k, step in self._fan_steps(tri_id, corner):
            iso = step.compose(iso)
            yield t, k, iso

    def _walk_vertex_classes(self) -> None:
        classes: list[VertexClass] = []
        corner_class: dict[tuple[int, int], int] = {}
        for t in self.triangles:
            for k in range(3):
                if (t.id, k) in corner_class:
                    continue
                # Only the corners are read, so the fan's isometries are not composed.
                fan = [(tri_id, c) for tri_id, c, _step in self._fan_steps(t.id, k)]
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
        return self.crossings[(tri_id, edge)]

    def check_vertex(self, v: VertexClass) -> None:
        """Raise ValueError unless ``v`` is one of this surface's vertex classes."""
        if not (0 <= v.index < len(self.vertex_classes)) or self.vertex_classes[v.index] is not v:
            raise ValueError("vertex class does not belong to this surface")

    def vertex_of(self, tri_id: int, corner: int) -> VertexClass:
        return self.vertex_classes[self.corner_class[(tri_id, corner)]]

    def area(self) -> float:
        return sum(t.signed_area() for t in self.triangles)

    def cone_points(self) -> list[VertexClass]:
        return [v for v in self.vertex_classes if v.is_cone]


def _validate_triangles(triangles, tol: float) -> dict[int, Triangle]:
    """The triangles by id, in input order."""
    by_id: dict[int, Triangle] = {}
    for t in triangles:
        if not isinstance(t, Triangle):
            raise MalformedSurface(f"{t!r} is not a Triangle")
        try:  # trace chords hold triangle ids as float64, exact up to 2**53
            int_arg("triangle id", t.id, -(2**53), 2**53)
        except ValueError as err:
            raise MalformedSurface(str(err)) from None
        if t.id in by_id:
            raise DegenerateTriangle(f"duplicate triangle id {t.id}")
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
        by_id[t.id] = t
    return by_id


def _check_edges_glued_once(by_id, gluings) -> dict:
    """The crossing table's keys in gluing order (side a, then b), valued None."""
    crossings: dict = {}
    for gi, g in enumerate(gluings):
        if not isinstance(g, Gluing):
            raise MalformedSurface(f"{g!r} is not a Gluing")
        for ref in (g.a, g.b):
            try:  # a side that is not an EdgeRef fails the first test
                int_arg("triangle id", ref.tri if isinstance(ref, EdgeRef) else None), int_arg("edge", ref.edge)
            except ValueError:
                raise MalformedSurface(f"gluing {gi} side {ref!r} is not an EdgeRef of two ints") from None
            if ref.tri not in by_id or not 0 <= ref.edge < 3:
                raise UnmatchedEdge(f"gluing {gi} references unknown edge {ref}")
            if ref in crossings:
                raise UnmatchedEdge(f"edge {tuple(ref)} glued more than once")
            crossings[ref] = None
    for tri_id in by_id:
        for e in range(3):
            if (tri_id, e) not in crossings:
                raise UnmatchedEdge(f"edge ({tri_id}, {e}) is not glued; surface must be closed")
    return crossings


def build_surface(triangles, gluings, tol: float = METRIC_TOL) -> FlatSurface:
    """Validate triangles and gluings and derive all global structure.

    Raises DegenerateTriangle, UnmatchedEdge, LengthMismatch,
    Disconnected or MalformedSurface (an item that is not a Triangle or
    a Gluing, a gluing side that is not an EdgeRef of two ints, or a
    triangle id that is not an integer within 2**53) on invalid input, and
    ValueError unless ``tol`` is positive and finite.  The result carries
    each oriented edge's crossing, vertex classes, Euler characteristic
    and orientability.
    """
    tol = float_arg("tolerance", tol)
    if not triangles or not gluings:
        raise UnmatchedEdge("need at least one triangle and one gluing")
    by_id = _validate_triangles(triangles, tol)
    crossings = _check_edges_glued_once(by_id, gluings)
    for gi, g in enumerate(gluings):
        ta, tb = by_id[g.a.tri], by_id[g.b.tri]
        la, lb = ta.edge_length(g.a.edge), tb.edge_length(g.b.edge)
        if abs(la - lb) > tol:
            raise LengthMismatch(
                f"gluing {gi}: edge lengths {la!r} and {lb!r} differ beyond tolerance"
            )
        a0, a1 = ta.edge_start(g.a.edge), ta.edge_end(g.a.edge)
        # A reversed gluing maps start to start, otherwise start to end.
        b0, b1 = tb.edge_start(g.b.edge), tb.edge_end(g.b.edge)
        if not g.reversed:
            b0, b1 = b1, b0
        iso = PlaneIsometry.from_point_pairs(a0, a1, b0, b1, reflect=g.reversed)
        # Audit: the isometry must map edge a endpoint-to-endpoint onto b.
        for src, dst in ((a0, b0), (a1, b1)):
            img = iso.apply(src)
            if math.hypot(img[0] - dst[0], img[1] - dst[1]) > 1e-9 + tol:
                raise LengthMismatch(f"gluing {gi}: transition fails endpoint audit")
        crossings[g.a] = (g.b, iso)
        crossings[g.b] = (g.a, iso.inverse())

    surface = FlatSurface(by_id, tuple(gluings), crossings, tol)
    residual = gauss_bonnet_check(surface)
    if residual > max(tol, 1e-9):
        raise LengthMismatch(f"curvature audit failed: residual {residual:.3e}")
    return surface


def gauss_bonnet_check(surface: FlatSurface) -> float:
    """|sum of curvatures - 2*pi*chi|; tiny on every valid surface."""
    total = sum(v.curvature for v in surface.vertex_classes)
    return abs(total - TWO_PI * surface.euler_characteristic)


# A centroid folds out of the diameter graph when each of its spoke
# margins r_a + r_b - e_ab exceeds this times D (see diameter_estimate).
CENTROID_FOLD_REL = 4 * 2.0**-53


def _dijkstra(edges: list[list[tuple[int, float]]], seeds: list[tuple[int, float]]) -> list[float]:
    """Shortest-path distances from the ``(node, distance)`` seeds."""
    dist = [math.inf] * len(edges)
    for u, d in seeds:
        dist[u] = min(dist[u], d)
    heap = [(d, u) for u, d in seeds]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for w, dw in edges[u]:
            nd = d + dw
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def _skeleton(surface: FlatSurface):
    """The diameter graph on the vertex classes and the kept centroids.

    Returns ``(edges, corner, spoke, kept)``: adjacency lists of the
    vertex classes (nodes ``0..V-1``) and of the kept centroids (node
    ``V + i`` for triangle ``kept[i]``), and each triangle's corner classes
    and spokes, both ``(T, 3)``.  Parallel edges merge to their minimum and
    self-loops drop out.
    """
    nv = len(surface.vertex_classes)
    rows = []
    for t in surface.triangles:
        (ax, ay), (bx, by), (qx, qy) = t.corners
        cx = sum(p[0] for p in t.corners) / 3.0
        cy = sum(p[1] for p in t.corners) / 3.0
        rows.append((
            *(surface.corner_class[(t.id, k)] for k in range(3)),
            math.hypot(ax - cx, ay - cy), math.hypot(bx - cx, by - cy), math.hypot(qx - cx, qy - cy),
            math.hypot(bx - ax, by - ay), math.hypot(qx - bx, qy - by), math.hypot(ax - qx, ay - qy),
        ))
    table = np.array(rows)
    corner, spoke, length = table[:, :3].astype(np.intp), table[:, 3:6], table[:, 6:]
    ahead = np.roll(spoke, -1, axis=1)
    # D: twice the total weight of the full graph (see diameter_estimate).
    bound = 2.0 * (float(spoke.sum()) + float(length.sum()))
    kept = np.flatnonzero(((spoke + ahead) - length <= CENTROID_FOLD_REL * bound).any(axis=1))

    merged: dict[tuple[int, int], float] = {}
    ends = zip(corner.ravel().tolist(), np.roll(corner, -1, axis=1).ravel().tolist())
    for (u, w), d in zip(ends, length.ravel().tolist()):
        if u != w:
            key = (u, w) if u < w else (w, u)
            merged[key] = min(merged.get(key, d), d)
    edges: list[list[tuple[int, float]]] = [[] for _ in range(nv + len(kept))]
    for (u, w), d in merged.items():
        edges[u].append((w, d))
        edges[w].append((u, d))
    for c, i in enumerate(kept.tolist(), start=nv):
        for u, d in zip(corner[i].tolist(), spoke[i].tolist()):
            edges[c].append((u, d))
            edges[u].append((c, d))
    return edges, corner, spoke, kept


def diameter_estimate(surface: FlatSurface) -> float:
    """Upper-bound diameter estimate from the edge skeleton.

    Shortest paths are measured through triangle corners and centroids
    only, so the value overestimates the true intrinsic diameter but
    scales with it; used to pick experiment lengths.  The graph's nodes
    are the vertex classes and one centroid per triangle; its edges are
    the triangle edges and the spokes ``r_k`` from each centroid to its
    corners.

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

    Each run's Dijkstra visits the vertex classes and only the centroids
    that could shorten a path (``_skeleton``); the others get
    ``min_k(d[v_k] + r_k)`` afterwards, and such a centroid as a source
    seeds its corners with its spokes.  Every distance stays bit-identical:

    - Float addition is monotone (``a <= b`` gives ``fl(a + w) <= fl(b +
      w)``) and never decreases a sum (``fl(a + w) >= a``), so Dijkstra
      computes the least fixed point: each node's distance is the least
      left-to-right float sum over all walks to it.  Merging parallel
      edges to their minimum and dropping self-loops leaves every least sum.
    - Let a least walk reach vertex v_a with sum x and go on through
      centroid c to v_b.  It reaches v_b with ``fl(fl(x + r_a) + r_b) >=
      S (1 - 2u)``, where ``S = x + r_a + r_b`` and u = 2**-53; the edge
      gives ``fl(x + e_ab) <= (x + e_ab)(1 + u)``.  So the edge is no
      longer when ``r_a + r_b - e_ab >= 3uS``, and by monotonicity neither
      is the rest of the walk: c is not needed.
    - S is at most ``(1 + u)**2`` times the walk's final sum, and no
      computed distance exceeds ``(1 + nu)`` times the total edge weight W
      (the float sum along a simple path), so S < D = 2W.  A centroid folds
      out only when each computed margin ``m = fl(fl(r_a + r_b) - e_ab)``
      exceeds 4uD.  Its two roundings leave an exact margin of at least
      ``m (1 - u) - u (r_a + r_b) > 4uD (1 - u) - uD/2 > 3uD``.
    - The least sum to a folded-out centroid ends with one spoke,
      ``min_k fl(d[v_k] + r_k)``; a kept centroid, whose only edges are its
      spokes, gets the same value from Dijkstra.
    """
    edges, corner, spoke, kept = _skeleton(surface)
    nv = len(surface.vertex_classes)
    # Node ids: the vertex classes, then one centroid per triangle.
    node = np.concatenate((np.arange(nv), np.full(len(spoke), -1)))
    node[nv + kept] = np.arange(nv, nv + len(kept))
    n = len(node)
    upper = np.full(n, math.inf)
    lower = np.zeros(n)
    live = np.ones(n, dtype=bool)
    best = 0.0
    src = 0
    for run in range(n):
        live[src] = False
        if node[src] >= 0:
            seeds = [(int(node[src]), 0.0)]
        else:  # a folded-out centroid
            seeds = list(zip(corner[src - nv].tolist(), spoke[src - nv].tolist()))
        d = np.array(_dijkstra(edges, seeds)[:nv])
        dist = np.concatenate((d, (d[corner] + spoke).min(axis=1)))
        dist[src] = 0.0
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
