import functools
import heapq
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from flatgeo import analysis
from flatgeo.builders import catalog
from flatgeo.errors import NonSimplePolygon, PointOutsideTriangle
from flatgeo.geometry import cross, normalize, polygon_area, segments_intersect
from flatgeo.surface import EdgeRef, FlatSurface, Gluing, Triangle, build_surface
from flatgeo.tracer import (
    DEFAULT_VERTEX_CLEARANCE,
    LENGTH_REACHED,
    LEFT_DOMAIN,
    MAX_CLASSES,
    MAX_STEPS,
    PROPER_ANGLE_TOL,
    VERTEX_HIT,
    ChordIndex,
    GeodesicTrace,
    SurfacePoint,
    TangentDirection,
    Termination,
)


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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def mutate_json(doc, data):
    """Replace one value anywhere in a JSON document by random JSON, or delete its key."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        path.append(data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node)))))
        node = node[path[-1]]
    value = data.draw(json_values)
    if not path:
        return value
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if data.draw(st.booleans()):
        owner[path[-1]] = value
    else:
        del owner[path[-1]]
    return doc


@functools.lru_cache(maxsize=4)
def reference_charts(trace_):
    """tri -> (P, D, L, T0) of its chords in trace order, charts in order
    of first appearance, grouped one chord at a time."""
    rows: dict[int, list[int]] = {}
    for k, tri in enumerate(trace_.chords[:, 0].tolist()):
        rows.setdefault(int(tri), []).append(k)
    c = trace_.chords
    return {tri: (c[ks, 1:3], c[ks, 5:7], c[ks, 8], c[ks, 7]) for tri, ks in rows.items()}


def reference_classes(P, D):
    """One chart's direction classes, found one class at a time: (label,
    normals, spreads, keys, order, wide), as ``ChordIndex`` describes them
    but numbered within the chart."""
    label = np.full(len(P), -1)
    normals, spreads = [], []
    wide = False
    while len(free := np.flatnonzero(label < 0)):
        if len(normals) == MAX_CLASSES:
            label[:], normals, spreads, wide = 0, normals[:1], [1.0], True
            break
        dx, dy = D[free[0]]
        cross = np.abs(D[free, 0] * dy - D[free, 1] * dx)
        mine = cross <= PROPER_ANGLE_TOL / 4
        label[free[mine]] = len(normals)
        normals.append((-dy, dx))
        spreads.append(cross[mine].max())
    n = np.array(normals)
    keys = label + 1j * (n[label, 0] * P[:, 0] + n[label, 1] * P[:, 1])
    order = np.argsort(keys, kind="stable")
    return label, n, np.array(spreads), keys[order], order, wide


@functools.lru_cache(maxsize=4)
def reference_chart_classes(trace_) -> dict:
    """tri -> ``reference_classes`` of each chart of the trace."""
    return {tri: reference_classes(P, D) for tri, (P, D, _L, _T0) in reference_charts(trace_).items()}


def reference_index(trace_) -> ChordIndex:
    """Reference for ``GeodesicTrace.index``: each chart's classes found
    by its own loop, then the charts joined, their class numbers and rows
    shifted by the classes and rows before them."""
    charts = reference_charts(trace_)
    if not charts:
        none, zero = np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        return ChordIndex(
            tris=none, rows=zero, chart=none, cols=np.empty((6, 0)), label=none, classes=zero,
            wide=np.empty(0, dtype=bool), pmax=np.empty(0), normals=np.empty((0, 2)), spreads=np.empty(0),
            keys=np.empty(0, dtype=complex), order=none, bounds=zero,
        )
    cls = list(reference_chart_classes(trace_).values())
    P, D, L, T0 = (np.concatenate([v[k] for v in charts.values()]) for k in range(4))
    rows = np.cumsum([0] + [len(c[0]) for c in cls])
    sizes = np.diff(rows)
    ncls = np.array([len(c[1]) for c in cls])
    base = np.cumsum(ncls) - ncls
    keys = np.concatenate([c[3] for c in cls]) + np.repeat(base, sizes)
    n_classes = int(ncls.sum())
    return ChordIndex(
        tris=np.array(list(charts), dtype=np.int64),
        rows=rows,
        chart=np.repeat(np.arange(len(cls)), sizes),
        cols=np.vstack((P.T, D.T, L, T0)),
        label=np.concatenate([c[0] for c in cls]) + np.repeat(base, sizes),
        classes=np.append(base, n_classes),
        wide=np.array([c[5] for c in cls]),
        pmax=np.maximum.reduceat(np.abs(P).max(1), rows[:-1]),
        normals=np.concatenate([c[1] for c in cls]),
        spreads=np.concatenate([c[2] for c in cls]),
        keys=keys,
        order=np.concatenate([c[4] for c in cls]) + np.repeat(rows[:-1], sizes),
        bounds=np.append(np.searchsorted(keys.real, np.arange(n_classes)), len(keys)),
    )


def band_hits(trace_, chart, Q, epsilon, nearest=False):
    """``analysis._hits`` on one chart's query set, reading the reference
    index: point k of Q is sample k, in chart ``chart`` (a triangle id) of
    the trace."""
    ix = reference_index(trace_)
    n = len(Q)
    c = list(ix.tris).index(chart)
    return analysis._hits(ix, np.arange(n), np.full(n, c), Q[:, 0], Q[:, 1], epsilon, n, nearest)


def reference_row_events(tri, P, D, L, T0, label, wide, lo, hi):
    """Event columns from rows lo:hi of one chart, in (i, j) order: chord i
    paired with every later chord j of another class, or of the chart if
    ``wide``."""
    ii, jj = np.nonzero(np.triu((label[lo:hi, None] != label) | wide, lo + 1))
    ii += lo
    denom = D[ii, 0] * D[jj, 1] - D[ii, 1] * D[jj, 0]
    k = np.flatnonzero(np.abs(denom) > 1e-12)
    ii, jj, denom = ii[k], jj[k], denom[k]
    ang = np.arccos(np.clip(D[ii, 0] * D[jj, 0] + D[ii, 1] * D[jj, 1], -1.0, 1.0))
    k = np.flatnonzero((ang > PROPER_ANGLE_TOL) & (ang < math.pi - PROPER_ANGLE_TOL))
    ii, jj, denom, ang = ii[k], jj[k], denom[k], ang[k]
    dxi, dyi, dxj, dyj = D[ii, 0], D[ii, 1], D[jj, 0], D[jj, 1]
    pxi, pyi = P[ii, 0], P[ii, 1]
    wx, wy = P[jj, 0] - pxi, P[jj, 1] - pyi
    u = (wx * dyj - wy * dxj) / denom
    v = (wx * dyi - wy * dxi) / denom
    slack = 1e-12
    ok = (u >= -slack) & (u <= L[ii] + slack) & (v >= -slack) & (v <= L[jj] + slack)
    ta = T0[ii] + u
    tb = T0[jj] + v
    t1, t2 = np.minimum(ta, tb), np.maximum(ta, tb)
    k = np.flatnonzero(ok & (t2 - t1 > analysis.EVENT_MERGE_TOL))
    u = u[k]
    px = pxi[k] + u * dxi[k]
    py = pyi[k] + u * dyi[k]
    return t1[k], t2[k], np.full(len(k), tri), px, py, ang[k]


def reference_self_intersections(trace_):
    """Every proper self-intersection of a trace, the list whose earliest
    event ``self_intersections`` returns: the six event columns (t1, t2,
    tri, px, py, angle), each chart of two or more classes (or one wide
    class) paired in one call, the charts' events joined in chart order,
    sorted stably by (t1, t2) and merged."""
    found = []
    classes = reference_chart_classes(trace_)
    for tri, (P, D, L, T0) in reference_charts(trace_).items():
        label, normals, _spreads, _keys, _order, wide = classes[tri]
        if len(normals) > 1 or wide:
            found.append(reference_row_events(tri, P, D, L, T0, label, wide, 0, len(P)))
    if not found:
        empty = np.empty(0)
        return [empty, empty, empty.astype(np.int64), empty, empty, empty]
    cols = [np.concatenate(c) for c in zip(*found)]
    cols = [c[np.lexsort((cols[1], cols[0]))] for c in cols]
    return [c[analysis._merge_mask(cols[0], cols[1])] for c in cols]


def _event(t1, t2, tri, px, py, angle):
    return analysis.IntersectionEvent(t1, t2, SurfacePoint(tri, (px, py)), angle)


def reference_events(trace_) -> list:
    """The rows of ``reference_self_intersections`` as IntersectionEvents, in order."""
    return [_event(*row) for row in zip(*(c.tolist() for c in reference_self_intersections(trace_)))]


def reference_first_event(trace_):
    """Reference for ``self_intersections``: the row of
    ``reference_self_intersections`` with the smallest (t2, t1), the first
    on ties, as an IntersectionEvent, or None."""
    cols = reference_self_intersections(trace_)
    if not len(cols[0]):
        return None
    k = np.lexsort((cols[0], cols[1]))[0]
    return _event(*(c[k].item() for c in cols))


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
            connect(("c", t.id), ("v", vk), math.hypot(t.corners[k][0] - cx, t.corners[k][1] - cy))
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
        if math.hypot(b[0] - a[0], b[1] - a[1]) == 0.0:
            raise NonSimplePolygon("zero-length polygon edge")
    for i in range(n):
        a1, b1 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            a2, b2 = pts[j], pts[(j + 1) % n]
            if segments_intersect(a1, b1, a2, b2):
                raise NonSimplePolygon(f"boundary edges {i} and {j} intersect")


def validate_outcome(check, vertices) -> str | None:
    """The message of the NonSimplePolygon ``check(vertices)`` raises, or None."""
    try:
        check(vertices)
    except NonSimplePolygon as e:
        return str(e)
    return None


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


class _ReferenceTables:
    """Per-triangle tables for ``reference_trace``: edges, crossings,
    corners, cone flags and vertex classes, three of each per triangle."""

    def __init__(self, surface: FlatSurface):
        tris = surface.triangles
        self.id2dense = {t.id: i for i, t in enumerate(tris)}
        self.dense2id = [t.id for t in tris]
        self.corners = []
        self.edges = []  # per tri: 3 x (ax, ay, ux, uy, length)
        self.trans = []  # per tri: 3 x (tgt_dense, tgt_edge, m00, m01, m10, m11, tx, ty)
        self.cone = []
        self.cls = []
        scale = 0.0
        for t in tris:
            self.corners.append(tuple(t.corners))
            es = []
            for k in range(3):
                a = t.edge_start(k)
                v = t.edge_vector(k)
                ln = math.hypot(v[0], v[1])
                es.append((a[0], a[1], v[0] / ln, v[1] / ln, ln))
                scale = max(scale, ln)
            self.edges.append(tuple(es))
            ts = []
            for k in range(3):
                ref, iso = surface.edge_transition(t.id, k)
                m = iso.matrix()
                ts.append((self.id2dense[ref.tri], ref.edge, m[0], m[1], m[2], m[3], m[4], m[5]))
            self.trans.append(tuple(ts))
            cone_flags = []
            cls_idx = []
            for k in range(3):
                ci = surface.corner_class[(t.id, k)]
                cls_idx.append(ci)
                cone_flags.append(surface.vertex_classes[ci].is_cone)
            self.cone.append(tuple(cone_flags))
            self.cls.append(tuple(cls_idx))
        self.scale = scale
        self.min_height = min(
            2.0 * t.signed_area() / max(t.edge_length(k) for k in range(3)) for t in tris
        )


def reference_trace(
    surface: FlatSurface,
    start: TangentDirection,
    max_length: float,
    vertex_clearance: float = DEFAULT_VERTEX_CLEARANCE,
) -> GeodesicTrace:
    """Reference for ``tracer.trace``: the step loop that reads every edge
    and every corner of each triangle, with the clamped-tau cone test run
    on every cone corner.  It must give the same chords, termination and
    length bit for bit.

    Raises ValueError for non-finite input and for a ``max_length`` whose
    step budget exceeds MAX_STEPS.
    """
    if not 0.0 < max_length < math.inf:
        raise ValueError("max_length must be positive and finite")
    if not surface.tolerance <= vertex_clearance < math.inf:
        raise ValueError("vertex_clearance must be finite and at least the surface tolerance")
    if not all(math.isfinite(x) for x in (*start.at.xy, *start.unit)):
        raise ValueError("start point and direction must be finite")
    tab = _ReferenceTables(surface)
    if start.at.tri not in tab.id2dense:
        raise PointOutsideTriangle(f"no triangle with id {start.at.tri}")
    tol_pt = surface.tolerance * (1.0 + tab.scale)
    tri0 = surface.triangle(start.at.tri)
    if not tri0.contains(start.at.xy, tol=tol_pt * 10):
        raise PointOutsideTriangle(f"start point {start.at.xy} outside triangle {start.at.tri}")
    dx, dy = normalize(start.unit)
    norm_start = TangentDirection(start.at, (dx, dy))

    dense = tab.id2dense[start.at.tri]
    px, py = float(start.at.xy[0]), float(start.at.xy[1])
    entry_edge = -1
    acc = 0.0
    remaining = float(max_length)
    clearance2 = vertex_clearance * vertex_clearance
    t_eps = 1e-13 * (1.0 + tab.scale)
    rows: list[float] = []  # chord rows, flattened; see GeodesicTrace
    step_budget = 50.0 * max_length / max(tab.min_height, 1e-9)
    if not step_budget <= MAX_STEPS:
        raise ValueError(f"max_length {max_length!r} needs more than {MAX_STEPS} steps")
    max_steps = int(step_budget) + 10000

    corners = tab.corners
    edges = tab.edges
    trans = tab.trans
    cone = tab.cone
    cls = tab.cls
    dense2id = tab.dense2id

    for _ in range(max_steps):
        tri_id = dense2id[dense]
        # Exit through the nearest forward edge crossing.
        best_t = math.inf
        best_edge = -1
        tre = edges[dense]
        for e in range(3):
            if e == entry_edge:
                continue
            ax, ay, ux, uy, elen = tre[e]
            denom = ux * dy - uy * dx
            if -1e-13 < denom < 1e-13:
                continue
            sx = px - ax
            sy = py - ay
            t = (sx * uy - sy * ux) / denom
            if t <= t_eps or t >= best_t:
                continue
            s = (sx * dy - sy * dx) / denom
            if -1e-9 * elen <= s <= elen * (1.0 + 1e-9):
                best_t = t
                best_edge = e
        if best_edge < 0:
            # Nothing ahead past t_eps.  A start on an edge pointing out of
            # the triangle crosses that edge at once; any other ray stops.
            for e in range(3 if entry_edge < 0 else 0):
                ax, ay, ux, uy, elen = tre[e]
                denom = ux * dy - uy * dx
                sx = px - ax
                sy = py - ay
                if denom < -1e-13 and abs(sx * uy - sy * ux) <= -denom * t_eps:
                    if -1e-9 * elen <= (sx * dy - sy * dx) / denom <= elen * (1.0 + 1e-9):
                        best_t = 0.0
                        best_edge = e
            if best_edge < 0:
                term = Termination(LEFT_DOMAIN, message="no forward edge crossing found")
                break

        eff = best_t if best_t < remaining else remaining
        # Cone-point clearance along the chord actually travelled.
        hit_tau = None
        hit_class = None
        trc = corners[dense]
        for k in range(3):
            if not cone[dense][k]:
                continue
            wx = trc[k][0] - px
            wy = trc[k][1] - py
            tau = wx * dx + wy * dy
            if tau < 0.0:
                tau = 0.0
            elif tau > eff:
                tau = eff
            rx = wx - tau * dx
            ry = wy - tau * dy
            if rx * rx + ry * ry < clearance2 and (hit_tau is None or tau < hit_tau):
                hit_tau = tau
                hit_class = cls[dense][k]
        if hit_tau is not None:
            rows += (tri_id, px, py, px + hit_tau * dx, py + hit_tau * dy, dx, dy, acc, hit_tau, -1)
            acc += hit_tau
            term = Termination(VERTEX_HIT, vertex=hit_class, parameter=acc)
            break
        if remaining <= best_t:
            rows += (tri_id, px, py, px + remaining * dx, py + remaining * dy, dx, dy, acc, remaining, -1)
            acc = max_length
            term = Termination(LENGTH_REACHED)
            break

        qx = px + best_t * dx
        qy = py + best_t * dy
        # Corner ties resolve as vertex hits regardless of curvature: the
        # transition choice at an exact corner is ambiguous.
        exit_edge = best_edge
        for k in (best_edge, (best_edge + 1) % 3):
            cxr, cyr = trc[k]
            ex2 = qx - cxr
            ey2 = qy - cyr
            if ex2 * ex2 + ey2 * ey2 < clearance2:
                exit_edge = -1
                break
        rows += (tri_id, px, py, qx, qy, dx, dy, acc, best_t, exit_edge)
        acc += best_t
        if exit_edge < 0:
            term = Termination(VERTEX_HIT, vertex=cls[dense][k], parameter=acc)
            break
        remaining -= best_t

        tgt, tedge, m00, m01, m10, m11, tx, ty = trans[dense][best_edge]
        npx = m00 * qx + m01 * qy + tx
        npy = m10 * qx + m11 * qy + ty
        ndx = m00 * dx + m01 * dy
        ndy = m10 * dx + m11 * dy
        n = math.hypot(ndx, ndy)
        dx, dy = ndx / n, ndy / n
        # Snap onto the target edge to kill perpendicular drift.
        ax, ay, ux, uy, elen = edges[tgt][tedge]
        s = (npx - ax) * ux + (npy - ay) * uy
        if s < 0.0:
            s = 0.0
        elif s > elen:
            s = elen
        px = ax + s * ux
        py = ay + s * uy
        dense = tgt
        entry_edge = tedge
    else:
        term = Termination(LEFT_DOMAIN, message="step budget exceeded")
    return GeodesicTrace._from_rows(norm_start, rows, acc, term)


def reference_sample_points(surface: FlatSurface, samples: int, seed: int) -> dict:
    """Area-uniform points: tri id -> (k, 2) array, as density_estimate
    draws them (the same rng calls), grouped by triangle."""
    rng = np.random.default_rng(seed)
    tris = surface.triangles
    areas = np.array([t.signed_area() for t in tris])
    choice = rng.choice(len(tris), size=samples, p=areas / areas.sum())
    u = np.sqrt(rng.uniform(size=samples))[:, None]
    v = rng.uniform(size=samples)[:, None]
    a, b, c = np.array([t.corners for t in tris])[choice].transpose(1, 0, 2)
    pts = a * (1 - u) + b * (u * (1 - v)) + c * (u * v)
    order = np.argsort(choice, kind="stable")
    starts = np.flatnonzero(np.diff(choice[order])) + 1
    return {tris[choice[g[0]]].id: pts[g] for g in np.split(order, starts)}


def reference_near_chords(Q, trace_: GeodesicTrace, tri: int, epsilon: float) -> np.ndarray:
    """Which points Q lie within epsilon of chart ``tri``'s chords, by band,
    with one R for all of Q."""
    P, D, L, _t0 = reference_charts(trace_)[tri]
    _label, normals, spreads, keys, order, _wide = reference_chart_classes(trace_)[tri]
    R = math.sqrt(2.0) * (np.abs(Q).max() + np.abs(P).max())
    width = epsilon + (math.pi / 2) * spreads * R + 1e-9 * (1.0 + R)
    off = Q[:, :1] * normals[:, 0] + Q[:, 1:] * normals[:, 1]
    cls = np.arange(len(normals))
    lo = np.searchsorted(keys, cls + 1j * (off - width)).ravel()
    count = np.searchsorted(keys, cls + 1j * (off + width), "right").ravel() - lo
    si = np.repeat(np.arange(len(lo)) // len(normals), count)
    ci = order[np.arange(count.sum()) + np.repeat(lo + count - np.cumsum(count), count)]
    ux, uy = D[:, 0][ci], D[:, 1][ci]
    wx, wy = Q[:, 0][si] - P[:, 0][ci], Q[:, 1][si] - P[:, 1][ci]
    proj = np.clip(wx * ux + wy * uy, 0.0, L[ci])
    dx, dy = wx - proj * ux, wy - proj * uy
    return np.bincount(si[np.sqrt(dx * dx + dy * dy) < epsilon], minlength=len(Q)) > 0


def reference_density(surface: FlatSurface, trace_: GeodesicTrace, epsilon: float, samples: int, seed: int):
    """Reference for ``density_estimate``: each sampled triangle in turn,
    its samples measured by band in their own chart, then through each
    gluing in the neighbour's chart while some are uncovered.  Returns the
    covered fraction and the per-sample verdicts, triangle by triangle in
    the order ``reference_sample_points`` groups them."""
    charts = reference_charts(trace_)
    verdicts = []
    for tri_id, P in reference_sample_points(surface, samples, seed).items():
        hit = np.zeros(len(P), dtype=bool)
        if tri_id in charts:
            hit |= reference_near_chords(P, trace_, tri_id, epsilon)
        for e in range(3):
            if np.all(hit):
                break
            ref, iso = surface.edge_transition(tri_id, e)
            if ref.tri not in charts:
                continue
            m = iso.matrix()
            Q = np.empty_like(P)
            Q[:, 0] = m[0] * P[:, 0] + m[1] * P[:, 1] + m[4]
            Q[:, 1] = m[2] * P[:, 0] + m[3] * P[:, 1] + m[5]
            todo = ~hit
            hit[todo] = reference_near_chords(Q[todo], trace_, ref.tri, epsilon)
        verdicts.append(hit)
    verdicts = np.concatenate(verdicts)
    return int(np.count_nonzero(verdicts)) / samples, verdicts
