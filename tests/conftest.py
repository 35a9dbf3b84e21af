import math

import numpy as np
import pytest

from flatgeo.builders import catalog
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


def dense_near_chords(Q, P, D, L, epsilon):
    """Which points Q lie within epsilon of chords (P, D, L): every point
    against every chord, in the expressions density_estimate uses."""
    W = Q[:, None, :] - P[None, :, :]
    proj = W[:, :, 0] * D[None, :, 0] + W[:, :, 1] * D[None, :, 1]
    proj = np.clip(proj, 0.0, L[None, :])
    dx = W[:, :, 0] - proj * D[None, :, 0]
    dy = W[:, :, 1] - proj * D[None, :, 1]
    return np.sqrt(np.min(dx * dx + dy * dy, axis=1)) < epsilon
