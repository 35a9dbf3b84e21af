"""Parallel transport, holonomy generators, and the parallel classifier.

The punctured surface deformation-retracts onto the dual 1-skeleton
(each triangle minus its corners retracts to a central tripod), so the
loops defined by a dual spanning tree plus one non-tree gluing generate
the holonomy group.  The tree and each chart's isometry into the root
chart are built once with the surface (``FlatSurface.tree_parent`` and
``FlatSurface.chart_to_root``).  A surface is *parallel* when every
generator's linear part is a rotation by a multiple of pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PointNotOnEdge, int_arg
from .geometry import (
    PlaneIsometry,
    angle_distance_mod,
    point_segment_distance,
    wrap_angle,
)
from .surface import FlatSurface, Gluing, VertexClass
from .tracer import SurfacePoint, TangentDirection

# Resolution of the classifier: surfaces built from doubles cannot encode
# holonomy angles finer than this.
ANGLE_TOL = 1e-9
# How far from a glued edge transport_across still takes a base point to lie on it.
EDGE_TOL = 1e-7


@dataclass(frozen=True)
class HolonomyElement:
    """Linear part of a plane isometry: rotation angle plus reflect flag."""

    reflect: bool
    angle: float

    @classmethod
    def from_isometry(cls, iso: PlaneIsometry) -> "HolonomyElement":
        return cls(iso.reflect, wrap_angle(iso.angle))

    def is_half_turn_multiple(self) -> bool:
        """True for rotations by 0 or pi: membership in {id, -id}."""
        return not self.reflect and angle_distance_mod(self.angle, 0.0, math.pi) <= ANGLE_TOL


@dataclass(frozen=True)
class ParallelVerdict:
    parallel: bool
    field: dict[int, float] | None = None  # per-triangle line angle, mod pi
    witness_loop: tuple[int, ...] | None = None  # gluing ids of the offending dual loop
    witness: HolonomyElement | None = None

    def to_json_dict(self) -> dict:
        return {
            "parallel": self.parallel,
            "witness_loop": list(self.witness_loop) if self.witness_loop is not None else None,
            "witness_angle": self.witness.angle if self.witness is not None else None,
            "witness_reflect": self.witness.reflect if self.witness is not None else None,
            "line_field": (
                {str(k): v for k, v in sorted(self.field.items())}
                if self.field is not None
                else None
            ),
        }


def _gluing(surface: FlatSurface, gi) -> Gluing:
    """The gluing with id ``gi``; ValueError unless ``gi`` is an integer id of this surface."""
    return surface.gluings[int_arg("gluing id", gi, 0, len(surface.gluings) - 1)]


def transport_across(
    surface: FlatSurface, direction: TangentDirection, gluing: int
) -> TangentDirection:
    """Parallel-transport a tangent across one gluing.

    The base point must lie on the glued edge (either side decides the
    transport direction).  Raises ValueError unless ``gluing`` is a gluing
    id of the surface, an integer (not a bool) below ``len(surface.gluings)``.
    """
    g = _gluing(surface, gluing)
    pt = direction.at
    for ref in (g.a, g.b):
        if ref.tri != pt.tri:
            continue
        tri = surface.triangle(ref.tri)
        if point_segment_distance(pt.xy, tri.edge_start(ref.edge), tri.edge_end(ref.edge)) <= EDGE_TOL:
            target, iso = surface.edge_transition(*ref)
            return TangentDirection(
                SurfacePoint(target.tri, iso.apply(pt.xy)), iso.apply_vector(direction.unit)
            )
    raise PointNotOnEdge(f"base point {pt} is not on either side of gluing {gluing}")


def holonomy_generators(
    surface: FlatSurface,
) -> list[tuple[tuple[int, ...], HolonomyElement]]:
    """One generator per non-tree gluing: (dual loop as gluing ids, element)."""
    to_root = surface.chart_to_root
    tree = {gi for gi, _parent in surface.tree_parent.values()}
    out = []
    for gi, g in enumerate(surface.gluings):
        if gi in tree:
            continue
        # Loop based at the root: tree to a-side, cross gi, tree back.
        hol = to_root[g.b.tri].compose(surface.crossings[g.a][1])
        hol = hol.compose(to_root[g.a.tri].inverse())
        loop = tuple(surface.tree_path(g.a.tri) + [gi] + surface.tree_path(g.b.tri)[::-1])
        out.append((loop, HolonomyElement.from_isometry(hol)))
    return out


def loop_holonomy(surface: FlatSurface, loop: list[int], base_tri: int) -> HolonomyElement:
    """Replay a dual loop (gluing ids) from a base triangle.

    Raises ValueError unless the base is a triangle of the surface, each
    gluing a gluing id of it touching the current triangle (a gluing with
    both sides there is crossed from side ``a``), and the walk returns to
    the base.  Witness loops from :func:`is_parallel` and orientability
    witnesses replay to their offending elements this way.
    """
    if not surface.has_triangle(int_arg("base_tri", base_tri)):
        raise ValueError(f"no triangle with id {base_tri}")
    iso = PlaneIsometry.identity()
    cur = base_tri
    for gi in loop:
        g = _gluing(surface, gi)
        edge = next((ref for ref in (g.a, g.b) if ref.tri == cur), None)
        if edge is None:
            raise ValueError(f"gluing {gi} does not touch triangle {cur}")
        (cur, _), step = surface.edge_transition(*edge)
        iso = step.compose(iso)
    if cur != base_tri:
        raise ValueError("loop does not return to its base triangle")
    return HolonomyElement.from_isometry(iso)


def vertex_holonomy(surface: FlatSurface, v: VertexClass) -> HolonomyElement:
    """Linear part of the loop around one vertex.

    Equals the rotation by minus the vertex curvature (mod 2*pi), which the
    consistency tests assert against the cone angle.  Raises ValueError
    if ``v`` is not a vertex class of the surface.
    """
    surface.check_vertex(v)
    *_, (_tri, _corner, iso) = surface.corner_fan(*v.corners[0])
    return HolonomyElement.from_isometry(iso)


def _chart_resolution(surface: FlatSurface, loop: tuple[int, ...]) -> float:
    """How far rounded charts can move a dual loop's holonomy angle: per side
    of each gluing, 2**-50 times the triangle's largest |coordinate| over
    the edge length, a few float steps of the edge's direction."""
    total = 0.0
    for gi in loop:
        for tri_id, edge in (surface.gluings[gi].a, surface.gluings[gi].b):
            t = surface.triangle(tri_id)
            total += 2.0**-50 * max(abs(x) for c in t.corners for x in c) / t.edge_length(edge)
    return total


def is_parallel(surface: FlatSurface) -> ParallelVerdict:
    """Classify the surface by its holonomy generators.

    Parallel means every generator lies in {identity, rotation by pi};
    group closure makes generator membership sufficient.  Membership allows
    ANGLE_TOL plus, only past ANGLE_TOL, the loop's :func:`_chart_resolution`.
    On success the verdict carries the line field obtained by transporting
    the root chart's zero direction along the spanning tree; on failure it
    carries the offending dual loop and its holonomy element.
    """
    for loop, elem in holonomy_generators(surface):
        if elem.is_half_turn_multiple():
            continue
        off = angle_distance_mod(elem.angle, 0.0, math.pi)
        if elem.reflect or off > ANGLE_TOL + _chart_resolution(surface, loop):
            return ParallelVerdict(False, witness_loop=loop, witness=elem)
    angles = {
        tri_id: iso.inverse().apply_line_angle(0.0)
        for tri_id, iso in surface.chart_to_root.items()
    }
    return ParallelVerdict(True, field=angles)


def line_field_residual(surface: FlatSurface, field: dict[int, float]) -> float:
    """Worst gluing-compatibility error of a line field, in radians mod pi.

    Raises ValueError if the field misses a triangle or has a non-finite
    angle, since such a field cannot be checked.
    """
    for t in surface.triangles:
        if not math.isfinite(field.get(t.id, math.nan)):
            raise ValueError(f"line field has no finite angle in triangle {t.id}")
    worst = 0.0
    for g in surface.gluings:
        mapped = surface.crossings[g.a][1].apply_line_angle(field[g.a.tri])
        worst = max(worst, angle_distance_mod(mapped, field[g.b.tri], math.pi))
    return worst


def curvature_test(surface: FlatSurface) -> tuple[bool, list[VertexClass]]:
    """Check every vertex curvature against integer multiples of pi."""
    offending = [
        v
        for v in surface.vertex_classes
        if angle_distance_mod(v.curvature, 0.0, math.pi) > ANGLE_TOL
    ]
    return (not offending, offending)
