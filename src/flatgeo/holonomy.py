"""Parallel transport, holonomy generators, and the parallel classifier.

The punctured surface deformation-retracts onto the dual 1-skeleton
(each triangle minus its corners retracts to a central tripod), so the
loops defined by a dual spanning tree plus one non-tree gluing generate
the holonomy group.  The tree and each chart's isometry into the root
chart are built once with the surface (``FlatSurface.tree_gluing`` and
``FlatSurface.chart_to_root``).  A surface is *parallel* when every
generator's linear part is a rotation by a multiple of pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PointNotOnEdge
from .geometry import (
    TWO_PI,
    PlaneIsometry,
    angle_distance_mod,
    point_segment_distance,
    wrap_angle,
)
from .surface import FlatSurface, VertexClass
from .tracer import SurfacePoint, TangentDirection

# Resolution of the classifier: surfaces built from doubles cannot encode
# holonomy angles finer than this.
ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class HolonomyElement:
    """Linear part of a plane isometry: rotation angle plus reflect flag."""

    reflect: bool
    angle: float

    @classmethod
    def identity(cls) -> "HolonomyElement":
        return cls(False, 0.0)

    @classmethod
    def from_isometry(cls, iso: PlaneIsometry) -> "HolonomyElement":
        return cls(iso.reflect, wrap_angle(iso.angle))

    def compose(self, other: "HolonomyElement") -> "HolonomyElement":
        angle = self.angle - other.angle if self.reflect else self.angle + other.angle
        return HolonomyElement(self.reflect != other.reflect, wrap_angle(angle))

    def inverse(self) -> "HolonomyElement":
        return HolonomyElement(self.reflect, wrap_angle(self.angle if self.reflect else -self.angle))

    def is_rotation_by(self, angle: float, tol: float = ANGLE_TOL) -> bool:
        return not self.reflect and angle_distance_mod(self.angle, angle, TWO_PI) <= tol

    def is_half_turn_multiple(self, tol: float = ANGLE_TOL) -> bool:
        """True for rotations by 0 or pi: membership in {id, -id}."""
        return not self.reflect and angle_distance_mod(self.angle, 0.0, math.pi) <= tol


@dataclass(frozen=True)
class LineField:
    """Per-triangle unoriented direction, as an angle modulo pi."""

    angles: dict[int, float]

    def angle_in(self, tri_id: int) -> float:
        return self.angles[tri_id]


@dataclass(frozen=True)
class ParallelVerdict:
    parallel: bool
    field: LineField | None = None
    witness_loop: tuple[int, ...] | None = None  # gluing ids of the offending dual loop
    witness: HolonomyElement | None = None

    def to_json_dict(self) -> dict:
        return {
            "parallel": self.parallel,
            "witness_loop": list(self.witness_loop) if self.witness_loop is not None else None,
            "witness_angle": self.witness.angle if self.witness is not None else None,
            "witness_reflect": self.witness.reflect if self.witness is not None else None,
            "line_field": (
                {str(k): v for k, v in sorted(self.field.angles.items())}
                if self.field is not None
                else None
            ),
        }


def transport_across(
    surface: FlatSurface, direction: TangentDirection, gluing: int
) -> TangentDirection:
    """Parallel-transport a tangent across one gluing.

    The base point must lie on the glued edge (either side decides the
    transport direction).
    """
    g = surface.gluings[gluing]
    tol = 1e-7
    pt = direction.at
    for side, ref in enumerate((g.a, g.b)):
        if ref.tri != pt.tri:
            continue
        tri = surface.triangle(ref.tri)
        a = tri.edge_start(ref.edge)
        b = tri.edge_end(ref.edge)
        if point_segment_distance(pt.xy, a, b) <= tol:
            iso = surface.transitions[gluing]
            if side == 1:
                iso = iso.inverse()
            return TangentDirection(
                SurfacePoint(
                    (g.b if side == 0 else g.a).tri, iso.apply(pt.xy)
                ),
                iso.apply_vector(direction.unit),
            )
    raise PointNotOnEdge(f"base point {pt} is not on either side of gluing {gluing}")


def holonomy_generators(
    surface: FlatSurface,
) -> list[tuple[tuple[int, ...], HolonomyElement]]:
    """One generator per non-tree gluing: (dual loop as gluing ids, element)."""
    to_root = surface.chart_to_root
    tree = set(surface.tree_gluing.values())
    out = []
    for gi, g in enumerate(surface.gluings):
        if gi in tree:
            continue
        # Loop based at the root: tree to a-side, cross gi, tree back.
        hol = to_root[g.b.tri].compose(surface.transitions[gi]).compose(
            to_root[g.a.tri].inverse()
        )
        loop = tuple(surface.tree_path(g.a.tri) + [gi] + surface.tree_path(g.b.tri)[::-1])
        out.append((loop, HolonomyElement.from_isometry(hol)))
    return out


def loop_holonomy(surface: FlatSurface, loop: list[int], base_tri: int) -> HolonomyElement:
    """Replay a dual loop (gluing ids) from a base triangle.

    Each gluing must touch the current triangle; the walk must return to
    the base.  Witness loops from :func:`is_parallel` and orientability
    witnesses replay to their offending elements this way.
    """
    iso = PlaneIsometry.identity()
    cur = base_tri
    for gi in loop:
        g = surface.gluings[gi]
        if g.a.tri == cur:
            step, cur = surface.transitions[gi], g.b.tri
        elif g.b.tri == cur:
            step, cur = surface.transitions[gi].inverse(), g.a.tri
        else:
            raise ValueError(f"gluing {gi} does not touch triangle {cur}")
        iso = step.compose(iso)
    if cur != base_tri:
        raise ValueError("loop does not return to its base triangle")
    return HolonomyElement.from_isometry(iso)


def vertex_holonomy(surface: FlatSurface, v: VertexClass) -> HolonomyElement:
    """Linear part of the loop around one vertex.

    Equals the rotation by minus the vertex curvature (mod 2*pi), which the
    consistency tests assert against the cone angle.
    """
    *_, (_tri, _corner, iso) = surface.corner_fan(*v.corners[0])
    return HolonomyElement.from_isometry(iso)


def is_parallel(surface: FlatSurface, tol: float = ANGLE_TOL) -> ParallelVerdict:
    """Classify the surface by its holonomy generators.

    Parallel means every generator lies in {identity, rotation by pi};
    group closure makes generator membership sufficient.  On success the
    verdict carries the line field obtained by transporting the root
    chart's zero direction along the spanning tree; on failure it carries
    the offending dual loop and its holonomy element.
    """
    gens = holonomy_generators(surface)
    for loop, elem in gens:
        if not elem.is_half_turn_multiple(tol):
            return ParallelVerdict(False, witness_loop=loop, witness=elem)
    angles = {
        tri_id: iso.inverse().apply_line_angle(0.0)
        for tri_id, iso in surface.chart_to_root.items()
    }
    return ParallelVerdict(True, field=LineField(angles))


def line_field_residual(surface: FlatSurface, field: LineField) -> float:
    """Worst gluing-compatibility error of a line field, in radians mod pi.

    Raises ValueError if the field misses a triangle or has a non-finite
    angle, since such a field cannot be checked.
    """
    for t in surface.triangles:
        if not math.isfinite(field.angles.get(t.id, math.nan)):
            raise ValueError(f"line field has no finite angle in triangle {t.id}")
    worst = 0.0
    for gi, g in enumerate(surface.gluings):
        mapped = surface.transitions[gi].apply_line_angle(field.angle_in(g.a.tri))
        worst = max(
            worst, angle_distance_mod(mapped, field.angle_in(g.b.tri), math.pi)
        )
    return worst


def curvature_test(
    surface: FlatSurface, tol: float = ANGLE_TOL
) -> tuple[bool, list[VertexClass]]:
    """Check every vertex curvature against integer multiples of pi."""
    offending = [
        v
        for v in surface.vertex_classes
        if angle_distance_mod(v.curvature, 0.0, math.pi) > tol
    ]
    return (not offending, offending)
