"""Intrinsic geometry of compact flat surfaces with cone points.

Surfaces are finitely many Euclidean triangles glued along edges; the
package traces strict geodesics, computes holonomy, classifies parallel
surfaces, detects proper self-intersections and estimates ray density.
"""

from .geometry import PlaneIsometry
from .surface import (
    EdgeRef,
    FlatSurface,
    Gluing,
    Triangle,
    VertexClass,
    build_surface,
    curvature,
    diameter_estimate,
    gauss_bonnet_check,
    orientability,
)
from .tracer import (
    GeodesicTrace,
    SurfacePoint,
    TangentDirection,
    locate,
    reverse_check,
    trace,
    truncate,
    unfold,
)
from .holonomy import (
    HolonomyElement,
    LineField,
    ParallelVerdict,
    curvature_test,
    holonomy_generators,
    is_parallel,
    loop_holonomy,
    transport_across,
    vertex_holonomy,
)
from .analysis import (
    DensityReport,
    IntersectionEvent,
    SegmentPair,
    closed_geodesic_detect,
    coface_angle_spectrum,
    density_estimate,
    direction_scan,
    lap_criterion,
    self_intersections,
)

__version__ = "0.1.0"
