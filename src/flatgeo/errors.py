"""Exception types raised by surface construction, tracing and analysis."""


class FlatgeoError(Exception):
    """Base class for all flatgeo errors."""


class MalformedSurface(FlatgeoError):
    """Surface input is not of the surface shape: keys, types or ids."""


class MalformedTrace(FlatgeoError):
    """Trace input is not of the trace shape: keys, types or values."""


class DegenerateTriangle(FlatgeoError):
    """Triangle corners are collinear, coincident, or clockwise."""


class UnmatchedEdge(FlatgeoError):
    """An edge is glued zero times or more than once."""


class LengthMismatch(FlatgeoError):
    """Two glued edges differ in length beyond tolerance."""


class Disconnected(FlatgeoError):
    """The gluing graph does not connect all triangles."""


class PointOutsideTriangle(FlatgeoError):
    """A chart point does not lie in the stated triangle."""


class PointNotOnEdge(FlatgeoError):
    """A transport base point does not lie on the glued edge."""


class ParameterOutOfRange(FlatgeoError):
    """Arc-length parameter outside [0, trace.length]."""


class TraceIncomplete(FlatgeoError):
    """A trace terminated early where full length was required."""


class CoincidentMidpoints(FlatgeoError):
    """Segment-pair criterion needs distinct midpoints."""


class NotConvex(FlatgeoError):
    """Operation requires a sphere with all curvatures positive."""


class NotAcute(FlatgeoError):
    """Side lengths cannot form the required face triangle."""


class DegenerateLattice(FlatgeoError):
    """Torus spanning vectors are linearly dependent."""


class NonSimplePolygon(FlatgeoError):
    """Polygon is self-intersecting, clockwise, or degenerate."""


class PerimeterMismatch(FlatgeoError):
    """Patch perimeter does not equal twice the cut length."""


class CutThroughVertex(FlatgeoError):
    """Cut segment or its supporting line meets a triangle corner."""


class UnsupportedCut(FlatgeoError):
    """Cut does not satisfy the single-chart restrictions."""


class ArcLengthMismatch(FlatgeoError):
    """Paired boundary arcs differ in length."""


class UncoveredBoundary(FlatgeoError):
    """Boundary arcs do not partition the full square boundary."""
