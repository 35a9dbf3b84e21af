"""Exception types of flatgeo, and the argument checks of its entry points."""

import math
import numbers
import sys


def int_arg(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int if it is an integer (numpy integers too, a bool
    not) from ``lo`` to ``hi`` where given; else ValueError naming ``name``.
    Without ``hi``, ``lo`` is None, 0 or 1."""
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        if (lo is None or value >= lo) and (hi is None or value <= hi):
            return int(value)
    bounds = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
    bound = bounds[lo] if hi is None else f"an integer between {lo} and {hi}"
    raise ValueError(f"{name} must be {bound}, got {value}")


def float_arg(name: str, value, least: float | None = None) -> float:
    """``value`` as a float if it is a finite real (a bool is not one) that is
    positive, or at least ``least`` where given; else ValueError naming ``name``."""
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        x = float(value) if not isinstance(value, int) or abs(value) <= sys.float_info.max else math.inf
        if (0 < x if least is None else least <= x) and x < math.inf:
            return x
    bound = "positive" if least is None else f"at least {least}"
    raise ValueError(f"{name} must be {bound} and finite, got {value}")


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
