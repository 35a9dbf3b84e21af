"""Planar primitives and rigid isometries.

All charts use ordinary double precision. Each surface carries one
metric tolerance (``METRIC_TOL`` unless ``build_surface`` is given
another) that governs its validation and decides its cone points; exact
arithmetic is deliberately not used so tracing stays fast.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

Vec = tuple[float, float]

TWO_PI = 2.0 * math.pi

METRIC_TOL = 1e-9

_SMALLEST_NORMAL = sys.float_info.min
_LARGEST = sys.float_info.max


def cross(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


def normalize(v: Vec) -> Vec:
    """The unit vector along v.  A vector whose norm is subnormal or
    overflows is first scaled by an exact power of two, so the result is a
    unit vector to rounding; every other vector keeps its bits."""
    x, y = v
    n = math.hypot(x, y)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    if n < _SMALLEST_NORMAL or n > _LARGEST:
        k = 2.0**600 if n < 1.0 else 2.0**-600
        x, y = x * k, y * k
        n = math.hypot(x, y)
    return (x / n, y / n)


def wrap_angle(a: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:
        a = 0.0
    return a


def angle_distance_mod(a: float, b: float, period: float) -> float:
    """Smallest distance between angles a, b modulo period."""
    d = math.fmod(a - b, period)
    if d < 0.0:
        d += period
    return min(d, period - d)


def fold_to_half_turn(a: float) -> float:
    """Fold an angle modulo 2*pi into [0, pi]."""
    a = wrap_angle(a)
    return a if a <= math.pi else TWO_PI - a


def unsigned_angle(u: Vec, v: Vec) -> float:
    """Angle in [0, pi] between two nonzero vectors."""
    return math.atan2(abs(cross(u[0], u[1], v[0], v[1])), u[0] * v[0] + u[1] * v[1])


def point_segment_distance(p: Vec, a: Vec, b: Vec) -> float:
    ax, ay = a
    vx, vy = b[0] - ax, b[1] - ay
    wx, wy = p[0] - ax, p[1] - ay
    denom = vx * vx + vy * vy
    t = 0.0 if denom == 0.0 else max(0.0, min(1.0, (wx * vx + wy * vy) / denom))
    return math.hypot(wx - t * vx, wy - t * vy)


def polygon_area(points: list[Vec]) -> float:
    """Signed area, positive for counterclockwise boundaries."""
    s = 0.0
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


@dataclass(frozen=True)
class PlaneIsometry:
    """Rotation-or-reflection followed by a translation.

    The linear part is ``R(angle)`` for ``reflect=False`` and
    ``R(angle) @ diag(1, -1)`` for ``reflect=True`` (a reflection across the
    line at angle ``angle/2``).  Storing the linear part as (reflect, angle)
    keeps compositions exactly orthogonal.
    """

    reflect: bool
    angle: float
    tx: float
    ty: float

    @classmethod
    def identity(cls) -> "PlaneIsometry":
        return cls(False, 0.0, 0.0, 0.0)

    @classmethod
    def from_point_pairs(cls, p0: Vec, p1: Vec, q0: Vec, q1: Vec, reflect: bool) -> "PlaneIsometry":
        """Unique isometry of the given kind mapping p0 -> q0 and p1 -> q1.

        Requires |p1 - p0| == |q1 - q0| (not checked here).
        """
        fp = math.atan2(p1[1] - p0[1], p1[0] - p0[0])
        fq = math.atan2(q1[1] - q0[1], q1[0] - q0[0])
        angle = wrap_angle(fp + fq) if reflect else wrap_angle(fq - fp)
        iso = cls(reflect, angle, 0.0, 0.0)
        ix, iy = iso.apply_vector((p0[0], p0[1]))
        return cls(reflect, angle, q0[0] - ix, q0[1] - iy)

    def matrix(self) -> tuple[float, float, float, float, float, float]:
        """(m00, m01, m10, m11, tx, ty) with p' = M p + t."""
        c = math.cos(self.angle)
        s = math.sin(self.angle)
        if self.reflect:
            return (c, s, s, -c, self.tx, self.ty)
        return (c, -s, s, c, self.tx, self.ty)

    def apply(self, p: Vec) -> Vec:
        m00, m01, m10, m11, tx, ty = self.matrix()
        return (m00 * p[0] + m01 * p[1] + tx, m10 * p[0] + m11 * p[1] + ty)

    def apply_vector(self, v: Vec) -> Vec:
        m00, m01, m10, m11, _, _ = self.matrix()
        return (m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1])

    def apply_line_angle(self, phi: float) -> float:
        """Image of an unoriented line direction, modulo pi."""
        out = self.angle - phi if self.reflect else self.angle + phi
        return math.fmod(math.fmod(out, math.pi) + math.pi, math.pi)

    def compose(self, other: "PlaneIsometry") -> "PlaneIsometry":
        """self after other: (self.compose(other)).apply(p) == self.apply(other.apply(p))."""
        if self.reflect:
            angle = self.angle - other.angle
        else:
            angle = self.angle + other.angle
        tx, ty = self.apply((other.tx, other.ty))
        return PlaneIsometry(self.reflect != other.reflect, wrap_angle(angle), tx, ty)

    def inverse(self) -> "PlaneIsometry":
        angle = self.angle if self.reflect else -self.angle
        inv = PlaneIsometry(self.reflect, wrap_angle(angle), 0.0, 0.0)
        ix, iy = inv.apply_vector((self.tx, self.ty))
        return PlaneIsometry(self.reflect, wrap_angle(angle), -ix, -iy)
