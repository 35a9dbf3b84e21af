"""Deterministic SVG renderings of surfaces and unfolded traces.

SVG output is plain text with fixed float formatting, so renders of the
same input compare equal byte-for-byte.
"""
from __future__ import annotations

import math

from .surface import FlatSurface
from .tracer import GeodesicTrace, unfold

WIDTH = 800
HEIGHT = 600
# Stroke widths are in percent of the drawing's scale.
STROKE_WIDTH = 1.0
TRACE_STROKE_WIDTH = 1.5
EDGE_COLOR = "#555555"
TRACE_COLOR = "#c0392b"
CONE_COLOR = "#8e44ad"
FLAT_VERTEX_COLOR = "#95a5a6"
FACE_FILLS = ("#dce8f5", "#f5e8dc", "#e2f0dc", "#f3e0ee", "#e9e3f7", "#f7f3d9")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class _Canvas:
    def __init__(self):
        self.items: list[str] = []
        self.min_x = math.inf
        self.min_y = math.inf
        self.max_x = -math.inf
        self.max_y = -math.inf

    def see(self, pts):
        for x, y in pts:
            self.min_x = min(self.min_x, x)
            self.max_x = max(self.max_x, x)
            self.min_y = min(self.min_y, y)
            self.max_y = max(self.max_y, y)

    def polygon(self, pts, fill, stroke, width):
        self.see(pts)
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)
        self.items.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" stroke-linejoin="round"/>'
        )

    def line(self, a, b, color, width):
        self.see([a, b])
        self.items.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(-a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(-b[1])}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}" stroke-linecap="round"/>'
        )

    def circle(self, c, r, color):
        self.see([c])
        self.items.append(
            f'<circle cx="{_fmt(c[0])}" cy="{_fmt(-c[1])}" r="{_fmt(r)}" fill="{color}"/>'
        )

    def to_svg(self) -> str:
        pad = 0.05 * max(self.max_x - self.min_x, self.max_y - self.min_y, 1e-9)
        x0 = self.min_x - pad
        y0 = -self.max_y - pad
        w = (self.max_x - self.min_x) + 2 * pad
        h = (self.max_y - self.min_y) + 2 * pad
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">'
        )
        return head + "\n" + "\n".join(self.items) + "\n</svg>\n"


def render_surface(surface: FlatSurface) -> str:
    """Draw every chart, laid out on a grid, with cone points marked."""
    canvas = _Canvas()
    n = len(surface.triangles)
    cols = max(1, int(math.ceil(math.sqrt(n))))
    cell = 0.0
    for t in surface.triangles:
        xs = [c[0] for c in t.corners]
        ys = [c[1] for c in t.corners]
        cell = max(cell, max(xs) - min(xs), max(ys) - min(ys))
    cell *= 1.3
    stroke = STROKE_WIDTH * cell / 100.0
    for i, t in enumerate(surface.triangles):
        ox = (i % cols) * cell
        oy = -(i // cols) * cell
        xs = [c[0] for c in t.corners]
        ys = [c[1] for c in t.corners]
        shift = (ox - min(xs), oy - min(ys))
        pts = [(c[0] + shift[0], c[1] + shift[1]) for c in t.corners]
        canvas.polygon(pts, FACE_FILLS[i % len(FACE_FILLS)], EDGE_COLOR, stroke)
        for k, pt in enumerate(pts):
            v = surface.vertex_of(t.id, k)
            color = CONE_COLOR if v.is_cone else FLAT_VERTEX_COLOR
            canvas.circle(pt, 2.2 * stroke, color)
    return canvas.to_svg()


def render_unfolded(surface: FlatSurface, trace_: GeodesicTrace) -> str:
    """Draw the developed triangle chain with the trace as one straight segment."""
    canvas = _Canvas()
    placements, start, end = unfold(surface, trace_)
    scale = max(t.edge_length(k) for t in surface.triangles for k in range(3))
    stroke = STROKE_WIDTH * scale / 100.0
    for i, (tri_id, iso) in enumerate(placements):
        t = surface.triangle(tri_id)
        pts = [iso.apply(c) for c in t.corners]
        canvas.polygon(pts, FACE_FILLS[i % len(FACE_FILLS)], EDGE_COLOR, stroke)
    canvas.line(start, end, TRACE_COLOR, TRACE_STROKE_WIDTH * scale / 100.0)
    canvas.circle(start, 2.5 * stroke, TRACE_COLOR)
    return canvas.to_svg()
