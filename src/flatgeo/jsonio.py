"""JSON serialization for surfaces, traces and verdicts.

Numbers are written with 17 significant digits so that emitting and
re-reading a surface is bit-exact and catalog files are byte-identical
across runs.  The writers build the JSON text directly: the stdlib
encoder would use shortest-repr floats.
"""
from __future__ import annotations

import json
import math

from .errors import MalformedSurface, MalformedTrace
from .geometry import METRIC_TOL
from .surface import EdgeRef, FlatSurface, Gluing, Triangle, build_surface
from .tracer import (
    LEFT_DOMAIN,
    LENGTH_REACHED,
    VERTEX_HIT,
    GeodesicTrace,
    SurfacePoint,
    TangentDirection,
    Termination,
)


def _num(x: float) -> str:
    if x != x or math.isinf(x):  # NaN/inf have no JSON literal
        raise ValueError(f"cannot serialize {x!r}")
    if x == 0.0:
        x = 0.0  # drop the sign of negative zero; json reads -0 as int
    return f"{x:.17g}"


def surface_to_json(surface: FlatSurface) -> str:
    parts = ['{"triangles": [']
    tris = []
    for t in surface.triangles:
        cs = ", ".join(f"[{_num(x)}, {_num(y)}]" for x, y in t.corners)
        tris.append(f'{{"id": {t.id}, "corners": [{cs}]}}')
    parts.append(", ".join(tris))
    parts.append('], "gluings": [')
    gls = []
    for g in surface.gluings:
        rev = "true" if g.reversed else "false"
        gls.append(
            f'{{"a": [{g.a.tri}, {g.a.edge}], "b": [{g.b.tri}, {g.b.edge}], "reversed": {rev}}}'
        )
    parts.append(", ".join(gls))
    parts.append("]}")
    return "".join(parts) + "\n"


def _typed(value, kind: type, what: str):
    # bool is an int subclass, but true is no id or number, and 1 no flag.
    if type(value) is not kind and (kind, type(value)) != (float, int):
        raise TypeError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return kind(value)


def surface_from_json(text: str, tol: float = METRIC_TOL) -> FlatSurface:
    """Parse a surface file and build it.

    Raises MalformedSurface when the text is not JSON of the surface
    shape: missing keys, wrong types, a triangle without three corners of
    two numbers, a gluing side that is not a pair, a ``reversed`` flag that
    is not a boolean, or nesting too deep to parse.  Ids and edges that are
    not integers, and geometric faults, raise the errors of ``build_surface``.
    """
    try:
        data = json.loads(text)
        triangles = []
        for t in data["triangles"]:
            a, b, c = t["corners"]
            corners = tuple((_typed(x, float, "corner"), _typed(y, float, "corner")) for x, y in (a, b, c))
            triangles.append(Triangle(t["id"], corners))
        gluings = [
            Gluing(EdgeRef(*g["a"]), EdgeRef(*g["b"]), _typed(g.get("reversed", False), bool, "reversed"))
            for g in data["gluings"]
        ]
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError) as e:
        raise MalformedSurface(f"malformed surface JSON: {e!r}") from e
    return build_surface(triangles, gluings, tol)


def _termination_str(term: Termination) -> str:
    """The kind, then a vertex hit's vertex and parameter or a left-domain message."""
    if term.kind == VERTEX_HIT:
        return f"{term.kind}:{term.vertex}:{_num(term.parameter)}"
    if term.kind == LEFT_DOMAIN:
        return f"{term.kind}:{term.message or ''}"
    return term.kind


def _termination_parse(s: str) -> Termination:
    kind, colon, rest = s.partition(":")
    if s == LENGTH_REACHED:
        return Termination(LENGTH_REACHED)
    if colon and kind == VERTEX_HIT:
        vc, par = rest.split(":", 1)
        parameter = float(par)
        if not math.isfinite(parameter):
            raise ValueError(f"non-finite hit parameter {par!r}")
        return Termination(VERTEX_HIT, vertex=int(vc), parameter=parameter)
    if colon and kind == LEFT_DOMAIN:
        return Termination(LEFT_DOMAIN, message=rest)
    raise ValueError(f"unknown termination {s!r}")


def trace_to_json(trace_: GeodesicTrace, extra: dict[str, float | None] | None = None) -> str:
    segs = [
        f'{{"tri": {int(tri)}, "in": [{_num(ex)}, {_num(ey)}], "out": [{_num(ox)}, {_num(oy)}]}}'
        for tri, ex, ey, ox, oy, *_rest in trace_._chord_values()
    ]
    body = (
        '{"segments": ['
        + ", ".join(segs)
        + f'], "length": {_num(trace_.length)}, "termination": "{_termination_str(trace_.termination)}"'
    )
    for k, v in (extra or {}).items():
        body += f', "{k}": {"null" if v is None else _num(v)}'
    return body + "}\n"


def trace_from_json(text: str) -> GeodesicTrace:
    """Rebuild a trace from its JSON form.

    Directions and arc parameters are recomputed from the segment
    endpoints; zero-length segments reuse the previous direction.  Raises
    MalformedTrace for text that is not JSON of this shape, a triangle id
    beyond 2**53 (chords hold ids as float64), a chord value that is not
    finite, a negative or non-finite length, or a non-finite hit parameter.
    """
    try:
        data = json.loads(text)
        rows: list[float] = []
        t0 = 0.0
        d = (1.0, 0.0)
        for s in data["segments"]:
            ex, ey = (_typed(v, float, "segment entry") for v in s["in"])
            ox, oy = (_typed(v, float, "segment exit") for v in s["out"])
            dx, dy = ox - ex, oy - ey
            ln = math.hypot(dx, dy)
            if ln > 0:
                d = (dx / ln, dy / ln)
            tri = _typed(s["tri"], int, "segment triangle")
            if not abs(tri) <= 2**53:
                raise ValueError(f"segment triangle {tri} is beyond 2**53")
            rows += (tri, ex, ey, ox, oy, *d, t0, ln, -1)
            t0 += ln
        term = _termination_parse(data["termination"])
        length = _typed(data["length"], float, "length")
        if not rows:
            raise ValueError("trace JSON has no segments")
        if not all(map(math.isfinite, rows)):
            raise ValueError("trace JSON has a chord value that is not finite")
        if not 0.0 <= length < math.inf:
            raise ValueError(f"trace length {length!r} is negative or not finite")
        start = TangentDirection(SurfacePoint(rows[0], (rows[1], rows[2])), (rows[5], rows[6]))
        return GeodesicTrace(start, length, term, rows)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError) as e:
        raise MalformedTrace(f"malformed trace JSON: {e!r}") from e


def manifest_entry(surface: FlatSurface, name: str, filename: str, parallel: bool) -> dict:
    return {
        "name": name,
        "file": filename,
        "euler_characteristic": surface.euler_characteristic,
        "orientable": surface.orientable,
        "curvatures": [f"{v.curvature:.17g}" for v in sorted(surface.vertex_classes, key=lambda v: v.curvature)],
        "parallel": parallel,
    }


def manifest_to_json(entries: list[dict]) -> str:
    return json.dumps({"surfaces": entries}, indent=2, sort_keys=False) + "\n"
