"""Command-line front end.

Commands: validate, classify, trace, scan, catalog, render.
Exit codes: 0 success (or parallel verdict), 1 negative verdict,
2 input/validation error, 3 I/O error.  The environment variable
FLATGEO_TOLERANCE sets the metric tolerance of the surfaces a command
loads (default 1e-9); it must be positive and finite.

Chart convention: points are given as a triangle id plus (x, y) in that
triangle's own chart; there are no global coordinates.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import builders
from .analysis import closed_geodesic_detect, direction_scan
from .errors import FlatgeoError, MalformedSurface, float_arg
from .geometry import METRIC_TOL
from .holonomy import curvature_test, is_parallel
from .jsonio import manifest_entry, manifest_to_json, surface_from_json, surface_to_json, trace_to_json
from .render import render_surface, render_unfolded
from .surface import FlatSurface, gauss_bonnet_check
from .tracer import DEFAULT_VERTEX_CLEARANCE, SurfacePoint, TangentDirection, trace

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_IO = 3


def _load_surface(args) -> FlatSurface:
    try:
        with open(args.surface, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise MalformedSurface(f"surface file is not UTF-8: {e}") from e
    return surface_from_json(text, args.tolerance)


def _error_json(err: Exception) -> str:
    name = "IOError" if isinstance(err, OSError) else type(err).__name__
    return json.dumps({"error": name, "message": str(err)}) + "\n"


def cmd_validate(args) -> int:
    surface = _load_surface(args)
    report = {
        "valid": True,
        "triangles": len(surface.triangles),
        "gluings": len(surface.gluings),
        "euler_characteristic": surface.euler_characteristic,
        "orientable": surface.orientable,
        "curvatures": sorted(v.curvature for v in surface.vertex_classes),
        "cone_points": len(surface.cone_points()),
        "gauss_bonnet_residual": gauss_bonnet_check(surface),
        "area": surface.area(),
    }
    print(json.dumps(report))
    return EXIT_OK


def cmd_classify(args) -> int:
    surface = _load_surface(args)
    verdict = is_parallel(surface)
    out = verdict.to_json_dict()
    passed, offending = curvature_test(surface)
    out["curvatures_in_z_pi"] = passed
    out["offending_vertices"] = [v.index for v in offending]
    print(json.dumps(out))
    return EXIT_OK if verdict.parallel else EXIT_NEGATIVE


def _start_tangent(surface: FlatSurface, args) -> TangentDirection:
    if args.tri is None:
        tri = _area_median_triangle(surface)
        x, y = _incenter(surface, tri)
    else:
        tri = args.tri
        if args.x is None or args.y is None:
            raise FlatgeoError("--tri requires --x and --y")
        x, y = args.x, args.y
    d = (math.cos(args.angle), math.sin(args.angle))
    return TangentDirection(SurfacePoint(tri, (x, y)), d)


def _area_median_triangle(surface: FlatSurface) -> int:
    """Triangle holding the midpoint of cumulative area, in id order."""
    ordered = sorted(surface.triangles, key=lambda t: t.id)
    total = sum(t.signed_area() for t in ordered)
    acc = 0.0
    for t in ordered:
        acc += t.signed_area()
        if acc >= 0.5 * total:
            return t.id
    return ordered[-1].id


def _incenter(surface: FlatSurface, tri_id: int):
    t = surface.triangle(tri_id)
    a, b, c = t.corners
    la = math.dist(b, c)
    lb = math.dist(c, a)
    lc = math.dist(a, b)
    s = la + lb + lc
    return ((la * a[0] + lb * b[0] + lc * c[0]) / s, (la * a[1] + lb * b[1] + lc * c[1]) / s)


def cmd_trace(args) -> int:
    surface = _load_surface(args)
    start = _start_tangent(surface, args)
    tr = trace(surface, start, args.length, args.clearance)
    period = closed_geodesic_detect(surface, tr)
    print(trace_to_json(tr, extra={"closed_period": period}), end="")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_unfolded(surface, tr))
    return EXIT_OK


def cmd_scan(args) -> int:
    surface = _load_surface(args)
    start = _start_tangent(surface, args)
    result = direction_scan(
        surface,
        start.at,
        args.n,
        args.length,
        args.epsilon,
        args.seed,
        vertex_clearance=args.clearance,
    )
    counts = result.counts()
    print(json.dumps({"n": args.n, "length": args.length, "counts": counts}))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(result.to_csv())
    if args.rows:
        with open(args.rows, "w", encoding="utf-8") as fh:
            json.dump({"rows": result.to_json_rows()}, fh)
            fh.write("\n")
    return EXIT_OK


def cmd_catalog(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    entries = []
    for name, surface in builders.catalog():
        filename = f"{name}.json"
        with open(os.path.join(args.outdir, filename), "w", encoding="utf-8") as fh:
            fh.write(surface_to_json(surface))
        entries.append(manifest_entry(surface, name, filename, builders.CATALOG_PARALLEL[name]))
    with open(os.path.join(args.outdir, "MANIFEST.json"), "w", encoding="utf-8") as fh:
        fh.write(manifest_to_json(entries))
    print(json.dumps({"written": len(entries), "outdir": args.outdir}))
    return EXIT_OK


def cmd_render(args) -> int:
    surface = _load_surface(args)
    svg = render_surface(surface)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(json.dumps({"written": args.out}))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flatgeo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a surface file and print its invariants")
    v.add_argument("surface")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("classify", help="parallel / not-parallel verdict with witness")
    c.add_argument("surface")
    c.set_defaults(func=cmd_classify)

    t = sub.add_parser("trace", help="trace a strict geodesic")
    t.add_argument("surface")
    t.add_argument("--tri", type=int, default=None, help="start triangle id")
    t.add_argument("--x", type=float, default=None)
    t.add_argument("--y", type=float, default=None)
    t.add_argument("--angle", type=float, required=True, help="direction angle in the chart")
    t.add_argument("--length", type=float, required=True)
    t.add_argument("--clearance", type=float, default=DEFAULT_VERTEX_CLEARANCE)
    t.add_argument("--svg", default=None, help="write the unfolded development as SVG")
    t.set_defaults(func=cmd_trace)

    s = sub.add_parser("scan", help="classify many directions from one point")
    s.add_argument("surface")
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--length", type=float, required=True)
    s.add_argument("--epsilon", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tri", type=int, default=None)
    s.add_argument("--x", type=float, default=None)
    s.add_argument("--y", type=float, default=None)
    s.add_argument("--clearance", type=float, default=DEFAULT_VERTEX_CLEARANCE)
    s.add_argument("--csv", default=None)
    s.add_argument("--rows", default=None, help="write the scan table as JSON")
    s.set_defaults(func=cmd_scan, angle=0.0)

    k = sub.add_parser("catalog", help="write the builtin surface catalog and MANIFEST")
    k.add_argument("outdir")
    k.set_defaults(func=cmd_catalog)

    r = sub.add_parser("render", help="render all charts of a surface to SVG")
    r.add_argument("surface")
    r.add_argument("-o", "--out", required=True)
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    env_tol = os.environ.get("FLATGEO_TOLERANCE")
    try:
        tolerance = float_arg("FLATGEO_TOLERANCE", float(env_tol) if env_tol else METRIC_TOL)
    except ValueError:
        print(_error_json(ValueError(f"bad FLATGEO_TOLERANCE {env_tol!r}")), file=sys.stderr, end="")
        return EXIT_INPUT
    args = _build_parser().parse_args(argv)
    args.tolerance = tolerance
    try:
        return args.func(args)
    except OSError as e:
        print(_error_json(e), file=sys.stderr, end="")
        return EXIT_IO
    except (FlatgeoError, ValueError) as e:
        print(_error_json(e), file=sys.stderr, end="")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
