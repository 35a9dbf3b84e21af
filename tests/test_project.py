"""Project-level checks: the README's example runs as written, the
library imports nothing beyond the standard library and numpy, and the
package's public names are pinned."""
import ast
import contextlib
import io
import re
import sys
import types
from pathlib import Path

import flatgeo

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_prints_its_stated_values():
    readme = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split() == ["2.23606797749979", "0.225"]


def test_library_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "flatgeo"}
    for path in sorted((ROOT / "src" / "flatgeo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


# Removing or adding a public name must be a deliberate edit of this list.
PUBLIC_NAMES = [
    "DensityReport", "EdgeRef", "FlatSurface", "GeodesicTrace", "Gluing", "HolonomyElement",
    "IntersectionEvent", "ParallelVerdict", "PlaneIsometry", "SegmentPair", "SurfacePoint",
    "TangentDirection", "Triangle", "VertexClass", "build_surface", "closed_geodesic_detect",
    "coface_angle_spectrum", "curvature_test", "density_estimate", "diameter_estimate",
    "direction_scan", "gauss_bonnet_check", "holonomy_generators", "is_parallel", "lap_criterion",
    "locate", "loop_holonomy", "reverse_check", "self_intersections", "trace", "transport_across",
    "truncate", "unfold", "vertex_holonomy",
]


def test_public_api_names():
    # Submodules are attributes once imported anywhere, so they are left out.
    names = sorted(
        n for n, v in vars(flatgeo).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
