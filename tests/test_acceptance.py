"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS lines as they happen).  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""
import json
import math
import time

import numpy as np

from conftest import edge_midpoint_tangent, incenter_point

from flatgeo.analysis import (
    coface_angle_spectrum,
    density_estimate,
    direction_scan,
    self_intersections,
)
from flatgeo.builders import (
    CATALOG_PARALLEL,
    cube_face_partition,
    double_of_polygon,
    example1_surface,
    random_rectilinear_polygon,
    random_star_polygon,
)
from flatgeo.cli import main
from flatgeo.geometry import TWO_PI, angle_distance_mod
from flatgeo.holonomy import is_parallel, vertex_holonomy
from flatgeo.jsonio import surface_to_json, trace_from_json
from flatgeo.surface import diameter_estimate, gauss_bonnet_check
from flatgeo.tracer import LENGTH_REACHED, SurfacePoint, TangentDirection, reverse_check, trace, truncate

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS  {text}")


def test_criterion_01_example1_closed_geodesics(tmp_path, capsys):
    surface, info = example1_surface()
    path = tmp_path / "example1.json"
    path.write_text(surface_to_json(surface))
    a = info["start_xy"][0]
    for n in range(1, 6):
        t0 = time.perf_counter()
        code = main(
            [
                "trace", str(path),
                "--tri", str(info["start_tri"]),
                "--x", f"{a!r}", "--y", "0.0",
                "--angle", str(math.atan2(1.0, 1.0 / n)),
                "--length", "25.0",
            ]
        )
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        expected = 2 * n * math.sqrt(1.0 + 1.0 / n**2)
        assert data["closed_period"] is not None
        assert abs(data["closed_period"] - expected) < 1e-6, f"n={n}"
        tr = trace_from_json(out)
        assert self_intersections(surface, tr) is None
        visited = {seg["tri"] for seg in data["segments"]}
        assert not (visited & set(info["patch_ids"]))
        assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"
    with capsys.disabled():
        _report(1, "closed geodesics of length 2n*sqrt(1+1/n^2), n=1..5, simple, patch untouched")


def test_criterion_02_classification_matrix(catalog_surfaces, capsys):
    t0 = time.perf_counter()
    for name, surface in catalog_surfaces.items():
        assert is_parallel(surface).parallel == CATALOG_PARALLEL[name], name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        _report(2, f"parallel classification matrix exact on all 10 surfaces ({elapsed:.2f}s)")


def _random_doubles(seed, count):
    rng = np.random.default_rng(seed)
    return [double_of_polygon(random_star_polygon(rng)) for _ in range(count)]


def test_criterion_03_parallel_implies_zpi(catalog_surfaces, capsys):
    surfaces = list(catalog_surfaces.values()) + _random_doubles(101, 100)
    violations = 0
    for s in surfaces:
        if is_parallel(s).parallel:
            for v in s.vertex_classes:
                if angle_distance_mod(v.curvature, 0.0, math.pi) > 1e-9:
                    violations += 1
    assert violations == 0
    with capsys.disabled():
        _report(3, "every Parallel verdict has curvatures in Z*pi (catalog + 100 random doubles)")


def test_criterion_04_sphere_converse(capsys):
    rng = np.random.default_rng(202)
    for _ in range(100):
        s = double_of_polygon(random_rectilinear_polygon(rng))
        assert s.euler_characteristic == 2
        for v in s.vertex_classes:
            assert abs(abs(v.curvature) - math.pi) < 1e-9
        assert is_parallel(s).parallel
    with capsys.disabled():
        _report(4, "100 random rectilinear doubles all classify Parallel")


def test_criterion_05_strict_geodesics_simple_on_parallel(catalog_surfaces, capsys):
    lines = []
    for name, surface in catalog_surfaces.items():
        if not CATALOG_PARALLEL[name]:
            continue
        length = 100.0 * diameter_estimate(surface)
        start = incenter_point(surface)
        t0 = time.perf_counter()
        result = direction_scan(surface, start, 1000, length, 0.05, seed=424242)
        elapsed = time.perf_counter() - t0
        counts = result.counts()
        assert counts.get("self_intersecting", 0) == 0, name
        assert counts.get("left_domain", 0) == 0, name
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        lines.append(f"{name}: {counts.get('simple', 0)}/1000 simple, {elapsed:.1f}s")
    with capsys.disabled():
        _report(5, "zero self-intersections in 1000-direction scans; " + "; ".join(lines))


def test_criterion_06_lap_criterion_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    need = 100_000
    m1 = m2 = a1 = a2 = half = None
    collected = []
    while sum(len(c[0]) for c in collected) < need:
        k = 400_000
        M1 = rng.uniform(-2, 2, (k, 2))
        M2 = rng.uniform(-2, 2, (k, 2))
        A1 = rng.uniform(0, TWO_PI, k)
        A2 = rng.uniform(0, TWO_PI, k)
        H = rng.uniform(0.05, 3.0, k)
        D = np.linalg.norm(M2 - M1, axis=1)
        base = np.arctan2(M2[:, 1] - M1[:, 1], M2[:, 0] - M1[:, 0])
        U1 = np.stack([np.cos(base + A1), np.sin(base + A1)], axis=1)
        U2 = np.stack([np.cos(base + A2), np.sin(base + A2)], axis=1)
        E1 = M1 - H[:, None] * U1  # first endpoints
        E2 = M2 - H[:, None] * U2
        W = M2 - M1
        s1 = W[:, 0] * (E1[:, 1] - M1[:, 1]) - W[:, 1] * (E1[:, 0] - M1[:, 0])
        s2 = W[:, 0] * (E2[:, 1] - M1[:, 1]) - W[:, 1] * (E2[:, 0] - M1[:, 0])
        lhs = D * np.maximum(np.abs(np.sin(A1)), np.abs(np.sin(A2)))
        rhs = H * np.abs(np.sin(A2 - A1))
        keep = (D > 1e-3) & (s1 * s2 > 0) & (np.abs(lhs - rhs) > 1e-6)
        collected.append(
            (lhs[keep] <= rhs[keep], M1[keep], M2[keep], U1[keep], U2[keep], H[keep])
        )
    crit = np.concatenate([c[0] for c in collected])[:need]
    M1 = np.concatenate([c[1] for c in collected])[:need]
    M2 = np.concatenate([c[2] for c in collected])[:need]
    U1 = np.concatenate([c[3] for c in collected])[:need]
    U2 = np.concatenate([c[4] for c in collected])[:need]
    H = np.concatenate([c[5] for c in collected])[:need]

    # independent oracle: orientation-sign segment intersection
    P1 = M1 - H[:, None] * U1
    Q1 = M1 + H[:, None] * U1
    P2 = M2 - H[:, None] * U2
    Q2 = M2 + H[:, None] * U2

    def orient(a, b, c):
        return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            c[:, 0] - a[:, 0]
        )

    o1 = orient(P1, Q1, P2)
    o2 = orient(P1, Q1, Q2)
    o3 = orient(P2, Q2, P1)
    o4 = orient(P2, Q2, Q1)
    brute = (o1 * o2 < 0) & (o3 * o4 < 0)
    agree = int(np.count_nonzero(crit == brute))
    elapsed = time.perf_counter() - t0
    assert agree == need, f"{need - agree} disagreements"
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    with capsys.disabled():
        _report(6, f"criterion agrees with brute-force on {need} conforming pairs ({elapsed:.2f}s)")


def test_criterion_07_density(catalog_surfaces, capsys):
    t0 = time.perf_counter()
    tet = catalog_surfaces["regular-tetrahedron"]
    mid, d = edge_midpoint_tangent(tet, 0, 0, math.atan(1.0 / 7.0))
    tr = trace(tet, TangentDirection(SurfacePoint(0, mid), d), 400.0)
    assert tr.termination.kind == LENGTH_REACHED
    fractions = [
        density_estimate(tet, truncate(tr, L), 0.05, 2000, seed=7).covered_fraction
        for L in (50.0, 100.0, 200.0, 400.0)
    ]
    assert fractions == sorted(fractions)
    assert fractions[-1] >= 0.99

    torus = catalog_surfaces["unit-torus"]
    dg = (1.0 / math.hypot(1, GOLDEN), GOLDEN / math.hypot(1, GOLDEN))
    trg = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.25)), dg), 500.0)
    golden = density_estimate(torus, trg, 0.05, 2000, seed=7).covered_fraction
    assert golden >= 0.99

    tr0 = trace(torus, TangentDirection(SurfacePoint(0, (0.5, 0.5)), (1.0, 0.0)), 500.0)
    strip_area = 2 * 0.05  # exact covered area for the slope-0 line
    for L in (50.0, 100.0, 200.0, 500.0):
        f = density_estimate(torus, truncate(tr0, L), 0.05, 2000, seed=7).covered_fraction
        assert f <= 0.25
        assert abs(f - strip_area) < 0.03
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _report(
            7,
            f"density: tet {[round(f, 4) for f in fractions]}, golden {golden:.4f}, "
            f"slope-0 pegged to strip area ({elapsed:.1f}s)",
        )


def test_criterion_08_vertex_holonomy(catalog_surfaces, capsys):
    for name, s in catalog_surfaces.items():
        for v in s.vertex_classes:
            h = vertex_holonomy(s, v)
            assert not h.reflect, name
            assert angle_distance_mod(h.angle, -v.curvature, TWO_PI) <= 1e-9, name
    with capsys.disabled():
        _report(8, "vertex holonomy = rotation by -curvature (mod 2*pi) on every catalog vertex")


def test_criterion_09_gauss_bonnet(catalog_surfaces, capsys):
    surfaces = list(catalog_surfaces.values()) + _random_doubles(303, 50)
    rng = np.random.default_rng(304)
    surfaces += [double_of_polygon(random_rectilinear_polygon(rng)) for _ in range(50)]
    for s in surfaces:
        assert gauss_bonnet_check(s) < 1e-9
    with capsys.disabled():
        _report(9, f"Gauss-Bonnet residual < 1e-9 on {len(surfaces)} surfaces")


def test_criterion_10_angle_spectrum(catalog_surfaces, capsys):
    cube = catalog_surfaces["cube"]
    tr = trace(
        cube, TangentDirection(SurfacePoint(0, (0.5, 0.3)), (math.cos(0.3), math.sin(0.3))), 100.0
    )
    rep = coface_angle_spectrum(cube, tr, cube_face_partition())
    assert rep.all_matched
    for a in rep.angles:
        assert min(abs(a), abs(a - math.pi / 2), abs(a - math.pi)) <= 1e-6

    tet = catalog_surfaces["regular-tetrahedron"]
    mid, d = edge_midpoint_tangent(tet, 0, 0, math.atan(1.0 / 7.0))
    trt = trace(tet, TangentDirection(SurfacePoint(0, mid), d), 100.0)
    rept = coface_angle_spectrum(tet, trt, [[0], [1], [2], [3]])
    assert rept.all_matched
    for a in rept.angles:
        assert min(abs(a), abs(a - math.pi)) <= 1e-6
    with capsys.disabled():
        _report(10, f"co-face angles: cube in k*pi/2 ({len(rep.angles)} pairs), tet in k*pi ({len(rept.angles)} pairs)")


def test_criterion_11_reversibility(catalog_surfaces, capsys):
    worst = 0.0
    for name, surface in catalog_surfaces.items():
        rng = np.random.default_rng(515151)
        start = incenter_point(surface)
        for _ in range(100):
            ang = float(rng.uniform(0.0, TWO_PI))
            r = reverse_check(
                surface, TangentDirection(start, (math.cos(ang), math.sin(ang))), 100.0
            )
            assert r < 1e-6, f"{name}: residual {r:.2e}"
            worst = max(worst, r)
    with capsys.disabled():
        _report(11, f"round-trip residual < 1e-6 at L=100, 100 directions x 10 surfaces (worst {worst:.1e})")
