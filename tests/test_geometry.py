import math

import numpy as np
import pytest

from flatgeo.geometry import (
    PlaneIsometry,
    angle_distance_mod,
    fold_to_half_turn,
    point_segment_distance,
    segments_intersect,
    unsigned_angle,
    wrap_angle,
)


def random_isometry(rng):
    return PlaneIsometry(
        bool(rng.integers(0, 2)),
        float(rng.uniform(0, 2 * math.pi)),
        float(rng.normal()),
        float(rng.normal()),
    )


def as_matrix(iso):
    m = iso.matrix()
    return np.array([[m[0], m[1]], [m[2], m[3]]]), np.array([m[4], m[5]])


def test_matrix_orthogonal():
    rng = np.random.default_rng(1)
    for _ in range(200):
        A, _t = as_matrix(random_isometry(rng))
        assert np.allclose(A @ A.T, np.eye(2), atol=1e-12)


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(2)
    for _ in range(300):
        f, g = random_isometry(rng), random_isometry(rng)
        A, ta = as_matrix(f)
        B, tb = as_matrix(g)
        C, tc = as_matrix(f.compose(g))
        assert np.allclose(C, A @ B, atol=1e-12)
        assert np.allclose(tc, A @ tb + ta, atol=1e-12)


def test_inverse_and_identity():
    rng = np.random.default_rng(3)
    for _ in range(300):
        f = random_isometry(rng)
        assert f.compose(f.inverse()).is_identity()
        assert f.inverse().compose(f).is_identity()
        p = (float(rng.normal()), float(rng.normal()))
        q = f.apply(p)
        back = f.inverse().apply(q)
        assert math.dist(p, back) < 1e-12


def test_from_point_pairs_both_kinds():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p0 = (float(rng.normal()), float(rng.normal()))
        d = rng.normal(size=2)
        p1 = (p0[0] + d[0], p0[1] + d[1])
        rot = float(rng.uniform(0, 2 * math.pi))
        q0 = (float(rng.normal()), float(rng.normal()))
        for reflect in (False, True):
            base = PlaneIsometry(reflect, rot, q0[0], q0[1])
            q0i, q1i = base.apply(p0), base.apply(p1)
            rec = PlaneIsometry.from_point_pairs(p0, p1, q0i, q1i, reflect)
            assert rec.reflect == reflect
            assert math.dist(rec.apply(p0), q0i) < 1e-9
            assert math.dist(rec.apply(p1), q1i) < 1e-9


def test_line_angle_action():
    iso = PlaneIsometry(False, 0.7, 0.0, 0.0)
    assert abs(iso.apply_line_angle(0.2) - 0.9) < 1e-12
    refl = PlaneIsometry(True, 1.0, 0.0, 0.0)
    # reflection across the line at angle 0.5 maps line angle t to 1.0 - t
    assert abs(refl.apply_line_angle(0.3) - 0.7) < 1e-12


def test_angle_helpers():
    assert wrap_angle(-0.1) == pytest.approx(2 * math.pi - 0.1)
    assert angle_distance_mod(0.05, 2 * math.pi - 0.05, 2 * math.pi) == pytest.approx(0.1)
    assert fold_to_half_turn(3 * math.pi / 2) == pytest.approx(math.pi / 2)
    assert unsigned_angle((1, 0), (0, 2)) == pytest.approx(math.pi / 2)


def test_segment_primitives():
    assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == pytest.approx(1.0)
    assert point_segment_distance((3, 0), (-1, 0), (1, 0)) == pytest.approx(2.0)
    assert segments_intersect((0, 0), (1, 1), (0, 1), (1, 0))
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    # collinear overlap counts as intersecting
    assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))
