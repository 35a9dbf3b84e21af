import math

import numpy as np
import pytest

from conftest import is_identity, segments_intersect

from flatgeo.geometry import (
    PlaneIsometry,
    angle_distance_mod,
    fold_to_half_turn,
    normalize,
    point_segment_distance,
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
        assert is_identity(f.compose(f.inverse()))
        assert is_identity(f.inverse().compose(f))
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


@pytest.mark.parametrize(
    "v", [(1e-320, 1e-320), (5e-324, 5e-324), (-5e-324, 0.0), (3e-310, -1e-311), (1.7e308, 1.7e308), (-1e308, 1.5e308)]
)
def test_normalize_returns_a_unit_vector_for_subnormal_and_overflowing_norms(v):
    # Before the rescale, (1e-320, 1e-320) gave (0.70720, 0.70720) and
    # (5e-324, 5e-324) gave (1.0, 1.0); (1.7e308, 1.7e308) gave (0.0, 0.0).
    u = normalize(v)
    assert abs(math.hypot(*u) - 1.0) <= 2 ** -52
    k = 2.0**600 if abs(v[0]) < 1.0 else 2.0**-600
    assert normalize((v[0] * k, v[1] * k)) == u  # the same bits as the rescaled vector


def test_normalize_keeps_the_bits_of_every_other_vector():
    rng = np.random.default_rng(5)
    for x, y in rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-300, 300, size=(200, 1)):
        n = math.hypot(x, y)
        assert normalize((x, y)) == (x / n, y / n)
    assert normalize((2.2250738585072014e-308, 0.0)) == (1.0, 0.0)  # the smallest normal norm
    with pytest.raises(ValueError):
        normalize((0.0, -0.0))
