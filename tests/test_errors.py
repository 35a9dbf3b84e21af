"""The two argument checks of the public entry points, ``int_arg`` and
``float_arg``: a bool is no number, a numpy number is one, and a
non-finite or out-of-range value raises ValueError naming the argument."""
import re

import numpy as np
import pytest

from flatgeo.analysis import density_estimate, direction_scan
from flatgeo.builders import flat_torus
from flatgeo.errors import float_arg, int_arg
from flatgeo.surface import build_surface
from flatgeo.tracer import SurfacePoint, TangentDirection, trace

START = TangentDirection(SurfacePoint(0, (0.4, 0.25)), (1.0, 0.0))

# Each call was once accepted, with True read as 1; and a trace's length
# was the int it was asked for.
BOOL_ARGUMENT_CASES = {
    "trace-max-length": lambda s, tr: trace(s, START, True),
    "trace-vertex-clearance": lambda s, tr: trace(s, START, 1.0, vertex_clearance=True),
    "trace-start-triangle": lambda s, tr: trace(s, TangentDirection(SurfacePoint(True, (0.25, 0.6)), (1.0, 0.0)), 1.0),
    "density-epsilon": lambda s, tr: density_estimate(s, tr, True, 100, 1),
    "density-seed": lambda s, tr: density_estimate(s, tr, 0.05, 100, True),
    "scan-seed": lambda s, tr: direction_scan(s, START.at, 1, 1.0, 0.05, seed=True),
    "scan-length": lambda s, tr: direction_scan(s, START.at, 1, True, 0.05, seed=0),
    "build-tolerance": lambda s, tr: build_surface(s.triangles, s.gluings, True),
}


@pytest.mark.parametrize("case", BOOL_ARGUMENT_CASES)
def test_a_bool_is_no_number_argument(case):
    s = flat_torus((1.0, 0.0), (0.0, 1.0))
    tr = trace(s, START, 5)
    assert type(tr.length) is float and tr.chords.tobytes() == trace(s, START, 5.0).chords.tobytes()
    with pytest.raises(ValueError, match="got True$"):
        BOOL_ARGUMENT_CASES[case](s, tr)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
def test_int_arg_accepts_numpy_integers(value):
    assert type(int_arg("k", value, 1, 3)) is int and int_arg("k", value) == 3


@pytest.mark.parametrize(
    "value, lo, hi, message",
    [
        (True, None, None, "k must be an integer, got True"),
        (np.True_, None, None, "k must be an integer, got True"),
        (1.0, None, None, "k must be an integer, got 1.0"),
        ("1", None, None, "k must be an integer, got 1"),
        (-1, 0, None, "k must be a non-negative integer, got -1"),
        (0, 1, None, "k must be a positive integer, got 0"),
        (np.int64(4), 0, 3, "k must be an integer between 0 and 3, got 4"),
    ],
)
def test_int_arg_names_what_it_rejects(value, lo, hi, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        int_arg("k", value, lo, hi)


@pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), 2.0, 10**300])
def test_float_arg_accepts_finite_reals(value):
    assert type(float_arg("x", value)) is float and float_arg("x", value) == float(value)


@pytest.mark.parametrize(
    "value, least, message",
    [
        (True, None, "x must be positive and finite, got True"),
        (0.0, None, "x must be positive and finite, got 0.0"),
        (float("nan"), None, "x must be positive and finite, got nan"),
        (float("inf"), None, "x must be positive and finite, got inf"),
        (10**400, None, "x must be positive and finite, got 1" + "0" * 400),
        (np.float64("-inf"), 0.5, "x must be at least 0.5 and finite, got -inf"),
        (0.25, 0.5, "x must be at least 0.5 and finite, got 0.25"),
        ("1.0", None, "x must be positive and finite, got 1.0"),
    ],
)
def test_float_arg_names_what_it_rejects(value, least, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        float_arg("x", value, least)


def test_float_arg_bound_is_closed():
    assert float_arg("x", 0.5, 0.5) == 0.5
