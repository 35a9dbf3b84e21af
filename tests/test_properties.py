"""Property tests of the gluing walks and of self-intersection events.

Surfaces for the walks are doubles of random star-shaped and rectilinear
polygons (drawn from a hypothesis-chosen seed) and the square
identifications of ``example2_candidates``, which include non-orientable
surfaces.  Events are drawn from random directions on the catalog's
two-direction-class surfaces.  The runs are derandomized, so the suite
sees the same examples every time.
"""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import incenter_point

from flatgeo.analysis import EVENT_MERGE_TOL, _merge_mask, self_intersections
from flatgeo.builders import (
    double_of_polygon,
    example2_candidates,
    random_rectilinear_polygon,
    random_star_polygon,
    square_identification_surface,
)
from flatgeo.geometry import TWO_PI, angle_distance_mod
from flatgeo.holonomy import holonomy_generators, loop_holonomy, vertex_holonomy
from flatgeo.jsonio import surface_from_json, surface_to_json
from flatgeo.surface import gauss_bonnet_check
from flatgeo.tracer import TangentDirection, trace

seeds = st.integers(min_value=0, max_value=2**32 - 1)
surfaces = st.one_of(
    seeds.map(lambda s: double_of_polygon(random_star_polygon(np.random.default_rng(s)))),
    seeds.map(lambda s: double_of_polygon(random_rectilinear_polygon(np.random.default_rng(s)))),
    st.sampled_from([pairing for _name, pairing in example2_candidates()]).map(
        square_identification_surface
    ),
)
walk_settings = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@walk_settings
@given(surfaces)
def test_gauss_bonnet_and_vertex_holonomy(s):
    assert gauss_bonnet_check(s) < 1e-9
    for v in s.vertex_classes:
        h = vertex_holonomy(s, v)
        assert not h.reflect
        assert angle_distance_mod(h.angle, -v.curvature, TWO_PI) < 1e-9


@walk_settings
@given(surfaces)
def test_json_round_trip_is_bit_exact(s):
    text = surface_to_json(s)
    back = surface_from_json(text)
    assert surface_to_json(back) == text
    assert [t.corners for t in back.triangles] == [t.corners for t in s.triangles]
    assert back.gluings == s.gluings


@walk_settings
@given(surfaces)
def test_generators_and_witness_replay(s):
    root = min(t.id for t in s.triangles)
    gens = holonomy_generators(s)
    assert len(gens) == len(s.gluings) - len(s.triangles) + 1
    for loop, elem in gens:
        replay = loop_holonomy(s, list(loop), root)
        assert replay.reflect == elem.reflect
        assert angle_distance_mod(replay.angle, elem.angle, TWO_PI) < 1e-9
    if s.orientable:
        assert s.orientation_witness is None
    else:
        assert loop_holonomy(s, s.orientation_witness, root).reflect


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.sampled_from(["cube", "ring-double"]), st.floats(0.0, TWO_PI, exclude_max=True))
def test_earliest_event_is_min_of_materialized_list(catalog_surfaces, name, angle):
    s = catalog_surfaces[name]
    tr = trace(s, TangentDirection(incenter_point(s), (math.cos(angle), math.sin(angle))), 80.0)
    assume(tr.termination.kind == "LengthReached")
    events = self_intersections(s, tr)
    assume(events)
    assert events.earliest() == min(list(events), key=lambda e: (e.t2, e.t1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40))
def test_merge_mask_matches_sequential_walk(steps):
    # Parameters on a grid of 0.6 tolerances chain into runs of close events.
    step = 0.6 * EVENT_MERGE_TOL
    events = sorted((1.0 + a * step, 2.0 + b * step) for a, b in steps)
    kept = []
    for t1, t2 in events:
        if not kept or max(abs(kept[-1][0] - t1), abs(kept[-1][1] - t2)) > EVENT_MERGE_TOL:
            kept.append((t1, t2))
    keep = _merge_mask(np.array([e[0] for e in events]), np.array([e[1] for e in events]))
    assert [e for e, k in zip(events, keep) if k] == kept
