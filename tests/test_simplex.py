"""Geometry and representation tests for simplex points."""
import math
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from simplexflow import simplex
from simplexflow.errors import NegativeCoordinate, SumOutOfTolerance

import oracles


def test_make_point_vertex():
    p = simplex.make_point(1, 0, 0)
    assert p.coords == (1.0, 0.0, 0.0)


def test_make_point_barycenter_renormalized():
    third = 1.0 / 3.0
    p = simplex.make_point(third, third, third)
    assert math.fsum(p.coords) == 1.0


def test_make_point_normalizes_within_tolerance():
    p = simplex.make_point(0.5, 0.3, 0.2000000001)
    assert abs(math.fsum(p.coords) - 1.0) <= 1e-15
    assert abs(p.coords[2] - 0.2) < 1e-9


def test_make_point_rejects_negative():
    with pytest.raises(NegativeCoordinate):
        simplex.make_point(-0.1, 0.6, 0.5)


def test_make_point_rejects_sum_off():
    with pytest.raises(SumOutOfTolerance):
        simplex.make_point(0.5, 0.3, 0.3)


def test_make_point_idempotent():
    rng = random.Random(3)
    for _ in range(200):
        u, v = sorted((rng.random(), rng.random()))
        p = simplex.make_point(u, v - u, 1 - v)
        q = simplex.make_point(*p.coords)
        assert p.coords == q.coords


def test_classify_region_examples():
    assert simplex.classify_region(simplex.make_point(1, 0, 0)).vertex_index == 1
    r = simplex.classify_region(simplex.make_point(0.5, 0.5, 0))
    assert r.is_face and r.members == (1, 2)
    assert simplex.classify_region(simplex.make_point(0.2, 0.3, 0.5)).is_interior


def test_classify_region_all_vertices():
    for i in (1, 2, 3):
        assert simplex.classify_region(simplex.vertex_point(i)).vertex_index == i


def test_classify_region_interior_threshold():
    rng = random.Random(11)
    for _ in range(100):
        u, v = sorted((rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)))
        if v - u < 1e-6 or 1 - v < 1e-6 or u < 1e-6:
            continue
        p = simplex.make_point(u, v - u, 1 - v)
        assert simplex.classify_region(p).is_interior


def test_classify_region_near_vertex_uses_double_tolerance():
    p = simplex.SimplexPoint((1.0 - 1.5e-12, 1e-12, 0.5e-12))
    assert simplex.classify_region(p).is_vertex


def test_log_round_trip_preserves_coordinates():
    rng = random.Random(5)
    for _ in range(200):
        u, v = sorted((rng.random(), rng.random()))
        coords = (u, v - u, 1 - v)
        if min(coords) <= 0:
            continue
        p = simplex.make_point(*coords)
        back = p.to_log().to_linear()
        for orig, new in zip(p.coords, back.coords):
            assert abs(new - orig) <= 1e-12 * orig


# Points whose coordinates reach far below double underflow, where the
# linear coordinates are 0.0 and only the logs hold the point. The first
# from_logs leaves the logs off their normalization by the rounding of its
# shift, within ulp(max |log|); the round trip may move them by that much, and
# the linear coordinates by as much relatively, plus the rounding of two exp
# calls (one subnormal ulp at the bottom of the range).
@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(logs=st.tuples(*[st.floats(-1e4, 0.0)] * 3))
def test_from_logs_round_trips_the_log_coordinates(logs):
    p = simplex.from_logs(*logs)
    q = simplex.from_logs(*p.to_log().logs)
    tol = 2.0 * math.ulp(max(1.0, *map(abs, logs)))
    for orig, new in zip(p.logs, q.logs):
        assert abs(new - orig) <= tol
    for orig, new in zip(p.coords, q.coords):
        assert abs(new - orig) <= 2.0 * tol * orig + math.ulp(0.0)


def test_log_round_trip_tiny_coordinates():
    # linear values near the bottom of the double range survive the trip
    p = simplex.from_logs(math.log(1e-250), math.log(0.5), math.log(0.5))
    for c in p.coords:
        assert c > 0
    q = simplex.from_logs(*p.log_coords())
    for orig, new in zip(p.coords, q.coords):
        assert abs(new - orig) <= 1e-12 * orig
    assert abs(p.coords[0] - 1e-250) <= 1e-12 * 1e-250


def test_from_logs_renormalizes():
    p = simplex.from_logs(0.0, 0.0, 0.0)  # three equal weights
    assert abs(math.fsum(p.coords) - 1.0) <= 1e-15
    assert all(abs(c - 1.0 / 3.0) < 1e-15 for c in p.coords)


def test_from_logs_keeps_exact_zeros():
    p = simplex.from_logs(float("-inf"), 0.0, float("-inf"))
    assert p.coords == (0.0, 1.0, 0.0)
    assert p.logs[0] == float("-inf")


def test_distance_examples():
    p = simplex.make_point(0.2, 0.3, 0.5)
    assert simplex.distance(p, p) == 0.0
    assert simplex.distance(simplex.vertex_point(1), simplex.vertex_point(2)) == 1.0


def test_vertex_neighborhood():
    p = simplex.make_point(0.96, 0.02, 0.02)
    assert simplex.in_vertex_nbhd(p, 1, 0.05)
    assert not simplex.in_vertex_nbhd(p, 2, 0.05)
    # the boundary of the neighborhood is included
    q = simplex.make_point(0.95, 0.03, 0.02)
    assert simplex.in_vertex_nbhd(q, 1, 0.05)


def test_nearest_vertex():
    assert simplex.nearest_vertex(simplex.make_point(0.5, 0.3, 0.2)) == 1
    assert simplex.nearest_vertex(simplex.make_point(0.1, 0.6, 0.3)) == 2
    assert simplex.nearest_vertex(simplex.make_point(0.1, 0.3, 0.6)) == 3


_lse_entry = st.one_of(st.just(-math.inf), st.floats(-800.0, 800.0), st.floats(-1e7, -1e6))


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(values=st.one_of(st.lists(_lse_entry, min_size=1, max_size=4),
                        st.lists(st.just(-math.inf), min_size=1, max_size=4)))
def test_log_sum_exp_matches_the_plain_form_bit_for_bit(values):
    values = tuple(values)
    assert simplex.log_sum_exp(values).hex() == oracles.log_sum_exp(values).hex()
