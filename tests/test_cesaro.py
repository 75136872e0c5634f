"""Streaming iterated averages against exact and coefficient-form oracles."""
import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from simplexflow import (
    CesaroState,
    ConstantSpeed,
    Parameters,
    cesaro_coefficients,
    iterate,
    make_point,
    tail_mass,
    vertex_point,
)
from simplexflow.analysis import COEFFICIENT_K_LIMIT, MAX_CESARO_ORDER, cesaro_coefficient_rows
from simplexflow.errors import OrderOverflow, SizeLimit

from oracles import python_loops, rational_cesaro_means, rational_cesaro_rows, sample_interior


def test_constant_input_all_orders_constant():
    params = Parameters(0.5, 0.5, 0.5)
    x = params.fixed_point
    state = CesaroState(4)
    for _ in range(50):
        state.push(x.coords)
    for k in range(5):
        assert max(abs(v - e) for v, e in zip(state.value(k), x.coords)) <= 1e-15


def test_two_vertex_average():
    state = CesaroState(1)
    state.push(vertex_point(1).coords)
    state.push(vertex_point(2).coords)
    assert state.value(0) == (0.0, 1.0, 0.0)
    assert state.value(1) == (0.5, 0.5, 0.0)


def test_streaming_matches_exact_repeated_averaging():
    rng = random.Random(109)
    points = [sample_interior(rng) for _ in range(200)]
    state = CesaroState(3)
    for p in points:
        state.push(p)
    exact = rational_cesaro_means(points, 3)
    for k in range(4):
        for v, e in zip(state.value(k), exact[k]):
            assert abs(v - float(e)) <= 1e-13


def test_streaming_matches_coefficient_reconstruction():
    # independent route: dot the coefficient rows with the stored orbit
    traj = iterate(make_point(0.5, 0.3, 0.2), Parameters(1, 1, 1), ConstantSpeed(0.9), 300)
    state = CesaroState(3)
    for row in traj.coords:
        state.push(row)
    n = len(traj) - 1
    rows = cesaro_coefficient_rows(3, n)
    for k in range(4):
        recon = rows[k] @ traj.coords
        assert max(abs(u - v) for u, v in zip(state.value(k), recon)) <= 1e-12


def test_order_zero_row_is_indicator():
    row = cesaro_coefficients(0, 7)
    assert list(row) == [0, 0, 0, 0, 0, 0, 0, 1]


def test_order_one_row_is_uniform():
    for n in (0, 1, 5, 40):
        row = cesaro_coefficients(1, n)
        assert np.allclose(row, 1.0 / (n + 1), rtol=0, atol=1e-16)


def test_order_two_row_n2():
    row = cesaro_coefficients(2, 2)
    expect = (11 / 18, 5 / 18, 2 / 18)
    assert max(abs(u - v) for u, v in zip(row, expect)) <= 1e-15


def test_rows_match_exact_recursion():
    # order 3 at n = 25, and every order the table allows at small n
    cases = [(3, 25)] + [(COEFFICIENT_K_LIMIT, n) for n in (0, 1, 2, 7, 40)]
    for max_order, n in cases:
        exact = rational_cesaro_rows(max_order, n)
        got = cesaro_coefficient_rows(max_order, n)
        for k in range(max_order + 1):
            for u, v in zip(got[k], exact[k]):
                assert abs(u - float(v)) <= 1e-14


def test_rows_nonnegative_and_sum_to_one():
    rows = cesaro_coefficient_rows(3, 1000)
    for row in rows:
        assert np.all(row >= 0.0)
        assert abs(math.fsum(row) - 1.0) <= 1e-12


def test_tail_mass_order_zero_is_one():
    for eps in (0.01, 0.5, 1.0):
        assert tail_mass(0, 50, eps) == 1.0


def test_tail_mass_order_one_formula():
    for n in (10, 100, 999):
        for eps in (0.05, 0.1, 0.5):
            expect = 1.0 - math.floor(eps * n) / (n + 1)
            assert abs(tail_mass(1, n, eps) - expect) <= 1e-12


def test_tail_mass_at_the_ends_of_eps():
    assert tail_mass(1, 10, 0.0) == 1.0
    assert tail_mass(1, 10, 1.5) == 0.0  # no index at or above 15
    for eps in (-0.5, -1e-300, math.nan):
        with pytest.raises(ValueError):
            tail_mass(1, 10, eps)


def test_tail_mass_order_two_settles_at_fixed_eps():
    # at fixed eps the tail mass falls toward 1 - eps + eps*log(eps); the
    # approach to 1 happens only as eps then shrinks
    eps = 0.1
    limit = 1.0 - eps + eps * math.log(eps)
    vals = [tail_mass(2, n, eps) for n in (100, 1000, 4000)]
    assert vals[0] >= vals[1] >= vals[2] >= limit
    assert vals[2] - limit < 5e-4


def test_tail_mass_approaches_one_as_eps_shrinks():
    vals = [tail_mass(2, 2000, eps) for eps in (0.5, 0.2, 0.1, 0.01, 0.001)]
    assert all(u < v for u, v in zip(vals, vals[1:]))
    assert vals[-1] > 0.99


def test_order_overflow():
    with pytest.raises(OrderOverflow):
        CesaroState(100)
    state = CesaroState(2)
    state.push((0.5, 0.3, 0.2))
    with pytest.raises(OrderOverflow):
        state.value(3)


def test_coefficient_size_limit():
    with pytest.raises(SizeLimit):
        cesaro_coefficients(2, 200_000)
    with pytest.raises(SizeLimit):
        cesaro_coefficients(9, 10)


def test_push_before_value():
    state = CesaroState(1)
    with pytest.raises(ValueError):
        state.value(0)


# ---------------------------------------------------------------------------
# scan against push
# ---------------------------------------------------------------------------

def _coordinate(rng):
    """Mostly uniform draws, with exact zeros of both signs, subnormals and ones."""
    kind = rng.random()
    if kind < 0.1:
        return rng.choice((0.0, -0.0))
    if kind < 0.2:
        return rng.randint(1, 2**52 - 1) * 5e-324
    if kind < 0.25:
        return 1.0
    return rng.random()


@st.composite
def _scan_runs(draw):
    """An order, 0 to 300 rows and a split of them into a scan, some pushes and
    a second scan, with ascending marks (repeats allowed) in each scan."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    order = draw(st.integers(0, MAX_CESARO_ORDER))
    rows = [[_coordinate(rng) for _ in range(3)] for _ in range(draw(st.integers(0, 300)))]
    cut1 = draw(st.integers(0, len(rows)))
    cut2 = draw(st.integers(cut1, len(rows)))
    parts = rows[:cut1], rows[cut1:cut2], rows[cut2:]
    marks = [sorted(rng.choices(range(len(part)), k=rng.randint(0, 8))) if part else []
             for part in (parts[0], parts[2])]
    return order, parts, marks


def _hexes(values):
    return [[v.hex() for v in row] for row in values]


def _pushed(order, parts, marks):
    """What the pushes alone give at the marks of both scans, and the last state."""
    state = CesaroState(order)
    seen = []
    for part, at in zip(parts, (marks[0], None, marks[1])):
        for i, row in enumerate(part):
            state.push(row)
            seen += [_hexes(state._values)] * (at or []).count(i)
    return seen, state.n, _hexes(state._values)


def _scanned(order, parts, marks):
    state = CesaroState(order)
    seen = [_hexes(v) for v in state.scan(np.reshape(parts[0], (-1, 3)), marks[0]).tolist()]
    for row in parts[1]:
        state.push(row)
    seen += [_hexes(v) for v in state.scan(np.reshape(parts[2], (-1, 3)), marks[1]).tolist()]
    return seen, state.n, _hexes(state._values)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(run=_scan_runs())
def test_scan_gives_the_bits_of_push(run):
    want = _pushed(*run)
    assert _scanned(*run) == want  # the compiled loop where a kernel builds
    assert python_loops(_scanned, *run) == want


def test_scan_rejects_marks_that_are_not_ascending_row_indices():
    rows = np.full((4, 3), 1.0 / 3.0)
    for at in ([4], [-1], [2, 1], [[0]]):
        with pytest.raises(ValueError):
            CesaroState(2).scan(rows, at)
    with pytest.raises(ValueError):
        CesaroState(2).scan(rows[:, :2], [0])
