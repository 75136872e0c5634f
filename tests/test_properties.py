"""Invariants of the map checked over drawn runs, not fixed seeds.

Every draw runs ``iterate`` in one of its three modes, under one of the
three sign patterns, with a constant or an affine speed. The draws are
derandomized, so a failing example is reproducible as drawn.
"""
import math

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from simplexflow import (
    AffineSpeed,
    ConstantSpeed,
    Parameters,
    iterate,
    make_point,
    psi,
    vertex_point,
)
from simplexflow.dynamics import ITERATE_MODES

_SIGNS = {"positive": [(1, 1, 1)], "negative": [(-1, -1, -1)],
          "mixed": [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]}
_magnitude = st.one_of(st.just(1.0), st.floats(0.1, 1.0))
_weight = st.floats(0.05, 1.0)


@st.composite
def _params(draw, patterns=tuple(_SIGNS)):
    signs = draw(st.sampled_from(_SIGNS[draw(st.sampled_from(patterns))]))
    return Parameters(*(s * draw(_magnitude) for s in signs))


@st.composite
def _speeds(draw):
    if draw(st.booleans()):
        return ConstantSpeed(draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))))
    a0 = draw(st.floats(-0.5, 0.5))
    return AffineSpeed(a0, *(draw(st.floats(0.05, 1.0)) - a0 for _ in range(3)))


@st.composite
def _starts(draw):
    """Interior and face points as make_point gives them."""
    weights = [draw(_weight) for _ in range(3)]
    if draw(st.integers(0, 3)) == 0:
        weights[draw(st.integers(0, 2))] = 0.0
    s = math.fsum(weights)
    return make_point(*(w / s for w in weights))


_modes = st.sampled_from(ITERATE_MODES)
# Short runs, and runs long enough for an auto run to switch to the log
# stepper, which at f = 1 it does after 350-400 steps under positive signs.
_n_steps = st.one_of(st.integers(0, 300), st.integers(600, 1500))
_stride = st.integers(1, 5)
_SETTINGS = dict(max_examples=50, derandomize=True, database=None, deadline=None,
                 phases=[Phase.generate])


def _points(traj):
    return [traj.point(k) for k in range(len(traj))]


@settings(**_SETTINGS)
@given(start=_starts(), params=_params(), speed=_speeds(), n_steps=_n_steps, stride=_stride,
       mode=_modes)
def test_rows_stay_on_the_simplex(start, params, speed, n_steps, stride, mode):
    traj = iterate(start, params, speed, n_steps, stride=stride, mode=mode)
    assert np.all(np.isfinite(traj.coords))
    assert np.all(traj.coords >= 0.0) and np.all(traj.coords <= 1.0)
    assert np.max(np.abs(traj.coords.sum(axis=1) - 1.0)) <= 1e-12
    if traj.logs is not None:
        assert not np.any(np.isnan(traj.logs)) and np.all(traj.logs <= 1e-15)


@settings(**_SETTINGS)
@given(i=st.integers(1, 3), params=_params(), speed=_speeds(), n_steps=_n_steps, mode=_modes)
def test_vertices_are_invariant(i, params, speed, n_steps, mode):
    v = vertex_point(i)
    traj = iterate(v, params, speed, n_steps, mode=mode)
    assert all(p.coords == v.coords for p in _points(traj))
    if traj.logs is not None:
        assert all(p.logs == v.log_coords() for p in _points(traj))


# The interior point is fixed only when a, b, c share a sign. Rounding moves
# it by a few ulps per step at most, and over 1500 steps no mode lets the
# drift grow past 1e-12.
@settings(**_SETTINGS)
@given(params=_params(("positive", "negative")), speed=_speeds(), n_steps=_n_steps,
       mode=_modes)
def test_interior_fixed_point_is_invariant(params, speed, n_steps, mode):
    fixed = np.array(params.fixed_point.coords)
    traj = iterate(params.fixed_point, params, speed, n_steps, mode=mode)
    assert traj.log_domain_from in (None, 0)
    assert np.max(np.abs(traj.coords - fixed)) <= 1e-12


@settings(**_SETTINGS)
@given(start=_starts(), params=_params(("positive",)), speed=_speeds(), n_steps=_n_steps,
       stride=_stride, mode=_modes)
def test_psi_at_most_one_along_positive_runs(start, params, speed, n_steps, stride, mode):
    traj = iterate(start, params, speed, n_steps, stride=stride, mode=mode)
    assert max(psi(p, params, speed) for p in _points(traj)) <= 1.0 + 1e-15


# phi is non-decreasing under all-negative parameters when the speed stays
# at or below (5/4) * min L_i/L_j (the bound of analysis.psi's docstring).
@settings(**_SETTINGS)
@given(start=_starts(), params=_params(("negative",)), speed=_speeds(), n_steps=_n_steps,
       stride=_stride, mode=_modes)
def test_psi_at_least_one_along_negative_runs(start, params, speed, n_steps, stride, mode):
    speed = speed.scaled(min(1.0, 1.25 * min(params.lambdas) / max(params.lambdas)))
    traj = iterate(start, params, speed, n_steps, stride=stride, mode=mode)
    assert min(psi(p, params, speed) for p in _points(traj)) >= 1.0 - 1e-15


def _bits(traj):
    logs = None if traj.logs is None else [v.hex() for v in traj.logs.ravel().tolist()]
    return (traj.steps.tolist(), [v.hex() for v in traj.coords.ravel().tolist()], logs,
            traj.log_domain_from)


@settings(**_SETTINGS)
@given(start=_starts(), params=_params(), speed=_speeds(), n_steps=_n_steps, stride=_stride,
       mode=_modes)
def test_same_inputs_give_bit_identical_runs(start, params, speed, n_steps, stride, mode):
    first = iterate(start, params, speed, n_steps, stride=stride, mode=mode)
    again = iterate(start, params, speed, n_steps, stride=stride, mode=mode)
    assert _bits(first) == _bits(again)
