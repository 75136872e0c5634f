"""Map, face, ratio-form, and iteration tests against exact oracles."""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from simplexflow import (
    AffineSpeed,
    ConstantSpeed,
    Parameters,
    SimplexPoint,
    attach_observables,
    dynamics,
    from_logs,
    iterate,
    make_point,
    ratio_step,
    ratios,
    restrict_to_face,
    step,
    step_log,
    vertex_point,
    zakharevich_step,
)
from simplexflow import kernel
from simplexflow.analysis import sector_array
from simplexflow.errors import NonPositiveFactor, NotOnFace, ZeroParameter

import oracles
from oracles import (
    random_rational_param,
    random_rational_point,
    rational_step,
    rational_zakharevich,
    sample_interior,
)


# ---------------------------------------------------------------------------
# Parameters and speed functions
# ---------------------------------------------------------------------------

def test_lambda_weights_satisfy_defining_cubes():
    rng = random.Random(2)
    for _ in range(100):
        a = rng.uniform(-1, 1) or 0.5
        b = rng.uniform(-1, 1) or 0.5
        c = rng.uniform(-1, 1) or 0.5
        params = Parameters(a, b, c)
        l1, l2, l3 = params.lambdas
        assert abs(l1**3 - abs(b * c * c)) <= 1e-15 * abs(b * c * c)
        assert abs(l2**3 - abs(a * b * b)) <= 1e-15 * abs(a * b * b)
        assert abs(l3**3 - abs(a * a * c)) <= 1e-15 * abs(a * a * c)
        assert abs(math.fsum(params.fixed_point.coords) - 1.0) <= 1e-15


def test_lambda_example_quarter():
    params = Parameters(1, 1, 0.125)
    assert params.lambdas == (0.25, 1.0, 0.5)
    assert max(abs(v - e) for v, e in zip(params.fixed_point.coords, (1 / 7, 4 / 7, 2 / 7))) <= 1e-15


def test_zero_parameter_rejected():
    with pytest.raises(ZeroParameter):
        Parameters(0.0, 1.0, 1.0)
    with pytest.raises(ZeroParameter):
        Parameters(1.0, 1.0, 0.0)


def test_out_of_range_parameter_rejected():
    with pytest.raises(ValueError):
        Parameters(1.5, 1.0, 1.0)


def test_parameters_whose_weight_underflows_are_rejected():
    # b c^2 underflows to 0 at c = -1e-300; a subnormal product still has a
    # normal cube root, and those parameters run
    with pytest.raises(ValueError, match=r"weight \|b\*c\^2\|\^\(1/3\) underflows"):
        Parameters(1.0, 1.0, -1e-300)
    with pytest.raises(ValueError, match=r"weight \|a\^2\*c\|\^\(1/3\) underflows"):
        Parameters(1e-200, 1.0, 1e-100)
    assert min(Parameters(1.0, 1.0, 1e-160).lambdas) > 0.0


def test_sign_pattern():
    assert Parameters(1, 1, 1).sign_pattern == "positive"
    assert Parameters(-1, -0.5, -1).sign_pattern == "negative"
    assert Parameters(1, -1, 1).sign_pattern == "mixed"


def test_constant_speed_range_checked():
    with pytest.raises(ValueError):
        ConstantSpeed(0.0)
    with pytest.raises(ValueError):
        ConstantSpeed(1.5)
    assert ConstantSpeed(1.0)(0.3, 0.3, 0.4) == 1.0


def test_affine_speed_vertex_certification():
    f = AffineSpeed(0.2, 0.1, 0.3, 0.0)
    assert f.vertex_values() == (0.30000000000000004, 0.5, 0.2)
    assert abs(f(0.5, 0.25, 0.25) - (0.2 + 0.05 + 0.075)) < 1e-15
    with pytest.raises(ValueError):
        AffineSpeed(0.5, 0.6, 0.0, 0.0)  # value 1.1 at vertex 1
    with pytest.raises(ValueError):
        AffineSpeed(0.1, -0.1, 0.0, 0.0)  # value 0 at vertex 1


def test_scaled_speed():
    f = ConstantSpeed(0.8).scaled(0.25)
    assert f.value == 0.2
    g = AffineSpeed(0.2, 0.1, 0.3, 0.0).scaled(0.5)
    assert g.vertex_values() == (0.15000000000000002, 0.25, 0.1)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_step_matches_rational_oracle_example():
    p = make_point(0.5, 0.25, 0.25)
    got = step(p, Parameters(1, 1, 1), ConstantSpeed(1.0))
    exact = rational_step((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), 1, 1, 1, 1)
    assert sum(exact) == 1
    assert exact == (Fraction(17, 32), Fraction(13, 64), Fraction(17, 64))
    assert got.coords == (17 / 32, 13 / 64, 17 / 64)


def test_step_random_rational_cases_preserve_simplex_exactly():
    rng = random.Random(17)
    for _ in range(50):
        x = random_rational_point(rng)
        a = random_rational_param(rng)
        b = random_rational_param(rng)
        c = random_rational_param(rng)
        f = Fraction(rng.randint(1, 8), 8)
        y = rational_step(x, a, b, c, f)
        assert sum(y) == 1
        got = step(make_point(*map(float, x)), Parameters(float(a), float(b), float(c)), ConstantSpeed(float(f)))
        for g, e in zip(got.coords, y):
            assert abs(g - float(e)) <= 1e-14


def test_vertices_are_fixed():
    rng = random.Random(23)
    for _ in range(20):
        params = Parameters(rng.uniform(0.05, 1), -rng.uniform(0.05, 1), rng.uniform(0.05, 1))
        f = ConstantSpeed(rng.uniform(0.05, 1))
        for i in (1, 2, 3):
            e = vertex_point(i)
            assert step(e, params, f).coords == e.coords


def test_interior_fixed_point_for_sign_uniform_parameters():
    rng = random.Random(29)
    for _ in range(100):
        mag = [rng.uniform(0.05, 1) for _ in range(3)]
        sign = rng.choice((1.0, -1.0))
        params = Parameters(sign * mag[0], sign * mag[1], sign * mag[2])
        f = ConstantSpeed(rng.uniform(0.05, 1))
        x = params.fixed_point
        y = step(x, params, f)
        assert max(abs(u - v) for u, v in zip(x.coords, y.coords)) <= 1e-14


def test_face_invariance_exact_zeros():
    rng = random.Random(31)
    for _ in range(50):
        params = Parameters(rng.uniform(-1, 1) or 0.3, rng.uniform(-1, 1) or 0.3, rng.uniform(-1, 1) or 0.3)
        f = ConstantSpeed(rng.uniform(0.05, 1))
        t = rng.uniform(0.05, 0.95)
        for zero_at in (0, 1, 2):
            coords = [t, 1 - t, 0.0]
            coords[2], coords[zero_at] = coords[zero_at], 0.0
            p = make_point(*coords)
            q = step(p, params, f)
            assert q.coords[zero_at] == 0.0


def test_interior_invariance():
    rng = random.Random(37)
    for _ in range(500):
        x = sample_interior(rng)
        params = Parameters(rng.uniform(-1, 1) or 0.4, rng.uniform(-1, 1) or 0.4, rng.uniform(-1, 1) or 0.4)
        f = ConstantSpeed(rng.uniform(0.05, 1))
        q = step(make_point(*x), params, f)
        assert min(q.coords) > 0.0


def test_unnormalized_sum_drift_below_1e15():
    rng = random.Random(41)
    worst = 0.0
    for _ in range(2000):
        x1, x2, x3 = sample_interior(rng)
        a = rng.uniform(-1, 1) or 0.4
        b = rng.uniform(-1, 1) or 0.4
        c = rng.uniform(-1, 1) or 0.4
        fv = rng.uniform(0.05, 1)
        y1 = x1 * (1.0 + (a * x1 * x2 - b * x3 * x3) * fv)
        y2 = x2 * (1.0 + (c * x2 * x3 - a * x1 * x1) * fv)
        y3 = x3 * (1.0 + (b * x3 * x1 - c * x2 * x2) * fv)
        worst = max(worst, abs(math.fsum((y1, y2, y3)) - 1.0))
    assert worst <= 1e-15, f"pre-renormalization drift {worst:.2e}"


def test_non_positive_factor_signals_corrupt_input():
    bad = SimplexPoint((0.0, 3.0, -2.0))  # bypasses make_point validation
    with pytest.raises(NonPositiveFactor):
        step(bad, Parameters(1, 1, 1), ConstantSpeed(1.0))


def test_split_factor_matches_high_precision():
    # The rebuilt factor against mpmath, which takes xp and xq as exact and
    # xr as 1 - xp - xq. Half the draws sit next to the vertex of r, where
    # the direct form rounds to 0.0 once f*beta is 1; the rest lie anywhere.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(71)
    direct_not_positive = 0
    for i in range(2000):
        alpha = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
        if i % 2:
            xp, xq, _ = sample_interior(rng)
            fval = rng.uniform(0.05, 1.0)
            beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
        else:
            xp, xq = (10.0 ** rng.uniform(-300.0, -8.0) for _ in range(2))
            fval, beta = (1.0, 1.0) if i % 4 == 0 else (rng.uniform(0.5, 1.0), 1.0)
        xr = 1.0 - (xp + xq)
        got = dynamics._split_factor(fval, alpha, xp, xq, beta, xr)
        with mpmath.workdps(700):  # 1 - (1 - p - q)^2 cancels down to p + q >= 1e-300
            f, al, p, q, be = (mpmath.mpf(v) for v in (fval, alpha, xp, xq, beta))
            want = float(1 + f * (al * p * q - be * (1 - p - q) ** 2))
        assert abs(got - want) <= 4 * math.ulp(want), (fval, alpha, xp, xq, beta)
        direct_not_positive += 1.0 + (alpha * xp * xq - beta * xr * xr) * fval <= 0.0
    assert direct_not_positive > 100


@st.composite
def _unit_parameters(draw):
    """(a, b, c) with a parameter of 1; each other one is 1 or lies in +-[0.1, 1]."""
    other = st.one_of(st.just(1.0), st.floats(0.1, 1.0), st.floats(-1.0, -0.1))
    abc = [draw(other) for _ in range(3)]
    abc[draw(st.integers(0, 2))] = 1.0
    return abc


# With f = 1, a parameter of 1 is the weight beta of one species' factor
# 1 - f*beta*xr^2 + ..., whose direct form rounds to 0.0 next to that
# species' vertex; the rebuilt factor keeps both steppers going.
@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(weights=st.tuples(*[st.floats(0.01, 1.0)] * 3), abc=_unit_parameters(),
       n_steps=st.integers(100, 1500))
def test_unit_parameter_at_full_speed_never_raises(weights, abc, n_steps):
    s = math.fsum(weights)
    start = make_point(*(w / s for w in weights))
    for mode in ("linear", "auto"):
        traj = iterate(start, Parameters(*abc), ConstantSpeed(1.0), n_steps, mode=mode)
        assert np.all(traj.coords >= 0.0)
        assert np.max(np.abs(traj.coords.sum(axis=1) - 1.0)) <= 1e-9


# ---------------------------------------------------------------------------
# step_log
# ---------------------------------------------------------------------------

def test_step_log_matches_step_on_example():
    p = make_point(0.5, 0.25, 0.25)
    got = step_log(p, Parameters(1, 1, 1), ConstantSpeed(1.0))
    for g, e in zip(got.coords, (17 / 32, 13 / 64, 17 / 64)):
        assert abs(g - e) <= 1e-14


def test_step_log_agrees_with_step_randomly():
    rng = random.Random(43)
    for _ in range(300):
        x = sample_interior(rng)
        params = Parameters(rng.uniform(-1, 1) or 0.4, rng.uniform(-1, 1) or 0.4, rng.uniform(-1, 1) or 0.4)
        f = ConstantSpeed(rng.uniform(0.05, 1))
        lin = step(make_point(*x), params, f)
        log = step_log(make_point(*x), params, f)
        for u, v in zip(lin.coords, log.coords):
            assert abs(u - v) <= 1e-12 * max(u, 1e-300)


def test_step_log_agrees_on_small_coordinates():
    rng = random.Random(47)
    for _ in range(100):
        l3 = rng.uniform(-400, -20)  # linear value down to ~1e-174
        u = rng.uniform(0.2, 0.8)
        p = from_logs(math.log(u), math.log(1 - u), l3)
        params = Parameters(rng.uniform(0.05, 1), rng.uniform(0.05, 1), rng.uniform(0.05, 1))
        f = ConstantSpeed(rng.uniform(0.05, 1))
        log = step_log(p, params, f)
        if min(p.coords) >= 1e-200:
            lin = step(p, params, f)
            for u2, v2 in zip(lin.coords, log.coords):
                assert abs(u2 - v2) <= 1e-12 * max(u2, 1e-300)
        assert all(math.isfinite(v) for v in log.logs)


def test_step_log_far_below_underflow_stays_finite():
    p = from_logs(-1e4, math.log(0.5), math.log(0.5))
    got = step_log(p, Parameters(1, 1, 1), ConstantSpeed(1.0))
    assert all(not math.isnan(v) for v in got.logs)
    assert got.logs[0] < -9.9e3  # still tracking the tiny species


# A log run's first row is its start's own logs, also for a species so far
# below double underflow that its coordinate reads 0.0. Only an auto run's
# rows before the switch are the logs of their coordinates.
def test_a_log_run_records_the_logs_of_its_start():
    p = from_logs(-1e4, math.log(0.5), math.log(0.5))
    traj = iterate(p, Parameters(1, 1, 1), ConstantSpeed(1.0), 5, mode="log")
    assert p.coords[0] == 0.0
    assert traj.logs[0].tolist() == list(p.logs)


def test_step_log_fixed_point():
    params = Parameters(1, 0.5, 0.25)
    p = params.fixed_point
    got = step_log(p, params, ConstantSpeed(0.7))
    for u, v in zip(p.log_coords(), got.logs):
        assert abs(u - v) <= 1e-14


def test_step_log_survives_deep_vertex_sojourn_factor_cancellation():
    # a*f = 1 and x1 -> 1: the linear factor for x2 underflows to zero, the
    # log path must keep a finite negative update instead.
    p = from_logs(-1e-30, math.log(1e-120), math.log(1e-120))
    got = step_log(p, Parameters(1, 1, 1), ConstantSpeed(1.0))
    assert math.isfinite(got.logs[1])
    # growth factor for x2 is ~ (x2+x3)*(1+x1) + x2*x3 ~ 4e-120
    assert abs(got.logs[1] - (math.log(1e-120) + math.log(4e-120))) < 1.0


def _bits_or_error(fn, *args):
    """float.hex of each output, which tells -0.0 from 0.0, or the error."""
    try:
        return tuple(v.hex() for v in fn(*args))
    except NonPositiveFactor as exc:
        return repr(exc)


_log_coord = st.one_of(st.just(-math.inf), st.floats(-1e-3, 0.0), st.floats(-60.0, 0.0),
                       st.floats(-1e7, -1e6))
_signed_unit = st.one_of(st.sampled_from((1.0, -1.0)), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))
_speed = st.one_of(st.sampled_from((1.0, 0.5)), st.floats(0.01, 1.0))
_minor_log = st.one_of(st.floats(-40.0, -5.0), st.floats(-1e7, -8.0))


@st.composite
def _log_step_inputs(draw):
    """(l1, l2, l3, x1, x2, x3, a, b, c, f), logs normalized and each x its
    exp, as the log loop holds them, with -inf entries and logs
    near -1e7. Half the draws sit next to vertex r with f*beta >= 0.525 for
    the species p whose factor carries -beta*xr^2, so p's factor is rebuilt
    from the cancellation-free split; p's partner q may be dead. Logs of p
    and q above -40 keep the f*alpha*xp*xq term of the split visible."""
    logs = [draw(_log_coord) for _ in range(3)]
    abc = [draw(_signed_unit) for _ in range(3)]
    f = draw(_speed)
    if draw(st.booleans()):
        r = draw(st.integers(0, 2))
        p, q = (r + 1) % 3, (r + 2) % 3
        logs[r] = 0.0
        logs[p] = draw(_minor_log)
        logs[q] = draw(st.one_of(st.just(-math.inf), _minor_log))
        # beta of p's factor: b for x1 (next to e3), a for x2 (e1), c for x3 (e2)
        abc[(1, 0, 2)[p]] = draw(st.one_of(st.just(1.0), st.floats(0.75, 1.0)))
        f = draw(st.one_of(st.just(1.0), st.floats(0.7, 1.0)))
    if max(logs) == -math.inf:
        logs[draw(st.integers(0, 2))] = 0.0
    z = oracles.log_sum_exp(logs)
    logs = [v - z for v in logs]
    return (*logs, *(math.exp(v) for v in logs), *abc, f)


# Against the plain form of the stepper, bit for bit. The draws cover -inf
# entries, negative alphas, f*beta = 1 (f = 1 and a parameter of 1) and
# f*beta < 1, and logs near -1e7; in a run of the whole suite, 190 of the 400
# take the cancellation-free branch for at least one coordinate. (Hypothesis
# also draws constants it finds in the loaded modules' source, so this count
# and those below move with edits anywhere in src/ and tests/.)
@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(args=_log_step_inputs())
def test_step_log_matches_the_plain_form_bit_for_bit(args):
    assert _bits_or_error(dynamics._step_log, *args) == _bits_or_error(oracles.step_log, *args)


# The benchmark's tracer counts calls to dynamics.log_sum_exp and reads
# calls - log steps as the firings of the cancellation-free branch.
@pytest.mark.parametrize("abc, f, x0, mode", [
    ((1, 1, 1), 1.0, (0.5, 0.3, 0.2), "log"),
    ((-1, 1, -1), 0.8, (0.3, 0.3, 0.4), "log"),
    ((1, -1, 1), 1.0, (0.5, 0.3, 0.2), "auto"),
    ((0.8, 0.6, 0.9), 1.0, (0.2, 0.45, 0.35), "auto"),
])
def test_log_sum_exp_calls_are_log_steps_plus_split_firings(monkeypatch, abc, f, x0, mode):
    calls = 0
    original = dynamics.log_sum_exp

    def counted(values):
        nonlocal calls
        calls += 1
        return original(values)

    monkeypatch.setattr(dynamics, "log_sum_exp", counted)
    n = 600
    traj = iterate(make_point(*x0), Parameters(*abc), ConstantSpeed(f), n, mode=mode)
    start = traj.log_domain_from
    assert start is not None
    fires = sum(oracles.cancel_free_fires(*traj.logs[k].tolist(), *traj.coords[k].tolist(),
                                          *map(float, abc), f) for k in range(start, n))
    assert fires > 0
    assert calls == (n - start) + fires


# ---------------------------------------------------------------------------
# ratios and the rescaled update
# ---------------------------------------------------------------------------

def test_ratios_at_fixed_point_all_equal():
    params = Parameters(0.7, 0.3, 0.9)
    y = ratios(params.fixed_point, params)
    s = math.fsum(params.lambdas)
    for v in y:
        assert abs(v - 1.0 / s) <= 1e-14


def test_ratios_identity_for_unit_lambdas():
    params = Parameters(1, 1, 1)
    p = make_point(0.5, 0.3, 0.2)
    assert ratios(p, params) == (0.5, 0.3, 0.2)


def test_ratios_rational_example():
    params = Parameters(1, 1, 0.125)
    p = make_point(1 / 7, 4 / 7, 2 / 7)
    y = ratios(p, params)
    for v in y:
        assert abs(v - 4 / 7) <= 1e-14


def test_rescaled_update_commutes_with_ratios():
    rng = random.Random(53)
    for _ in range(300):
        x = sample_interior(rng)
        params = Parameters(rng.uniform(-1, 1) or 0.4, rng.uniform(-1, 1) or 0.4, rng.uniform(-1, 1) or 0.4)
        f = ConstantSpeed(rng.uniform(0.05, 1))
        p = make_point(*x)
        via_step = ratios(step(p, params, f), params)
        via_rescaled = ratio_step(p, params, f)
        for u, v in zip(via_step, via_rescaled):
            assert abs(u - v) <= 1e-12 * max(abs(u), 1.0)


# ---------------------------------------------------------------------------
# face restriction
# ---------------------------------------------------------------------------

def test_restrict_to_face_example():
    p = make_point(0.5, 0.0, 0.5)
    got = restrict_to_face(p, Parameters(1, 1, 1), ConstantSpeed(1.0))
    assert got.coords == (3 / 8, 0.0, 5 / 8)


def test_restrict_matches_two_coordinate_formulas():
    rng = random.Random(59)
    for _ in range(100):
        a = rng.uniform(-1, 1) or 0.4
        b = rng.uniform(-1, 1) or 0.4
        c = rng.uniform(-1, 1) or 0.4
        fv = rng.uniform(0.05, 1)
        t = rng.uniform(0.05, 0.95)
        params = Parameters(a, b, c)
        f = ConstantSpeed(fv)
        # face without species 2: x1' = x1 (1 - b x3^2 f), x3' = x3 (1 + b x1 x3 f)
        p = make_point(t, 0.0, 1 - t)
        got = restrict_to_face(p, params, f)
        x1, x3 = p.coords[0], p.coords[2]
        e1 = x1 * (1.0 - b * x3 * x3 * fv)
        e3 = x3 * (1.0 + b * x3 * x1 * fv)
        s = math.fsum((e1, e3))
        assert abs(got.coords[0] - e1 / s) <= 1e-15
        assert got.coords[1] == 0.0
        assert abs(got.coords[2] - e3 / s) <= 1e-15
        # face without species 3: x1' = x1 (1 + a x1 x2 f), x2' = x2 (1 - a x1^2 f)
        p = make_point(t, 1 - t, 0.0)
        got = restrict_to_face(p, params, f)
        x1, x2 = p.coords[0], p.coords[1]
        e1 = x1 * (1.0 + a * x1 * x2 * fv)
        e2 = x2 * (1.0 - a * x1 * x1 * fv)
        s = math.fsum((e1, e2))
        assert abs(got.coords[0] - e1 / s) <= 1e-15
        assert abs(got.coords[1] - e2 / s) <= 1e-15
        assert got.coords[2] == 0.0


def test_restrict_to_face_agrees_with_step():
    rng = random.Random(61)
    for _ in range(50):
        params = Parameters(rng.uniform(-1, 1) or 0.4, rng.uniform(-1, 1) or 0.4, rng.uniform(-1, 1) or 0.4)
        f = ConstantSpeed(rng.uniform(0.05, 1))
        t = rng.uniform(0.05, 0.95)
        p = make_point(0.0, t, 1 - t)
        assert restrict_to_face(p, params, f).coords == step(p, params, f).coords


def test_restrict_to_face_rejects_off_face_points():
    params = Parameters(1, 1, 1)
    f = ConstantSpeed(0.5)
    with pytest.raises(NotOnFace):
        restrict_to_face(make_point(0.2, 0.3, 0.5), params, f)
    with pytest.raises(NotOnFace):
        restrict_to_face(vertex_point(3), params, f)


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------

def test_iterate_zero_steps():
    p = make_point(0.5, 0.3, 0.2)
    t = iterate(p, Parameters(1, 1, 1), ConstantSpeed(1.0), 0)
    assert len(t) == 1 and t.final.coords == p.coords


def test_iterate_constant_at_fixed_point():
    params = Parameters(-0.5, -0.25, -1.0)
    t = iterate(params.fixed_point, params, ConstantSpeed(0.5), 500)
    assert max(abs(v - e) for v, e in zip(t.final.coords, params.fixed_point.coords)) <= 1e-12


def test_iterate_deterministic_bit_identical():
    p = make_point(0.5, 0.3, 0.2)
    params = Parameters(1, 1, 1)
    t1 = iterate(p, params, ConstantSpeed(0.7), 2000, stride=7)
    t2 = iterate(p, params, ConstantSpeed(0.7), 2000, stride=7)
    assert np.array_equal(t1.coords, t2.coords)
    assert np.array_equal(t1.steps, t2.steps)


def test_iterate_stride_records_final():
    p = make_point(0.5, 0.3, 0.2)
    t = iterate(p, Parameters(1, 1, 1), ConstantSpeed(0.5), 10, stride=3)
    assert list(t.steps) == [0, 3, 6, 9, 10]


def test_iterate_rejects_a_step_count_beyond_int64():
    # the schedule is int64: such a run is refused before a step is taken
    with pytest.raises(ValueError, match="n_steps must lie in"):
        iterate(make_point(0.5, 0.3, 0.2), Parameters(1, 1, 1), ConstantSpeed(0.5), 2**64 + 5,
                stride=2**64 + 5)


def test_iterate_all_negative_converges_to_barycenter():
    # long-run check of the strongly persistent regime
    p = make_point(0.5, 0.3, 0.2)
    t = iterate(p, Parameters(-1, -1, -1), ConstantSpeed(0.5), 1_000_000, stride=10_000)
    assert max(abs(v - 1 / 3) for v in t.final.coords) <= 1e-8


def test_iterate_auto_switches_to_log_domain():
    p = make_point(0.5, 0.3, 0.2)
    t = iterate(p, Parameters(1, 1, 1), ConstantSpeed(1.0), 400, mode="auto")
    assert t.log_domain_from is not None
    assert t.logs is not None
    assert np.all(np.isfinite(t.logs[:, 1]))
    # linear coordinates would have died; logs keep decreasing meaningfully
    assert t.logs[-1, 2] < -1e4


def test_iterate_observables_attached():
    p = make_point(0.5, 0.3, 0.2)
    t = iterate(p, Parameters(1, 1, 1), ConstantSpeed(1.0), 50)
    attach_observables(t)
    assert set(t.observables) == {"log_phi", "sector"}
    assert len(t.observables["log_phi"]) == len(t)
    assert t.observables["sector"][0] == 1  # (0.5, 0.3, 0.2) ordering


_weight = st.floats(0.05, 1.0)
_param = st.floats(0.25, 1.0)


# Runs long and fast enough that most examples cross 1e-100 and switch. No
# shrink phase: shrinking runs of 2000 steps takes minutes, and a failing
# example is reproducible as drawn, since the draws are derandomized.
@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(weights=st.tuples(_weight, _weight, _weight), abc=st.tuples(_param, _param, _param),
       f=st.floats(0.5, 1.0), stride=st.integers(1, 7), n_steps=st.integers(500, 2000))
def test_auto_run_records_the_linear_run_until_it_switches(weights, abc, f, stride, n_steps):
    s = math.fsum(weights)
    start = make_point(*(w / s for w in weights))
    params, speed = Parameters(*abc), ConstantSpeed(f)
    auto = iterate(start, params, speed, n_steps, stride=stride, mode="auto")
    switch = auto.log_domain_from
    upto = n_steps if switch is None else switch

    # the switch comes at the first step with a coordinate in (0, 1e-100)
    ref = iterate(start, params, speed, upto, mode="linear").coords
    tiny = np.flatnonzero(((ref > 0.0) & (ref < 1e-100)).any(axis=1))
    assert (int(tiny[0]) if len(tiny) else None) == switch

    # before it, the auto run is the linear run, bit for bit
    lin = iterate(start, params, speed, upto, stride=stride, mode="linear")
    before = auto.steps < upto
    assert np.array_equal(auto.steps[before], lin.steps[lin.steps < upto])
    assert np.array_equal(auto.coords[before], lin.coords[lin.steps < upto])
    if switch is None:
        assert auto.logs is None and np.array_equal(auto.coords, lin.coords)
    else:
        # and its log rows are the logs of its linear coordinates
        assert np.array_equal(auto.logs[before], np.log(auto.coords[before]))


def _run_bits(fn, *args, **kwargs):
    """float.hex of every step, coordinate and log of a run, and its switch
    step; or the type and message of the error it raised."""
    try:
        t = fn(*args, **kwargs)
    except Exception as exc:  # the type and message must match the oracle's
        return type(exc), str(exc)
    logs = None if t.logs is None else [v.hex() for v in t.logs.ravel().tolist()]
    return (t.steps.tolist(), [v.hex() for v in t.coords.ravel().tolist()], logs,
            t.log_domain_from)


@st.composite
def _starts(draw):
    """Interior, face and vertex starts, and now and then a corrupt one
    (off the simplex, as SimplexPoint allows) on which a factor can fail."""
    kind = draw(st.sampled_from(("interior",) * 4 + ("face",) * 2 + ("vertex", "corrupt")))
    if kind == "corrupt":
        t = draw(st.floats(1.5, 4.0))
        return SimplexPoint((0.0, t, 1.0 - t))
    if kind == "vertex":
        return vertex_point(draw(st.integers(1, 3)))
    weights = [draw(_weight) for _ in range(3)]
    if kind == "face":
        weights[draw(st.integers(0, 2))] = 0.0
    s = math.fsum(weights)
    return make_point(*(w / s for w in weights))


@st.composite
def _affine_speeds(draw):
    a0 = draw(st.floats(-0.5, 0.5))
    return AffineSpeed(a0, *(draw(st.floats(0.05, 0.99)) - a0 for _ in range(3)))


@st.composite
def _iterate_inputs(draw):
    """(start, params, speed, n_steps, stride, mode). Half the draws take
    f = 1 with a parameter of 1, where linear steps rebuild factors from the
    cancellation-free split and auto runs switch; the rest take any signs
    and a constant or an affine speed."""
    n_steps = draw(st.integers(0, 2000))
    stride = draw(st.one_of(st.integers(1, 7), st.sampled_from((max(n_steps, 1), n_steps + 3))))
    mode = draw(st.sampled_from(dynamics.ITERATE_MODES))
    if draw(st.booleans()):
        abc = draw(st.one_of(st.just((1.0, 1.0, 1.0)), _unit_parameters()))
        speed = ConstantSpeed(1.0)
    else:
        abc = [draw(_signed_unit) for _ in range(3)]
        speed = draw(st.one_of(_speed.map(ConstantSpeed), _affine_speeds()))
    return draw(_starts()), Parameters(*abc), speed, n_steps, stride, mode


# Against the one-step-per-call loop, bit for bit. Of the 300 draws in a run
# of the whole suite, 116 run linear, 92 log and 92 auto; 23 auto runs
# switch, 30 runs rebuild a linear factor from the split, 74 use an affine
# speed, 205 record only their endpoints (stride n_steps or n_steps + 3),
# and 22 raise.
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(args=_iterate_inputs())
def test_iterate_matches_the_one_step_loop_bit_for_bit(args):
    start, params, speed, n_steps, stride, mode = args
    assert (_run_bits(iterate, start, params, speed, n_steps, stride=stride, mode=mode)
            == _run_bits(oracles.iterate, start, params, speed, n_steps, stride=stride, mode=mode))


# A linear run whose sums are 1.0 at 65.8% of its steps, so that the compiled
# loop takes both sides of its branch on a unit sum.
_MIXED_UNIT_SUMS = (SimplexPoint((0.5, 0.3, 0.2)), Parameters(0.65, 0.6, -0.26),
                    ConstantSpeed(0.0281), 2000, 2000, "linear")


# The compiled linear and log loops against the Python loops, on the draws
# above in all three modes, and on the run above.
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(args=_iterate_inputs())
@example(args=_MIXED_UNIT_SUMS)
def test_the_compiled_loops_match_the_python_loops_bit_for_bit(compiled, args):
    start, params, speed, n_steps, stride, mode = args
    want, sums = oracles.python_loop_sums(_run_bits, iterate, start, params, speed, n_steps,
                                          stride=stride, mode=mode)
    assert _run_bits(iterate, start, params, speed, n_steps, stride=stride, mode=mode) == want
    if args is _MIXED_UNIT_SUMS:
        assert 1.0 in sums and any(s != 1.0 for s in sums)


def _kernel_calls(monkeypatch):
    """The ``(steps done, log_domain_from or -1)`` each ``kernel.iterate_run``
    call returns, as the calls are made; None for a call where the kernel
    did not run."""
    records = []
    original = kernel.iterate_run

    def spied(*args):
        records.append(original(*args))
        return records[-1]

    monkeypatch.setattr(kernel, "iterate_run", spied)
    return records


# Log and auto runs pinned to the branches of the compiled loop. Each makes
# one kernel call, and none calls the Python log stepper, except the corrupt
# start, at whose first step the kernel stops: its factor for x1 is
# negative, so Python raises.
@pytest.mark.parametrize("start, abc, speed, n_steps, stride, mode, python_steps", [
    # an auto switch at step 74, in the middle of a stride of 7
    (SimplexPoint((0.5, 0.3, 0.2)), (1, 1, 1), ConstantSpeed(1.0), 400, 7, "auto", 0),
    # f*beta = 1, where the rebuilt factor has no 1 - f*beta term
    (SimplexPoint((0.5, 0.3, 0.2)), (1, 1, 1), ConstantSpeed(1.0), 600, 1, "log", 0),
    # a face start: x3's log is -inf and stays so
    (SimplexPoint((0.6, 0.4, 0.0)), (1, 1, 1), ConstantSpeed(1.0), 300, 4, "log", 0),
    (SimplexPoint((0.3, 0.3, 0.4)), (-1, 1, -1), AffineSpeed(0.2, 0.6, 0.5, 0.4), 500, 3, "log",
     0),
    (SimplexPoint((1.0, 1.0, 0.5), (0.0, 0.0, math.log(0.5))), (-1, 0.01, 1),
     AffineSpeed(-0.5, 1.5, 1.5, 1.5), 10, 1, "log", 1),
    # the auto switch at step 74 on a sample step, at stride 1
    (SimplexPoint((0.5, 0.3, 0.2)), (1, 1, 1), ConstantSpeed(1.0), 400, 1, "auto", 0),
    # ... and on the run's last step
    (SimplexPoint((0.5, 0.3, 0.2)), (1, 1, 1), ConstantSpeed(1.0), 74, 7, "auto", 0),
    # a face start whose x2 crosses 1e-100 at step 334: the switch takes x3's
    # log as -inf
    (SimplexPoint((0.6, 0.4, 0.0)), (1, 1, 1), ConstantSpeed(0.5), 600, 5, "auto", 0),
])
def test_the_compiled_log_loop_matches_the_python_loop_on_pinned_runs(
        compiled, monkeypatch, start, abc, speed, n_steps, stride, mode, python_steps):
    args = (start, Parameters(*abc), speed, n_steps)
    want = oracles.python_loops(_run_bits, iterate, *args, stride=stride, mode=mode)
    calls = 0
    original = dynamics._step_log

    def counted(*a):
        nonlocal calls
        calls += 1
        return original(*a)

    monkeypatch.setattr(dynamics, "_step_log", counted)
    records = _kernel_calls(monkeypatch)
    got = _run_bits(iterate, *args, stride=stride, mode=mode)
    assert got == want
    assert len(records) == 1 and records[0] is not None
    assert calls == python_steps
    if python_steps:
        assert got == (NonPositiveFactor, "non-positive update factor in log domain")
    else:
        assert got[3] is not None and got[0][-1] == n_steps
    if 0.0 in start.coords:  # the extinct species' log is -inf in every log row
        assert (-math.inf).hex() in got[2]


# Ties in the kernel's log_sum_exp, which stores exp(0) = 1.0 for a term
# equal to the maximum without a call: from the fixed point of (1, 1, 1) the
# three updated logs tie at every step, and from two equal logs next to
# vertex 3 x1's rebuilt factor sums exp(l1) and exp(l2) at a tie.
@pytest.mark.parametrize("start", [
    Parameters(1, 1, 1).fixed_point,
    SimplexPoint((1e-20, 1e-20, 1.0 - 2e-20), (math.log(1e-20),) * 2 + (math.log1p(-2e-20),)),
])
def test_the_compiled_log_loop_keeps_the_python_loops_bits_at_ties(compiled, monkeypatch, start):
    args = (start, Parameters(1, 1, 1), ConstantSpeed(1.0), 200)
    want = oracles.python_loops(_run_bits, iterate, *args, mode="log")
    records = _kernel_calls(monkeypatch)
    assert _run_bits(iterate, *args, mode="log") == want
    assert records == [(200, 0)]


def _gap_start(d):
    """A log start whose x2 and x3 lie d below x1 in the log domain."""
    lo, top = -d, math.log1p(-2.0 * math.exp(-d))
    return SimplexPoint((math.exp(top), math.exp(lo), math.exp(lo)), (top, lo, lo))


# Log runs pinned to the libm results that are fixed, each with what its
# Python run shows of the case: the kernel skips a log_sum_exp whose two
# smaller terms lie more than 40 below the maximum and keeps a rebuilt
# factor's logs of f; it calls exp(0) and log1p(0) as the Python loop does.
_FIXED = {
    # both other logs lie more than 40 below l1, so each step's sum is
    # m1 + 0.0 and l1 = m1 - m1 = 0, whose exp is 1
    "l-is-0": (SimplexPoint((1.0, 1e-30, 1e-30), (0.0, math.log(1e-30), math.log(1e-30))),
               (1, 1, 1), ConstantSpeed(0.5), 50, lambda t: (t.logs[:, 0] == 0.0).all()),
    # a*x1*x2 = b*x3^2 = 1/16, so t = 0 at step 1
    "t-is-0": (SimplexPoint((0.5, 0.25, 0.25)), (0.5, 1, 1), ConstantSpeed(0.5), 20,
               lambda t: 0.5 * t.coords[0, 0] * t.coords[0, 1] == t.coords[0, 2] ** 2),
    # a vertex: t = 0, l = 0 and two -inf terms below the maximum at every step
    "vertex": (vertex_point(2), (1, 1, 1), ConstantSpeed(0.5), 50,
               lambda t: (t.logs[:, 1] == 0.0).all()),
    # log_sum_exp's two smaller terms about 30 (not skipped, the sum is not
    # 1 there), 39.9 (not skipped) and 40.1 (skipped) below the maximum
    **{f"gap-{d}": (_gap_start(d), (1, 1, 1), ConstantSpeed(0.01), 30,
                    lambda t, d=d: abs(t.logs[1, 0] - t.logs[1, 2] - d) < 0.01)
       for d in (30.0, 39.9, 40.1)},
    # an affine speed: each rebuilt factor's kept logs miss where fval moves
    "affine": (SimplexPoint((0.5, 0.3, 0.2)), (1, 0.9, 0.7), AffineSpeed(0.1, 0.8, 0.7, 0.6),
               2000, lambda t: len({AffineSpeed(0.1, 0.8, 0.7, 0.6)(*x) for x in t.coords.tolist()}) > 1),
    # a constant speed and three parameters: each coordinate keeps its own logs
    "distinct-parameters": (SimplexPoint((0.5, 0.3, 0.2)), (1, 0.8, 0.6), ConstantSpeed(1.0), 2000,
                            lambda t: t.log_domain_from == 0),
}


@pytest.mark.parametrize("case", list(_FIXED))
def test_the_compiled_log_loop_keeps_the_python_loops_bits_where_libm_is_fixed(
        compiled, monkeypatch, case):
    start, abc, speed, n_steps, reached = _FIXED[case]
    args = (start, Parameters(*abc), speed, n_steps)
    want = oracles.python_loops(_run_bits, iterate, *args, mode="log")
    assert oracles.python_loops(lambda: reached(iterate(*args, mode="log")))
    records = _kernel_calls(monkeypatch)
    assert _run_bits(iterate, *args, mode="log") == want
    assert records == [(n_steps, 0)]


# The sectors the compiled loop hands back are analysis.sector_array's, each
# in the domain of its sample. At the switch of the first run, step 1, x1 and
# x2 are neighbouring doubles whose logs are equal: its sample's sector is 3
# by its logs, where its coordinates would give 4. The starts of the last
# 52 runs are the 26 nonzero triples over {0, 1, 2}, normalized: every
# pattern of ties and strict orders, a dead species's log of -inf included,
# in each domain.
_TIE_STARTS = [make_point(*(v / sum(t) for v in t))
               for t in itertools.product((0.0, 1.0, 2.0), repeat=3) if any(t)]


@pytest.mark.parametrize("start, speed, n_steps, stride, mode", [
    (make_point(1.2e-100, math.nextafter(6e-101, 1.0), 1.0), ConstantSpeed(0.5), 20, 1, "auto"),
    (make_point(1e-50, math.nextafter(1e-50, 1.0), 1.0), ConstantSpeed(0.5), 400, 1, "auto"),
    (make_point(1e-50, math.nextafter(1e-50, 1.0), 1.0), ConstantSpeed(0.5), 400, 7, "auto"),
    (SimplexPoint((0.5, 0.3, 0.2)), ConstantSpeed(1.0), 400, 7, "auto"),  # switch at 74
    (SimplexPoint((0.5, 0.3, 0.2)), ConstantSpeed(1.0), 400, 1, "log"),
    (SimplexPoint((0.5, 0.3, 0.2)), ConstantSpeed(1.0), 400, 1, "linear"),
] + [(start, ConstantSpeed(0.5), 0, 1, mode) for mode in ("linear", "log") for start in _TIE_STARTS])
def test_iterate_hands_back_each_samples_sector_in_its_own_domain(compiled, start, speed, n_steps,
                                                                  stride, mode):
    traj = iterate(start, Parameters(1, 1, 1), speed, n_steps, stride=stride, mode=mode)
    got = traj.observables.pop("sector")
    assert got.dtype == np.int8
    assert got.tolist() == sector_array(traj).tolist()
    if n_steps == 20:
        assert traj.log_domain_from == 1 and got[1] == 3
        assert (traj.coords[1, 0] < traj.coords[1, 1]) and traj.logs[1, 0] == traj.logs[1, 1]


@st.composite
def _sector_inputs(draw):
    """``_iterate_inputs`` at stride 1 or 7."""
    start, params, speed, n_steps, _, mode = draw(_iterate_inputs())
    return start, params, speed, n_steps, draw(st.sampled_from((1, 7))), mode


# The same on the draws in all three modes. About 30 of the 200 are auto
# runs that switch mid-run; a log run from a start off the simplex, which
# the kernel does not take whole, hands back no sectors.
@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(args=_sector_inputs())
def test_iterate_hands_back_the_sectors_of_sector_array(compiled, args):
    start, params, speed, n_steps, stride, mode = args
    try:
        traj = iterate(start, params, speed, n_steps, stride=stride, mode=mode)
    except NonPositiveFactor:
        return
    got = traj.observables.pop("sector", None)
    if got is not None:
        assert got.tolist() == sector_array(traj).tolist()


# A counting profiler replaces dynamics.log_sum_exp. The kernel's run takes
# log steps without calling it, so its record is discarded and the Python
# loop runs the whole request: 74 linear steps, the switch and every log step.
def test_a_replaced_log_sum_exp_sends_a_run_with_log_steps_to_python(compiled, monkeypatch):
    args = (SimplexPoint((0.5, 0.3, 0.2)), Parameters(1, 1, 1), ConstantSpeed(1.0), 400)
    want = oracles.python_loops(_run_bits, iterate, *args, stride=3, mode="auto")
    calls = {"_step_log": 0, "log_sum_exp": 0}

    def counting(name):
        original = getattr(dynamics, name)

        def counted(*a):
            calls[name] += 1
            return original(*a)
        return counted

    for name in calls:
        monkeypatch.setattr(dynamics, name, counting(name))
    records = _kernel_calls(monkeypatch)
    got = _run_bits(iterate, *args, stride=3, mode="auto")
    assert got == want
    assert got[3] == 74
    assert records == [(400, 74)]  # a whole run, discarded
    assert calls["_step_log"] == 400 - 74
    assert calls["log_sum_exp"] >= calls["_step_log"]


# A corrupt start (off the simplex, as SimplexPoint allows) whose update sums
# to 0 at step 4. The Python loop's division by that sum raises
# NonPositiveFactor, with the compiled loop or without it.
ZERO_SUM = (SimplexPoint((0.0, 3.0, -2.0)), Parameters(-0.9863237842422086, 0.5, -1.0),
            ConstantSpeed(1.0), 394)


# A start whose first update is (inf, -inf, 0.0), which math.fsum cannot sum
# and sf_fsum3 declines, and one whose first update is (inf, 1e200, 0.0),
# whose sum is +inf: divided by it, the coordinates would be (nan, 0.0, 0.0).
NO_SUM = (SimplexPoint((1e200, -1e200, 0.0)), Parameters(-1, 1, 1), ConstantSpeed(1.0), 3)
INF_SUM = (SimplexPoint((1e200, 1.0, 0.0)), Parameters(1, 1, 1), ConstantSpeed(1.0), 3)


def test_an_update_that_sums_to_0_raises_non_positive_factor():
    for args, mode, match in ((ZERO_SUM, "auto", "at step 4 sums to 0.0"),
                              (NO_SUM, "linear", "at step 1 sums to nan"),
                              (NO_SUM, "auto", "at step 1 sums to nan"),
                              (INF_SUM, "linear", "at step 1 sums to inf"),
                              (INF_SUM, "auto", "at step 1 sums to inf")):
        with pytest.raises(NonPositiveFactor, match=match):
            iterate(*args, mode=mode)
        assert (_run_bits(iterate, *args, mode=mode)
                == oracles.python_loops(_run_bits, iterate, *args, mode=mode))


# A start off the simplex whose first log step rebuilds x1's factor, where
# f*beta = 1e-200 * 1e-150 underflows to 0 and math.log of it would raise a
# bare ValueError. The compiled loop declines at the start's positive logs,
# so the Python loop raises, with the kernel or without it.
def test_a_rebuilt_factor_with_an_underflowed_f_beta_raises_non_positive_factor():
    with pytest.raises(NonPositiveFactor, match="non-positive f"):
        iterate(SimplexPoint((1e100, 7e99, 1.0)), Parameters(-1, 1e-150, 1), ConstantSpeed(1e-200),
                1, mode="log")


# The kernel takes that run's first three steps and stops at the fourth; the
# Python loop reruns the request from step 0, one fsum per linear step.
def test_a_run_the_kernel_stops_short_is_rerun_from_step_0(compiled, monkeypatch):
    records = _kernel_calls(monkeypatch)
    fsums = 0
    fsum = math.fsum

    def counted(values):
        nonlocal fsums
        fsums += 1
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counted)
    got = _run_bits(iterate, *ZERO_SUM, mode="auto")
    monkeypatch.undo()
    assert records == [(3, -1)]
    assert fsums == 4
    assert got[0] is NonPositiveFactor


# At a vertex under f = 1 and unit parameters, one dead species' direct factor
# is 1 - f*beta*1^2 = 0, and so is its rebuild. The kernel keeps a dead
# species at 0 without evaluating either, as the Python loop does, so it takes
# the whole orbit itself: each vertex reaches a different coordinate's update.
@pytest.mark.parametrize("vertex", [1, 2, 3])
def test_the_kernel_takes_every_step_of_a_vertex_orbit(compiled, monkeypatch, vertex):
    args = (vertex_point(vertex), Parameters(1, 1, 1), ConstantSpeed(1.0), 50)
    want = oracles.python_loops(_run_bits, iterate, *args)
    records = _kernel_calls(monkeypatch)
    assert _run_bits(iterate, *args) == want
    assert records == [(50, -1)]


# Runs pinned to the branches the draws reach least often.
@pytest.mark.parametrize("x0, n_steps, stride, mode, branch", [
    ((0.6, 0.4, 0.0), 100, 1, "linear", "split"),   # the README's face run
    ((0.3, 0.3, 0.4), 2000, 7, "linear", "split"),
    ((0.6, 0.4, 0.0), 100, 103, "auto", "split"),    # a face orbit; it switches at step 10
    ((0.5, 0.3, 0.2), 400, 3, "auto", "switch"),
    ((0.0, 3.0, -2.0), 10, 1, "linear", "raise"),
    ((0.0, 3.0, -2.0), 10, 1, "auto", "raise"),
    # strides that int64 cannot hold record the start and the last step; a
    # log run's log_domain_from is 0, which the "switch" branch accepts
    *[((0.6, 0.4, 0.0), 20, stride, mode, branch) for stride in (2**63, 2**64 + 1, 2**64 + 3)
      for mode, branch in (("linear", "split"), ("log", "switch"), ("auto", "switch"))],
])
def test_iterate_matches_the_one_step_loop_on_pinned_runs(monkeypatch, x0, n_steps, stride, mode,
                                                          branch):
    args = (SimplexPoint(x0), Parameters(1, 1, 1), ConstantSpeed(1.0), n_steps)
    want = _run_bits(oracles.iterate, *args, stride=stride, mode=mode)
    # through the compiled loop, where it builds
    assert _run_bits(iterate, *args, stride=stride, mode=mode) == want

    # the Python loop, whose rebuilds can be counted
    rebuilt = 0
    original = dynamics._split_factor

    def counted(*args):
        nonlocal rebuilt
        rebuilt += 1
        return original(*args)

    monkeypatch.setattr(kernel, "_lib", None)
    monkeypatch.setattr(dynamics, "_split_factor", counted)
    got = _run_bits(iterate, *args, stride=stride, mode=mode)
    assert got == want
    if branch == "split":
        assert rebuilt > 0
    elif branch == "switch":
        assert got[3] is not None
    else:
        assert got[0] is NonPositiveFactor


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(start=_starts(), abc=st.one_of(_unit_parameters(), st.tuples(*[_signed_unit] * 3)),
       speed=st.one_of(st.just(ConstantSpeed(1.0)), _speed.map(ConstantSpeed), _affine_speeds()))
def test_step_and_face_restriction_match_the_one_step_oracle(start, abc, speed):
    params = Parameters(*abc)
    x1, x2, x3 = start.coords

    def expect(x1, x2, x3):
        try:
            return tuple(v.hex() for v in oracles.step_linear(
                x1, x2, x3, params.a, params.b, params.c, speed(x1, x2, x3)))
        except NonPositiveFactor:
            return NonPositiveFactor

    def got(fn, p):
        try:
            return tuple(v.hex() for v in fn(p, params, speed).coords)
        except NonPositiveFactor:
            return NonPositiveFactor

    assert got(step, start) == expect(x1, x2, x3)
    if sum(v == 0.0 for v in start.coords) == 1 and min(start.coords) >= 0.0:
        # a face point as make_point gives it: the projection renormalizes
        s = math.fsum(start.coords)
        assert got(restrict_to_face, start) == expect(x1 / s, x2 / s, x3 / s)


def _point_bits(fn, *args):
    """float.hex of a point's logs and coordinates, or the error it raised."""
    try:
        p = fn(*args)
    except NonPositiveFactor as exc:
        return repr(exc)
    return tuple(v.hex() for v in p.logs + p.coords)


# step_log is a one-step view of iterate. With a constant speed it is the
# plain log stepper followed by exp, bit for bit; with an affine speed it is
# the first step of a longer log run.
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(args=_log_step_inputs(), affine=st.one_of(st.none(), _affine_speeds()))
def test_step_log_is_the_first_step_of_a_log_run(args, affine):
    logs, xs, (a, b, c, f) = args[:3], args[3:6], args[6:]
    p = SimplexPoint(xs, logs)
    params = Parameters(a, b, c)
    got = _point_bits(step_log, p, params, affine or ConstantSpeed(f))
    if affine is None:
        def expect():
            m = oracles.step_log(*logs, *xs, a, b, c, f)
            return SimplexPoint(tuple(math.exp(v) for v in m), m)
        assert got == _point_bits(expect)
    else:
        assert got == _point_bits(lambda: iterate(p, params, affine, 3, mode="log").point(1))


# ---------------------------------------------------------------------------
# reference map
# ---------------------------------------------------------------------------

def test_zakharevich_examples():
    third = 1.0 / 3.0
    p = make_point(third, third, third)
    got = zakharevich_step(p)
    assert max(abs(v - third) for v in got.coords) <= 1e-15
    assert zakharevich_step(vertex_point(1)).coords == (1.0, 0.0, 0.0)
    got = zakharevich_step(make_point(0.5, 0.5, 0.0))
    exact = rational_zakharevich((Fraction(1, 2), Fraction(1, 2), 0))
    assert exact == (Fraction(3, 4), Fraction(1, 4), Fraction(0))
    assert got.coords == (0.75, 0.25, 0.0)


def test_zakharevich_simplex_exact_under_oracle():
    rng = random.Random(67)
    for _ in range(50):
        x = random_rational_point(rng)
        y = rational_zakharevich(x)
        assert sum(y) == 1
