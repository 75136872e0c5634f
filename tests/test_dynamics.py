"""Map, face, ratio-form, and iteration tests against exact oracles."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

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
    p = make_point(0.5, 0.25, 0.25).to_log()
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
        log = step_log(make_point(*x).to_log(), params, f)
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
            lin = step(p.to_linear(), params, f)
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
    p = params.fixed_point.to_log()
    got = step_log(p, params, ConstantSpeed(0.7))
    for u, v in zip(p.logs, got.logs):
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
    """(l1, l2, l3, a, b, c, f), logs normalized, with -inf entries and logs
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
    return (*(v - z for v in logs), *abc, f)


# Against the plain form of the stepper, bit for bit. The draws cover -inf
# entries, negative alphas, f*beta = 1 (f = 1 and a parameter of 1) and
# f*beta < 1, and logs near -1e7; 231 of the 400 take the
# cancellation-free branch for at least one coordinate.
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
    fires = sum(oracles.cancel_free_fires(*(float(v) for v in traj.logs[k]), *map(float, abc), f)
                for k in range(start, n))
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
    assert set(t.observables) >= {"phi", "log_phi", "sector"}
    assert len(t.observables["phi"]) == len(t)
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


# Against the one-step-per-call loop, bit for bit. Of the 300 draws, 113
# run linear, 98 log and 89 auto; 21 auto runs switch, 13 runs rebuild a
# factor from the split, 36 use an affine speed, 149 record only their
# endpoints (stride n_steps or n_steps + 3), and 9 raise.
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(args=_iterate_inputs())
def test_iterate_matches_the_one_step_loop_bit_for_bit(args):
    start, params, speed, n_steps, stride, mode = args
    assert (_run_bits(iterate, start, params, speed, n_steps, stride=stride, mode=mode)
            == _run_bits(oracles.iterate, start, params, speed, n_steps, stride=stride, mode=mode))


# The compiled linear and log loops against the Python loops, on the draws
# above in all three modes.
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(args=_iterate_inputs())
def test_the_compiled_loops_match_the_python_loops_bit_for_bit(compiled, args):
    start, params, speed, n_steps, stride, mode = args
    assert (_run_bits(iterate, start, params, speed, n_steps, stride=stride, mode=mode)
            == oracles.python_loops(_run_bits, iterate, start, params, speed, n_steps,
                                    stride=stride, mode=mode))


def _kernel_calls(monkeypatch):
    """The ``(state, record)`` each ``kernel.iterate_run`` call hands back, as
    the calls are made; None for a call where the kernel did not run."""
    handed_back = []
    original = kernel.iterate_run

    def spied(*args):
        handed_back.append(original(*args))
        return handed_back[-1]

    monkeypatch.setattr(kernel, "iterate_run", spied)
    return handed_back


# Log and auto runs pinned to the branches of the compiled loop. Each makes
# one kernel call, and none calls the Python log stepper, except the corrupt
# start, whose first step the kernel hands back: its factor for x1 is
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
    handed_back = _kernel_calls(monkeypatch)
    got = _run_bits(iterate, *args, stride=stride, mode=mode)
    assert got == want
    assert len(handed_back) == 1 and handed_back[0] is not None
    assert calls == python_steps
    if python_steps:
        assert got == (NonPositiveFactor, "non-positive update factor in log domain")
    else:
        assert got[3] is not None and got[0][-1] == n_steps
    if 0.0 in start.coords:  # the extinct species' log is -inf in every log row
        assert (-math.inf).hex() in got[2]


# A counting profiler replaces dynamics.log_sum_exp: the kernel still takes
# the linear steps and the switch, and hands every log step to _step_log.
def test_a_replaced_log_sum_exp_leaves_the_switch_compiled_and_the_log_steps_in_python(
        compiled, monkeypatch):
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
    handed_back = _kernel_calls(monkeypatch)
    got = _run_bits(iterate, *args, stride=3, mode="auto")
    assert got == want
    switch = got[3]
    (_, (n_done, _, _, log_from)), = handed_back
    assert n_done == log_from == switch == 74
    assert calls["_step_log"] == 400 - switch
    assert calls["log_sum_exp"] >= calls["_step_log"]


# At a vertex under f = 1 and unit parameters, one dead species' direct factor
# is 1 - f*beta*1^2 = 0, and so is its rebuild. The kernel keeps a dead
# species at 0 without evaluating either, as the Python loop does, so it takes
# the whole orbit itself: each vertex reaches a different coordinate's update.
@pytest.mark.parametrize("vertex", [1, 2, 3])
def test_the_kernel_takes_every_step_of_a_vertex_orbit(compiled, monkeypatch, vertex):
    args = (vertex_point(vertex), Parameters(1, 1, 1), ConstantSpeed(1.0), 50)
    want = oracles.python_loops(_run_bits, iterate, *args)
    handed_back = _kernel_calls(monkeypatch)
    assert _run_bits(iterate, *args) == want
    (_, (n_done, k, _, log_from)), = handed_back
    assert (n_done, k, log_from) == (50, 51, -1)


# Runs pinned to the branches the draws reach least often.
@pytest.mark.parametrize("x0, n_steps, stride, mode, branch", [
    ((0.6, 0.4, 0.0), 100, 1, "linear", "split"),   # the README's face run
    ((0.3, 0.3, 0.4), 2000, 7, "linear", "split"),
    ((0.6, 0.4, 0.0), 100, 103, "auto", "split"),    # a face orbit; it switches at step 10
    ((0.5, 0.3, 0.2), 400, 3, "auto", "switch"),
    ((0.0, 3.0, -2.0), 10, 1, "linear", "raise"),
    ((0.0, 3.0, -2.0), 10, 1, "auto", "raise"),
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
    logs, (a, b, c, f) = args[:3], args[3:]
    p = SimplexPoint(tuple(math.exp(v) for v in logs), logs)
    params = Parameters(a, b, c)
    got = _point_bits(step_log, p, params, affine or ConstantSpeed(f))
    if affine is None:
        def expect():
            m = oracles.step_log(*logs, a, b, c, f)
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
