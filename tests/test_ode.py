"""Vector field, Euler/reference paths, and order-of-convergence tests."""
import math
import random
from fractions import Fraction

import pytest

from simplexflow import (
    AffineSpeed,
    ConstantSpeed,
    Parameters,
    convergence_order,
    euler_path,
    lyapunov_derivative,
    make_point,
    phi_gradient,
    reference_path,
    step,
    vector_field,
    vertex_point,
)
from simplexflow.errors import StepTooLarge
from simplexflow.ode import fit_loglog_slope

import oracles
from oracles import rational_vector_field, sample_interior


def test_vector_field_equilibria():
    params = Parameters(0.6, 0.8, 0.4)
    v = vector_field(params.fixed_point, params, ConstantSpeed(1.0))
    assert max(abs(c) for c in v) <= 1e-16
    assert vector_field(vertex_point(2), params, ConstantSpeed(1.0)) == (0.0, 0.0, 0.0)


def test_vector_field_rational_example():
    got = vector_field(make_point(0.5, 0.25, 0.25), Parameters(1, 1, 1), ConstantSpeed(1.0))
    exact = rational_vector_field((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), 1, 1, 1, 1)
    assert exact == (Fraction(1, 32), Fraction(-3, 64), Fraction(1, 64))
    assert sum(exact) == 0
    assert got == (1 / 32, -3 / 64, 1 / 64)


def test_vector_field_tangency():
    rng = random.Random(113)
    for _ in range(500):
        p = make_point(*sample_interior(rng))
        params = Parameters(rng.uniform(-1, 1) or 0.5, rng.uniform(-1, 1) or 0.5, rng.uniform(-1, 1) or 0.5)
        v = vector_field(p, params, ConstantSpeed(rng.uniform(0.05, 1)))
        assert abs(math.fsum(v)) <= 1e-16


def _random_speed(rng):
    if rng.random() < 0.5:
        return ConstantSpeed(rng.uniform(0.05, 1.0))
    a0 = rng.uniform(-0.5, 0.5)
    return AffineSpeed(a0, *(rng.uniform(0.05, 0.99) - a0 for _ in range(3)))


def test_vector_field_and_reference_endpoint_match_the_growth_term_form():
    # The field, and the RK4 run built on it, against the field computed
    # from separately returned growth terms: bit for bit.
    rng = random.Random(127)
    for i in range(400):
        p = make_point(*sample_interior(rng))
        params = Parameters(*(rng.choice((-1, 1)) * rng.uniform(0.05, 1.0) for _ in range(3)))
        speed = _random_speed(rng)
        want = oracles.field(*p.coords, params.a, params.b, params.c, speed)
        got = vector_field(p, params, speed)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        if i % 10 == 0:
            end = reference_path(p, params, speed, 0.5, 1e-3).final.coords
            want = oracles.rk4_endpoint(p.coords, params.a, params.b, params.c, speed, 0.5, 1e-3)
            assert [v.hex() for v in end] == [v.hex() for v in want]


def test_euler_single_step_is_the_map_step():
    p = make_point(0.5, 0.3, 0.2)
    params = Parameters(1, 1, 1)
    f = ConstantSpeed(0.8)
    path = euler_path(p, params, f, horizon=1.0, n=1)
    direct = step(p, params, f.scaled(1.0))
    assert tuple(path.coords[-1]) == direct.coords
    assert len(path) == 2


def test_euler_path_constant_at_fixed_point():
    params = Parameters(0.9, 0.9, 0.9)
    path = euler_path(params.fixed_point, params, ConstantSpeed(1.0), horizon=2.0, n=50)
    assert max(abs(path.coords[-1][i] - params.fixed_point.coords[i]) for i in range(3)) <= 1e-13


def test_euler_richardson_halving():
    # endpoint error is Theta(1/n): doubling n roughly halves the gap
    p = make_point(0.5, 0.3, 0.2)
    params = Parameters(1, 1, 1)
    f = ConstantSpeed(1.0)
    ref = reference_path(p, params, f, horizon=2.0, h=1e-3)
    errs = []
    for n in (400, 800, 1600):
        end = euler_path(p, params, f, horizon=2.0, n=n, record_stride=0).coords[-1]
        errs.append(max(abs(end[i] - ref.coords[-1][i]) for i in range(3)))
    assert 1.6 < errs[0] / errs[1] < 2.4
    assert 1.6 < errs[1] / errs[2] < 2.4


def test_euler_requires_integer_step_count():
    p = make_point(0.5, 0.3, 0.2)
    with pytest.raises(ValueError):
        euler_path(p, Parameters(1, 1, 1), ConstantSpeed(1.0), horizon=0.95, n=10)


def test_reference_path_constant_cases():
    params = Parameters(0.7, 0.7, 0.7)
    path = reference_path(vertex_point(1), params, ConstantSpeed(1.0), horizon=1.0, h=1e-2)
    assert tuple(path.coords[-1]) == (1.0, 0.0, 0.0)
    path = reference_path(params.fixed_point, params, ConstantSpeed(1.0), horizon=1.0, h=1e-2)
    assert max(abs(path.coords[-1][i] - params.fixed_point.coords[i]) for i in range(3)) <= 1e-12


def test_reference_step_cap():
    with pytest.raises(StepTooLarge):
        reference_path(make_point(0.5, 0.3, 0.2), Parameters(1, 1, 1), ConstantSpeed(1.0), 1.0, h=0.02)


def test_reference_self_consistency_on_acceptance_config():
    p = make_point(0.5, 0.3, 0.2)
    params = Parameters(1, 1, 1)
    f = ConstantSpeed(1.0)
    a = reference_path(p, params, f, horizon=5.0, h=1e-3)
    b = reference_path(p, params, f, horizon=5.0, h=5e-4)
    assert max(abs(u - v) for u, v in zip(a.coords[-1], b.coords[-1])) <= 1e-10


def test_ode_run_dispatch():
    p = make_point(0.5, 0.3, 0.2)
    params = Parameters(1, 1, 1)
    f = ConstantSpeed(1.0)
    pe = euler_path(p, params, f, 1.0, 10, 1)
    pr = reference_path(p, params, f, 1.0, 1e-2, 1)
    assert len(pe) == 11
    assert max(abs(u - v) for u, v in zip(pe.coords[-1], pr.coords[-1])) < 0.05


def test_lyapunov_derivative_zero_at_equilibria():
    params = Parameters(0.8, 0.6, 0.9)
    assert abs(lyapunov_derivative(params.fixed_point, params, ConstantSpeed(1.0))) <= 1e-16
    assert lyapunov_derivative(vertex_point(1), params, ConstantSpeed(1.0)) == 0.0


def test_lyapunov_derivative_rational_value():
    # phi * f * sum(L_i g_i) = (1/32) * 1 * (-1/16) = -1/512 for unit parameters
    got = lyapunov_derivative(make_point(0.5, 0.25, 0.25), Parameters(1, 1, 1), ConstantSpeed(1.0))
    assert abs(got - (-1.0 / 512.0)) <= 1e-17
    assert got < 0


def test_lyapunov_derivative_sign_positive_regime():
    rng = random.Random(127)
    for _ in range(10):
        params = Parameters(rng.uniform(0.05, 1), rng.uniform(0.05, 1), rng.uniform(0.05, 1))
        f = ConstantSpeed(rng.uniform(0.05, 1))
        for _ in range(200):
            p = make_point(*sample_interior(rng))
            if max(abs(u - v) for u, v in zip(p.coords, params.fixed_point.coords)) < 1e-6:
                continue
            assert lyapunov_derivative(p, params, f) < 0.0


def test_lyapunov_derivative_sign_negative_regime_with_bound():
    rng = random.Random(131)
    for _ in range(10):
        params = Parameters(-rng.uniform(0.05, 1), -rng.uniform(0.05, 1), -rng.uniform(0.05, 1))
        lmin, lmax = min(params.lambdas), max(params.lambdas)
        f = ConstantSpeed(rng.uniform(0.01, min(1.0, 1.25 * lmin / lmax)))
        for _ in range(200):
            p = make_point(*sample_interior(rng))
            if max(abs(u - v) for u, v in zip(p.coords, params.fixed_point.coords)) < 1e-6:
                continue
            assert lyapunov_derivative(p, params, f) > 0.0


def test_gradient_matches_central_differences():
    rng = random.Random(137)
    h = 1e-6
    for _ in range(50):
        p = make_point(*sample_interior(rng))
        if min(p.coords) < 0.05:
            continue
        params = Parameters(rng.uniform(0.1, 1), rng.uniform(0.1, 1), rng.uniform(0.1, 1))
        grad = phi_gradient(p, params)
        for i in range(3):
            up = list(p.coords)
            dn = list(p.coords)
            up[i] += h
            dn[i] -= h

            def phi_raw(c):
                l1, l2, l3 = params.lambdas
                return c[0] ** l1 * c[1] ** l2 * c[2] ** l3

            fd = (phi_raw(up) - phi_raw(dn)) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_directional_derivative_matches_field():
    # (phi(p + h v) - phi(p)) / h approaches <grad phi, v> at O(h)
    p = make_point(0.5, 0.25, 0.25)
    params = Parameters(1, 1, 1)
    f = ConstantSpeed(1.0)
    v = vector_field(p, params, f)
    exact = lyapunov_derivative(p, params, f)

    def phi_raw(c):
        return c[0] * c[1] * c[2]

    for h in (1e-4, 1e-5):
        fd = (phi_raw([p.coords[i] + h * v[i] for i in range(3)]) - phi_raw(p.coords)) / h
        assert abs(fd - exact) <= 10 * h


def test_fit_loglog_slope_recovers_synthetic_order():
    ns = [10, 100, 1000, 10000]
    errs = [3.7 / n for n in ns]  # exact first order
    slope = fit_loglog_slope([math.log(1 / n) for n in ns], [math.log(e) for e in errs])
    assert abs(slope - 1.0) <= 1e-12


def test_convergence_order_quick_config():
    fit = convergence_order(
        make_point(0.5, 0.3, 0.2), Parameters(1, 1, 1), ConstantSpeed(1.0),
        horizon=1.0, n_list=(50, 200, 1000, 5000), ref_h=2e-3,
    )
    assert not fit.degenerate
    assert 0.85 <= fit.slope <= 1.15, fit
    assert fit.reference_self_error <= 1e-10


def test_convergence_order_degenerate_at_fixed_point():
    params = Parameters(1, 1, 1)
    fit = convergence_order(
        params.fixed_point, params, ConstantSpeed(1.0),
        horizon=1.0, n_list=(10, 100, 1000, 10000), ref_h=1e-2,
    )
    assert fit.degenerate and fit.slope is None
    assert max(fit.errors) <= 1e-12


def test_convergence_order_validates_n_list():
    p = make_point(0.5, 0.3, 0.2)
    params = Parameters(1, 1, 1)
    with pytest.raises(ValueError):
        convergence_order(p, params, ConstantSpeed(1.0), 1.0, (10, 100, 1000))
    with pytest.raises(ValueError):
        convergence_order(p, params, ConstantSpeed(1.0), 1.0, (10, 20, 40, 80))
