"""Log-domain stepper against an arbitrary-precision oracle.

The linear stepper can only cross-check log stepping down to ~1e-200; the
violent all-positive, full-speed orbit drives coordinates to e^-300 and far
beyond within a few hundred steps, so this route is validated against
mpmath instead.
"""
import math

import pytest

mpmath = pytest.importorskip("mpmath")

from simplexflow import ConstantSpeed, Parameters, iterate, make_point

import oracles


def mp_orbit_logs(x0, a, b, c, f, n_steps, dps):
    mpmath.mp.dps = dps
    x = [mpmath.mpf(repr(v)) for v in x0]
    a, b, c, f = (mpmath.mpf(v) for v in (a, b, c, f))
    logs = []
    for _ in range(n_steps):
        x1, x2, x3 = x
        y1 = x1 * (1 + (a * x1 * x2 - b * x3 * x3) * f)
        y2 = x2 * (1 + (c * x2 * x3 - a * x1 * x1) * f)
        y3 = x3 * (1 + (b * x3 * x1 - c * x2 * x2) * f)
        s = y1 + y2 + y3
        x = [y1 / s, y2 / s, y3 / s]
        logs.append([float(mpmath.log(v)) for v in x])
    return logs


def test_log_stepper_tracks_high_precision_orbit_through_deep_sojourn():
    x0 = (0.5, 0.3, 0.2)
    n = 300
    reference = mp_orbit_logs(x0, 1, 1, 1, 1, n, dps=900)
    traj = iterate(make_point(*x0), Parameters(1, 1, 1), ConstantSpeed(1.0), n, mode="log")
    assert traj.logs is not None
    worst = 0.0
    for k in range(1, n + 1):
        for i in range(3):
            ref = reference[k - 1][i]
            got = float(traj.logs[k, i])
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    # the orbit reaches log x ~ -6e4 here; the stepper stays within 1e-11
    assert min(traj.logs[n]) < -5e4
    assert worst <= 1e-11, f"relative log error {worst:.2e}"


def test_log_stepper_tracks_high_precision_orbit_moderate_speed():
    x0 = (0.2, 0.45, 0.35)
    n = 400
    reference = mp_orbit_logs(x0, 0.8, 0.6, 0.9, 0.5, n, dps=200)
    traj = iterate(make_point(*x0), Parameters(0.8, 0.6, 0.9), ConstantSpeed(0.5), n, mode="log")
    worst = 0.0
    for k in range(1, n + 1):
        for i in range(3):
            ref = reference[k - 1][i]
            got = float(traj.logs[k, i])
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-12, f"relative log error {worst:.2e}"


def test_log_stepper_tracks_high_precision_orbit_through_three_split_terms():
    # a = -1 < 0 and f*b = 0.8 < 1: whenever x1's factor is rebuilt, the
    # split (1 - f*b) + f*b*(x1 + x2)*(1 + x3) + f*a*x1*x2 has three live
    # terms, one of them negative.
    x0 = (0.3, 0.3, 0.4)
    n = 400
    reference = mp_orbit_logs(x0, -1, 1, -1, 0.8, n, dps=300)
    traj = iterate(make_point(*x0), Parameters(-1, 1, -1), ConstantSpeed(0.8), n, mode="log")
    fires = sum(oracles.cancel_free_fires(*(float(v) for v in traj.logs[k]), -1.0, 1.0, -1.0, 0.8)
                for k in range(n))
    assert fires >= 300
    worst = 0.0
    for k in range(1, n + 1):
        for i in range(3):
            ref = reference[k - 1][i]
            got = float(traj.logs[k, i])
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-12, f"relative log error {worst:.2e}"
