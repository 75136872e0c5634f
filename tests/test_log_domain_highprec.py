"""Log-domain stepper against an arbitrary-precision oracle.

The linear stepper can only cross-check log stepping down to ~1e-200; the
violent all-positive, full-speed orbit drives coordinates to e^-300 and far
beyond within a few hundred steps, so this route is validated against
mpmath instead. Where the kernel builds, the runs take the compiled log
loop, and their logs must also be the Python loop's, bit for bit.
"""
import math

import pytest

mpmath = pytest.importorskip("mpmath")

from simplexflow import ConstantSpeed, Parameters, iterate, make_point

import oracles

# (x0, (a, b, c), f, steps) of the four runs below
RUNS = {
    "deep_sojourn": ((0.5, 0.3, 0.2), (1, 1, 1), 1.0, 300),
    "moderate_speed": ((0.2, 0.45, 0.35), (0.8, 0.6, 0.9), 0.5, 400),
    "three_split_terms": ((0.3, 0.3, 0.4), (-1, 1, -1), 0.8, 400),
    "f_beta_near_one": ((0.5, 0.3, 0.2), (1, 0.97, 1), 1.0, 300),
}


def _log_run(name):
    x0, abc, f, n = RUNS[name]
    return iterate(make_point(*x0), Parameters(*abc), ConstantSpeed(f), n, mode="log")


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


def _tracked(name, dps):
    """The log run ``name`` and its worst relative log error against an
    mpmath orbit at ``dps`` digits, over every step."""
    x0, abc, f, n = RUNS[name]
    reference = mp_orbit_logs(x0, *abc, f, n, dps=dps)
    traj = _log_run(name)
    worst = 0.0
    for k in range(1, n + 1):
        for i in range(3):
            ref = reference[k - 1][i]
            got = float(traj.logs[k, i])
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return traj, worst


def test_log_stepper_tracks_high_precision_orbit_through_deep_sojourn():
    traj, worst = _tracked("deep_sojourn", dps=900)
    # the orbit reaches log x ~ -6e4 here; the stepper stays within 1e-11
    assert min(traj.logs[-1]) < -5e4
    assert worst <= 1e-11, f"relative log error {worst:.2e}"


def test_log_stepper_tracks_high_precision_orbit_moderate_speed():
    _, worst = _tracked("moderate_speed", dps=200)
    assert worst <= 1e-12, f"relative log error {worst:.2e}"


def test_log_stepper_tracks_high_precision_orbit_through_three_split_terms():
    # a = -1 < 0 and f*b = 0.8 < 1: whenever x1's factor is rebuilt, the
    # split (1 - f*b) + f*b*(x1 + x2)*(1 + x3) + f*a*x1*x2 has three live
    # terms, one of them negative.
    traj, worst = _tracked("three_split_terms", dps=300)
    fires = sum(oracles.cancel_free_fires(*traj.logs[k].tolist(), *traj.coords[k].tolist(),
                                          -1.0, 1.0, -1.0, 0.8) for k in range(len(traj) - 1))
    assert fires >= 300
    assert worst <= 1e-12, f"relative log error {worst:.2e}"


def test_log_stepper_tracks_high_precision_orbit_at_f_beta_near_one():
    # f*b = 0.97 is near 1 but not 1: x1's factor next to vertex 3 stays
    # near 1 - f*b = 0.03, and the orbit falls about as deep as the f*b = 1
    # sojourn above
    traj, worst = _tracked("f_beta_near_one", dps=300)
    assert min(traj.logs[-1]) < -5e4
    assert worst <= 1e-11, f"relative log error {worst:.2e}"


# The runs above took the compiled log loop where it builds; the Python
# loop's logs are the reference, bit for bit.
@pytest.mark.parametrize("name", RUNS)
def test_the_compiled_log_loop_gives_the_python_loops_logs(compiled, name):
    got, want = _log_run(name), oracles.python_loops(_log_run, name)
    assert [v.hex() for v in got.logs.ravel().tolist()] \
        == [v.hex() for v in want.logs.ravel().tolist()]
