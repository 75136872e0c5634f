"""Monotone functional, sectors, audits, regimes, and orbit diagnostics."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from simplexflow import (
    ConstantSpeed,
    Parameters,
    Trajectory,
    attach_observables,
    classify_regime,
    detect_convergence,
    estimate_gamma0,
    iterate,
    log_phi,
    lyapunov_phi,
    make_point,
    nearest_vertex,
    omega_limit_estimate,
    persistence_report,
    phi_decay_stats,
    psi,
    quad_form,
    sector,
    sector_cycle_audit,
    sojourn_stats,
    step,
    vertex_point,
)
from simplexflow.analysis import MIN_GRID, sector_array
from simplexflow.errors import StrideTooCoarse

from oracles import cell_of, rational_psi_unit_lambdas, sample_interior


def _traj_from_coords(coords, params, stride=1):
    coords = np.asarray(coords, dtype=np.float64)
    return Trajectory(
        params=params,
        stride=stride,
        steps=np.arange(len(coords), dtype=np.int64) * stride,
        coords=coords,
    )


# ---------------------------------------------------------------------------
# phi / psi / quadratic form
# ---------------------------------------------------------------------------

def test_phi_symmetric_point():
    params = Parameters(1, 1, 1)
    assert abs(lyapunov_phi(make_point(1 / 3, 1 / 3, 1 / 3), params) - 1 / 27) <= 1e-16


def test_phi_zero_on_boundary():
    params = Parameters(0.3, -0.8, 0.5)
    assert lyapunov_phi(vertex_point(1), params) == 0.0
    assert lyapunov_phi(make_point(0.5, 0.5, 0.0), params) == 0.0
    assert log_phi(vertex_point(2), params) == float("-inf")


def test_phi_rational_example():
    params = Parameters(1, 1, 1)
    assert abs(lyapunov_phi(make_point(0.5, 0.25, 0.25), params) - 1 / 32) <= 1e-17


def test_phi_maximal_at_fixed_point():
    rng = random.Random(71)
    params = Parameters(0.8, 0.4, 0.6)
    peak = lyapunov_phi(params.fixed_point, params)
    for _ in range(500):
        p = make_point(*sample_interior(rng))
        assert lyapunov_phi(p, params) <= peak + 1e-15


def test_psi_one_at_fixed_point():
    for sign in (1.0, -1.0):
        params = Parameters(sign * 0.7, sign * 0.9, sign * 0.3)
        v = psi(params.fixed_point, params, ConstantSpeed(0.4))
        assert abs(v - 1.0) <= 1e-14


def test_psi_rational_example_positive():
    got = psi(make_point(0.5, 0.25, 0.25), Parameters(1, 1, 1), ConstantSpeed(1.0))
    exact = rational_psi_unit_lambdas((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), 1, 1, 1, 1)
    assert exact == Fraction(3757, 4096)
    assert abs(got - float(exact)) <= 1e-14


def test_psi_rational_example_negative():
    got = psi(make_point(0.5, 0.25, 0.25), Parameters(-1, -1, -1), ConstantSpeed(0.5))
    exact = rational_psi_unit_lambdas(
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), -1, -1, -1, Fraction(1, 2)
    )
    assert exact == Fraction(33635, 32768)
    assert got > 1.0
    assert abs(got - float(exact)) <= 1e-14


def test_phi_step_multiplier_identity():
    rng = random.Random(73)
    for _ in range(300):
        p = make_point(*sample_interior(rng))
        params = Parameters(rng.uniform(-1, 1) or 0.5, rng.uniform(-1, 1) or 0.5, rng.uniform(-1, 1) or 0.5)
        f = ConstantSpeed(rng.uniform(0.05, 1))
        lhs = lyapunov_phi(step(p, params, f), params)
        rhs = lyapunov_phi(p, params) * psi(p, params, f)
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)


def test_psi_at_most_one_for_positive_parameters():
    rng = random.Random(79)
    for _ in range(20):
        params = Parameters(rng.uniform(0.05, 1), rng.uniform(0.05, 1), rng.uniform(0.05, 1))
        f = ConstantSpeed(rng.uniform(0.05, 1))
        for _ in range(500):
            p = make_point(*sample_interior(rng))
            assert psi(p, params, f) <= 1.0 + 1e-15


def test_psi_at_least_one_for_negative_parameters_with_speed_bound():
    rng = random.Random(83)
    for _ in range(20):
        params = Parameters(-rng.uniform(0.05, 1), -rng.uniform(0.05, 1), -rng.uniform(0.05, 1))
        lmin, lmax = min(params.lambdas), max(params.lambdas)
        f = ConstantSpeed(rng.uniform(0.01, min(1.0, 1.25 * lmin / lmax)))
        for _ in range(500):
            p = make_point(*sample_interior(rng))
            v = psi(p, params, f)
            assert v >= 1.0 - 1e-15
            if quad_form(p, params) >= 1e-3:
                assert v > 1.0 + 1e-12


def test_quad_form_zero_only_at_fixed_point():
    rng = random.Random(89)
    params = Parameters(0.9, 0.5, 0.7)
    assert quad_form(params.fixed_point, params) <= 1e-30
    for _ in range(200):
        p = make_point(*sample_interior(rng))
        if max(abs(u - v) for u, v in zip(p.coords, params.fixed_point.coords)) > 1e-6:
            assert quad_form(p, params) > 0.0


def test_quad_form_vertex_value():
    assert quad_form(vertex_point(1), Parameters(1, 1, 1)) == 2.0


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

def test_sector_examples():
    params = Parameters(1, 1, 1)
    assert sector(make_point(0.5, 0.3, 0.2), params) == 1
    assert sector(make_point(0.2, 0.3, 0.5), params) == 4
    # six-way tie at the fixed point resolves to the first sector
    assert sector(params.fixed_point, params) == 1


def test_sector_tie_priority():
    params = Parameters(1, 1, 1)
    assert sector(make_point(0.4, 0.4, 0.2), params) == 1  # y1 == y2 >= y3
    assert sector(make_point(0.4, 0.2, 0.4), params) == 2  # y1 == y3 >= y2
    assert sector(make_point(0.2, 0.4, 0.4), params) == 4  # y3 == y2 >= y1 hits G4 first


def test_sector_respects_lambda_rescaling():
    params = Parameters(1, 1, 0.125)  # lambdas (1/4, 1, 1/2)
    # ratios are (4*x1, x2, 2*x3)
    assert sector(make_point(0.3, 0.5, 0.2), params) == 1  # (1.2, 0.5, 0.4)
    assert sector(make_point(0.1, 0.5, 0.4), params) == 4  # (0.4, 0.5, 0.8)


def test_sector_matches_bruteforce_ordering():
    rng = random.Random(97)
    params = Parameters(1, 1, 0.125)
    l1, l2, l3 = params.lambdas
    orderings = {
        1: (1, 2, 3), 2: (1, 3, 2), 3: (3, 1, 2),
        4: (3, 2, 1), 5: (2, 3, 1), 6: (2, 1, 3),
    }
    for _ in range(500):
        p = make_point(*sample_interior(rng))
        y = (p.coords[0] / l1, p.coords[1] / l2, p.coords[2] / l3)
        expect = None
        for idx in range(1, 7):
            hi, mid, lo = orderings[idx]
            if y[hi - 1] >= y[mid - 1] >= y[lo - 1]:
                expect = idx
                break
        assert sector(p, params) == expect


def test_sector_array_matches_scalar():
    rng = random.Random(101)
    params = Parameters(0.5, 1, 0.25)
    coords = [sample_interior(rng) for _ in range(200)]
    traj = _traj_from_coords(coords, params)
    arr = sector_array(traj)
    for k, c in enumerate(coords):
        assert arr[k] == sector(make_point(*c), params)


# ---------------------------------------------------------------------------
# sector cycle audit and the empirical threshold
# ---------------------------------------------------------------------------

def test_audit_constant_fixed_point():
    params = Parameters(1, 1, 1)
    coords = [params.fixed_point.coords] * 50
    traj = _traj_from_coords(coords, params)
    audit = sector_cycle_audit(traj, gamma=1.0)
    assert audit.violation_count == 0
    assert audit.transitions == {}
    assert audit.visits[1] == 1 and sum(audit.visits.values()) == 1
    assert not audit.degenerate_filter


def test_audit_boundary_degenerate_filter():
    params = Parameters(1, 1, 1)
    coords = [(t, 0.0, 1 - t) for t in np.linspace(0.2, 0.8, 30)]
    traj = _traj_from_coords(coords, params)
    audit = sector_cycle_audit(traj, gamma=0.5)
    assert audit.degenerate_filter  # phi is identically zero on the face


def test_audit_flags_illegal_jump():
    params = Parameters(1, 1, 1)
    coords = [(0.5, 0.3, 0.2), (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (0.2, 0.3, 0.5)]
    traj = _traj_from_coords(coords, params)
    audit = sector_cycle_audit(traj, gamma=1.0)  # sector 1 -> 4 jump
    assert audit.violation_count == 1
    assert audit.transitions == {(1, 4): 1}


def test_audit_requires_stride_one():
    params = Parameters(1, 1, 1)
    traj = _traj_from_coords([(0.5, 0.3, 0.2)] * 5, params, stride=10)
    with pytest.raises(StrideTooCoarse):
        sector_cycle_audit(traj, gamma=1.0)


def test_audit_real_cycling_prefix_is_legal():
    # the first loop around the six sectors obeys the cyclic transition law
    p = make_point(0.5, 0.3, 0.2)
    traj = iterate(p, Parameters(1, 1, 1), ConstantSpeed(1.0), 2000, mode="auto")
    attach_observables(traj)
    audit = sector_cycle_audit(traj, gamma=lyapunov_phi(p, Parameters(1, 1, 1)))
    assert audit.violation_count == 0, audit.violations
    assert all((j == i or j == i % 6 + 1) for (i, j) in audit.transitions)


def test_estimate_gamma0_on_clean_run():
    p = make_point(0.5, 0.3, 0.2)
    traj = iterate(p, Parameters(1, 1, 1), ConstantSpeed(1.0), 500, mode="auto")
    attach_observables(traj)
    g0 = estimate_gamma0(traj)
    assert g0 is not None and g0 > 0
    assert sector_cycle_audit(traj, g0).violation_count == 0


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(weights=st.tuples(*[st.floats(0.01, 1.0)] * 3),
       signs=st.sampled_from(((1, 1, 1), (-1, -1, -1), (1, -1, 1), (-1, 1, 1), (1, 1, -1))),
       size=st.tuples(*[st.floats(0.1, 1.0)] * 3), f=st.floats(0.1, 1.0),
       n_steps=st.integers(50, 400))
def test_audit_is_clean_at_the_estimated_gamma0(weights, signs, size, f, n_steps):
    # the estimate is the largest grid level whose audit is clean: the level
    # above it, twice as high, is dirty unless the estimate is the top phi
    s = math.fsum(weights)
    params = Parameters(*(sign * m for sign, m in zip(signs, size)))
    traj = iterate(make_point(*(w / s for w in weights)), params, ConstantSpeed(f), n_steps,
                   mode="auto")
    g0 = estimate_gamma0(traj)
    if g0 is None:
        return
    assert sector_cycle_audit(traj, g0).violation_count == 0
    lp = traj.observables["log_phi"]
    if g0 < math.exp(lp[np.isfinite(lp)].max()):
        assert sector_cycle_audit(traj, 2.0 * g0).violation_count > 0


def test_estimate_gamma0_shrinks_below_synthetic_violation():
    params = Parameters(1, 1, 1)
    # an illegal 1 -> 4 hop at phi ~ 0.03, then a tail far below it
    coords = [(0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (0.9, 0.09, 0.01), (0.9, 0.09, 0.01)]
    traj = _traj_from_coords(coords, params)
    g0 = estimate_gamma0(traj)
    assert g0 is not None
    assert g0 < lyapunov_phi(make_point(0.2, 0.3, 0.5), params)
    assert sector_cycle_audit(traj, g0).violation_count == 0


# ---------------------------------------------------------------------------
# sojourns
# ---------------------------------------------------------------------------

def test_sojourn_constant_at_vertex():
    params = Parameters(1, 1, 1)
    traj = _traj_from_coords([(1.0, 0.0, 0.0)] * 20, params)
    runs = sojourn_stats(traj, eps=0.05)
    assert len(runs[1]) == 1
    s = runs[1][0]
    assert (s.start_step, s.end_step, s.length) == (0, 19, 20)
    assert runs[2] == [] and runs[3] == []


def test_sojourn_synthetic_runs():
    params = Parameters(1, 1, 1)
    near1 = (0.97, 0.02, 0.01)
    near2 = (0.03, 0.96, 0.01)
    mid = (0.5, 0.3, 0.2)
    coords = [near1, near1, mid, near2, near2, near2, mid, near1]
    traj = _traj_from_coords(coords, params)
    runs = sojourn_stats(traj, eps=0.05)
    assert [(s.start_step, s.end_step) for s in runs[1]] == [(0, 1), (7, 7)]
    assert [(s.start_step, s.end_step) for s in runs[2]] == [(3, 5)]
    assert runs[3] == []


def test_sojourn_vertex_regime_ends_in_permanent_run():
    p = make_point(0.4, 0.35, 0.25)
    traj = iterate(p, Parameters(1, -1, 1), ConstantSpeed(0.5), 20_000)
    runs = sojourn_stats(traj, eps=0.05)
    assert runs[1], "expected a sojourn at the limit vertex"
    last = runs[1][-1]
    assert last.end_step == traj.n_steps
    assert last.length == max(s.length for s in runs[1])


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_classify_regime_examples():
    r = classify_regime(Parameters(1, -1, 1))
    assert r.regime == "vertex_convergence" and r.persistence == "none"
    assert r.predicted_limit is None
    r = classify_regime(Parameters(1, 1, 1))
    assert r.regime == "non_ergodic_cycling" and r.persistence == "weak"
    assert r.predicted_limit is None
    r = classify_regime(Parameters(-1, -1, -1))
    assert r.regime == "interior_convergence" and r.persistence == "strong"
    assert max(abs(v - 1 / 3) for v in r.predicted_limit.coords) <= 1e-15


def test_classify_regime_scale_invariance():
    rng = random.Random(103)
    for _ in range(50):
        a, b, c = (rng.uniform(-1, 1) or 0.5 for _ in range(3))
        t = rng.uniform(0.05, 1.0)
        base = classify_regime(Parameters(a, b, c))
        scaled = classify_regime(Parameters(t * a, t * b, t * c))
        assert base.regime == scaled.regime
        if base.predicted_limit is not None:
            assert max(
                abs(u - v)
                for u, v in zip(base.predicted_limit.coords, scaled.predicted_limit.coords)
            ) <= 1e-14


# ---------------------------------------------------------------------------
# convergence detection / persistence / limit-set proxy
# ---------------------------------------------------------------------------

def test_detect_convergence_constant():
    params = Parameters(1, 1, 1)
    traj = _traj_from_coords([(0.5, 0.3, 0.2)] * 150, params)
    got = detect_convergence(traj, tol=1e-12, window=100)
    assert got is not None and got.coords == (0.5, 0.3, 0.2)


def test_detect_convergence_interior_regime_example():
    params = Parameters(-1, -1, -0.125)
    traj = iterate(make_point(0.41, 0.3, 0.29), params, ConstantSpeed(0.3), 5000)
    got = detect_convergence(traj, tol=1e-10, window=100)
    assert got is not None
    assert max(abs(v - e) for v, e in zip(got.coords, (1 / 7, 4 / 7, 2 / 7))) <= 1e-8


def test_detect_convergence_none_over_a_full_cycle_window():
    traj = iterate(make_point(0.5, 0.3, 0.2), Parameters(1, 1, 1), ConstantSpeed(1.0), 2000, mode="auto")
    assert detect_convergence(traj, tol=1e-10, window=2000) is None


def test_detect_convergence_short_trajectory_returns_none():
    params = Parameters(1, 1, 1)
    traj = _traj_from_coords([(0.5, 0.3, 0.2)] * 5, params)
    assert detect_convergence(traj, tol=1.0, window=100) is None


def test_persistence_interior_regime_floors():
    params = Parameters(-1, -1, -1)
    traj = iterate(make_point(0.6, 0.25, 0.15), params, ConstantSpeed(0.5), 5000)
    rep = persistence_report(traj)
    for v in rep.tail_min:
        assert v >= 1 / 3 - 1e-3
    assert rep.tail_start_step > 0


def test_persistence_vertex_regime_collapse():
    traj = iterate(make_point(0.4, 0.3, 0.3), Parameters(1, -1, 1), ConstantSpeed(0.5), 50_000)
    rep = persistence_report(traj)
    # species 2 and 3 die: their recent-window ceilings sit near zero
    assert rep.tail_max[1] < 1e-3
    assert rep.tail_max[2] < 1e-3
    assert rep.tail_max[0] > 0.999


def test_persistence_reads_the_logs_of_a_log_domain_run():
    traj = iterate(make_point(0.5, 0.3, 0.2), Parameters(1, 1, 1), ConstantSpeed(1.0),
                   100_000, mode="log")
    rep = persistence_report(traj)
    # x3 underflows to 0.0 in linear terms, but it is alive at log -3.59e7
    assert rep.global_min[2] == 0.0
    assert rep.log_global_min[2] == traj.logs[:, 2].min()
    assert -3.7e7 < rep.log_global_min[2] < -3.5e7
    tail = len(traj) - list(traj.steps).index(rep.tail_start_step)
    assert rep.log_tail_min == tuple(float(v) for v in traj.logs[-tail:].min(axis=0))
    assert all(lo <= hi for lo, hi in zip(rep.log_global_min, rep.log_tail_min))


def test_persistence_log_minima_of_a_linear_run_are_logs_of_the_minima():
    traj = iterate(make_point(0.0, 0.6, 0.4), Parameters(-1, -1, -1), ConstantSpeed(0.5), 200)
    rep = persistence_report(traj)
    assert rep.log_global_min[0] == float("-inf")  # an extinct species
    for i in (1, 2):
        assert rep.log_global_min[i] == pytest.approx(math.log(rep.global_min[i]), rel=1e-15)
        assert rep.log_tail_min[i] == pytest.approx(math.log(rep.tail_min[i]), rel=1e-15)


def test_omega_limit_constant_single_cell():
    params = Parameters(-1, -1, -1)
    traj = _traj_from_coords([params.fixed_point.coords] * 50, params)
    cells = omega_limit_estimate(traj, burn_in=10, grid=0.05)
    assert cells == {cell_of(params.fixed_point.coords, 0.05)}


def test_omega_limit_rejects_grids_whose_cells_overflow_int64():
    params = Parameters(-1, -1, -1)
    traj = _traj_from_coords([(1.0, 0.0, 0.0), params.fixed_point.coords], params)
    assert omega_limit_estimate(traj, 0, MIN_GRID) == {(int(1 / MIN_GRID), 0),
                                                      cell_of(params.fixed_point.coords, MIN_GRID)}
    for grid in (MIN_GRID / 2, 1e-300, 0.0, -0.05, math.nan):
        with pytest.raises(ValueError, match="grid must be >="):
            omega_limit_estimate(traj, 0, grid)


def test_omega_limit_vertex_regime_single_cell():
    traj = iterate(make_point(0.4, 0.3, 0.3), Parameters(1, -1, 1), ConstantSpeed(0.5), 30_000, stride=10)
    cells = omega_limit_estimate(traj, burn_in=25_000, grid=0.05)
    assert len(cells) == 1
    ci, cj = next(iter(cells))
    # hugging the limit vertex from inside: one cell below the vertex corner
    assert cj == 0 and ci in (19, 20)


def test_phi_decay_stats_non_increasing_in_cycling_regime():
    traj = iterate(make_point(0.5, 0.3, 0.2), Parameters(1, 1, 1), ConstantSpeed(1.0), 5000,
                   mode="auto")
    attach_observables(traj)
    stats = phi_decay_stats(traj)
    assert stats["non_increasing"], stats
    assert stats["mean_log_decay_per_step"] < 0


def test_vertex_regime_all_starts_reach_same_vertex():
    # the desk-scale observable form of mixed-sign vertex convergence
    rng = random.Random(107)
    for params, target in ((Parameters(1, -1, 1), 1), (Parameters(-1, 1, 1), 2), (Parameters(1, 1, -1), 3)):
        for _ in range(5):
            p = make_point(*sample_interior(rng))
            traj = iterate(p, params, ConstantSpeed(0.5), 30_000, stride=100)
            assert nearest_vertex(traj.final) == target
            assert traj.final.coords[target - 1] > 0.999
