"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5, 7 and 8 reproduce the paper's long-run statements at desk
scale. Each compares the run with a bound derived from the map's own rates
at the test's horizon; the derivations are in the test docstrings and every
threshold is computed from them:

- criterion 5 (mixed signs): near its vertex the species that dies last
  decays only algebraically. 1/x_slow grows by at least kappa*f*x_vertex
  per step, so n*kappa*f*x_slow(n) <= 1 + delta, with 1 + delta the inverse
  mean vertex coordinate of the run. The convergence tolerance of the
  100-sample window follows from the same rate.
- criterion 7 (all positive): an invading species grows by at most
  rate*f*x per step, so 1/x falls by at most rate*f. Its trough therefore
  certifies the earliest step of the next sector and vertex entry, and the
  run must show exactly the entries before it.
- criterion 8 (running averages): the fixed-eps tail mass of the order-k
  coefficients falls toward L_k(eps) = 1 - eps * sum_{j<k} ln(1/eps)^j / j!
  as n grows, and rises toward 1 as eps shrinks.

The checklist's original numbers for these three criteria (a 1e-10 window
within 1e5 steps, >= 10 visits per sector and >= 3 entries per vertex, a
tail mass non-decreasing in n) are out of the map's reach at these
horizons; the README's acceptance section gives the analysis.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np

import simplexflow as sf
from simplexflow import cli
from simplexflow.analysis import SECTOR_ORDERINGS, cesaro_coefficient_rows

from oracles import (
    random_rational_param,
    random_rational_point,
    rational_step,
    rational_zakharevich,
    sample_interior,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def _rand_params(rng, sign=None):
    def draw():
        v = rng.uniform(0.05, 1.0)
        if sign is None:
            return v if rng.random() < 0.5 else -v
        return sign * v

    return sf.Parameters(draw(), draw(), draw())


def _mixed_vertex(params):
    """(attracting vertex, species that dies last, its decay rate kappa).

    a > 0 > b: e1, x3 last at |b|; c > 0 > a: e2, x1 last at |a|;
    b > 0 > c: e3, x2 last at |c|. Exactly one holds for mixed signs.
    """
    a, b, c = params.a, params.b, params.c
    if a > 0 > b:
        return 1, 3, -b
    if c > 0 > a:
        return 2, 1, -a
    if b > 0 > c:
        return 3, 2, -c
    raise ValueError(f"signs of {params} are not mixed")


# All-positive cycle e1 -> e3 -> e2 -> e1: near e_v the species of the next
# vertex invades, and x_r' <= x_r * (1 + rate_r * f * x_r) with rate_1 = a,
# rate_2 = c, rate_3 = b.
_NEXT_VERTEX = {1: 3, 3: 2, 2: 1}


def _log_regrowth_steps(log_x, level, rate, f):
    """log of the fewest steps in which x, with x' <= x*(1 + rate*f*x), can
    climb from exp(log_x) to level: 1/x falls by at most rate*f per step."""
    return -log_x + math.log1p(-math.exp(log_x) / level) - math.log(rate * f)


def test_criterion_01_algebraic_simplex_preservation():
    t0 = time.time()
    rng = random.Random(1001)
    exact_ok = True
    for _ in range(100):
        x = random_rational_point(rng)
        a, b, c = (random_rational_param(rng) for _ in range(3))
        f = Fraction(rng.randint(1, 16), 16)
        y = rational_step(x, a, b, c, f)
        if sum(y) != 1:
            exact_ok = False
            break
    worst = 0.0
    for _ in range(100_000):
        x1, x2, x3 = sample_interior(rng)
        a = rng.uniform(-1, 1) or 0.5
        b = rng.uniform(-1, 1) or 0.5
        c = rng.uniform(-1, 1) or 0.5
        fv = rng.uniform(0.05, 1)
        y1 = x1 * (1.0 + (a * x1 * x2 - b * x3 * x3) * fv)
        y2 = x2 * (1.0 + (c * x2 * x3 - a * x1 * x1) * fv)
        y3 = x3 * (1.0 + (b * x3 * x1 - c * x2 * x2) * fv)
        drift = abs(math.fsum((y1, y2, y3)) - 1.0)
        if drift > worst:
            worst = drift
    ok = exact_ok and worst <= 1e-15
    _report(1, ok, f"exact sums: {exact_ok}, worst float drift {worst:.2e} (<= 1e-15), {time.time()-t0:.1f}s")
    assert exact_ok, "rational-arithmetic step did not preserve the simplex exactly"
    assert worst <= 1e-15, f"pre-renormalization drift {worst:.2e} > 1e-15"


def test_criterion_02_fixed_points():
    t0 = time.time()
    rng = random.Random(1002)
    worst = 0.0
    for k in range(100):
        params = _rand_params(rng, sign=1.0 if k % 2 == 0 else -1.0)
        f = sf.ConstantSpeed(rng.uniform(0.05, 1))
        for i in (1, 2, 3):
            e = sf.vertex_point(i)
            assert sf.step(e, params, f).coords == e.coords, f"vertex {i} moved under {params}"
        x = params.fixed_point
        y = sf.step(x, params, f)
        worst = max(worst, max(abs(u - v) for u, v in zip(x.coords, y.coords)))
    ok = worst <= 1e-14
    _report(2, ok, f"vertices exact, worst interior fixed-point move {worst:.2e} (<= 1e-14), {time.time()-t0:.1f}s")
    assert ok


def test_criterion_03_lyapunov_monotonicity_positive():
    t0 = time.time()
    rng = random.Random(1003)
    worst_over = -math.inf
    worst_fp = 0.0
    for _ in range(20):
        params = _rand_params(rng, sign=1.0)
        f = sf.ConstantSpeed(rng.uniform(0.05, 1))
        worst_fp = max(worst_fp, abs(sf.psi(params.fixed_point, params, f) - 1.0))
        for _ in range(100_000):
            p = sf.SimplexPoint(sample_interior(rng))
            worst_over = max(worst_over, sf.psi(p, params, f) - 1.0)
    ok = worst_over <= 1e-15 and worst_fp <= 1e-14
    _report(3, ok, f"max psi-1 = {worst_over:.2e} (<= 1e-15), fixed-point |psi-1| {worst_fp:.2e} (<= 1e-14), {time.time()-t0:.1f}s")
    assert ok


def test_criterion_04_lyapunov_antimonotonicity_negative():
    t0 = time.time()
    rng = random.Random(1004)
    worst_under = math.inf
    strict_checked = 0
    strict_ok = True
    for _ in range(20):
        params = _rand_params(rng, sign=-1.0)
        lmin, lmax = min(params.lambdas), max(params.lambdas)
        f = sf.ConstantSpeed(rng.uniform(0.01, min(1.0, 1.25 * lmin / lmax)))
        for _ in range(100_000):
            p = sf.SimplexPoint(sample_interior(rng))
            v = sf.psi(p, params, f)
            worst_under = min(worst_under, v - 1.0)
            if strict_checked < 1000 and sf.quad_form(p, params) >= 1e-3:
                strict_checked += 1
                if not v > 1.0 + 1e-12:
                    strict_ok = False
    ok = worst_under >= -1e-15 and strict_ok and strict_checked >= 1000
    _report(4, ok, f"min psi-1 = {worst_under:.2e} (>= -1e-15), strict at {strict_checked} pts: {strict_ok}, {time.time()-t0:.1f}s")
    assert ok


def test_criterion_05_vertex_convergence_reproduction():
    """Every mixed-sign orbit converges to the vertex of the sign rule, and
    the species that dies last decays at the rate the map predicts.

    Rate. With e_v the attracting vertex (see ``_mixed_vertex``), the slow
    species updates exactly as x_s' = x_s * (1 - u), u = kappa*f*x_s*x_v +
    theta*f*x_fast^2, where theta is the third parameter (c, b and a in the
    three patterns here, all positive), so u >= 0 on the whole orbit. Then
    y = 1/x_s grows by y*u/(1-u) >= kappa*f*x_v every step, and summing
    over steps 0..n-1,

        n*kappa*f*x_s(n) <= n / sum_{k<n} x_v(k) = 1 + delta(n).

    delta(n) is about the run's mean shortfall from the vertex. The slow
    species contributes about ln(n)/(kappa*f*n) = 2.3e-4 at n = 1e5, the
    approach from the start the rest. The criterion allows delta <= 1e-2,
    i.e. a mean vertex coordinate of at least 1/1.01 over the run. A slow
    species that decays at half the rate gives n*kappa*f*x_s(n) -> 2 and
    fails.

    Window. The last w samples span steps m = n-w+1 .. n. The fast species
    has underflowed by then, so y grows by at most kappa*f/(1 -
    kappa*f*x_s(m)) per step, and y(j) >= kappa*f*j/(1 + delta(j)) from
    above. The vertex coordinate moves by what x_s loses, so the max-norm
    diameter x_s(m) - x_s(n) = (y(n) - y(m)) / (y(n)*y(m)) is below

        tol = (1+delta(m))*(1+delta(n))*(w-1) / ((1 - kappa*f*x_s(m))*kappa*f*n*m),

    about 2e-8 here; ``detect_convergence(tol, w)`` must fire. (The
    checklist's 1e-10 is first met near n = 1.4e6.) Float rounding moves
    these quantities by O(n*2^-53), far inside the margins.
    """
    t0 = time.time()
    rng = random.Random(1005)
    n, w, fv = 100_000, 100, 0.5
    m = n - w + 1
    f = sf.ConstantSpeed(fv)
    summaries = []
    failures = []
    total_hits = 0
    for (a, b, c) in ((1, -1, 1), (-1, 1, 1), (1, 1, -1)):
        params = sf.Parameters(a, b, c)
        vertex, slow, kappa = _mixed_vertex(params)
        kf = kappa * fv
        hits = 0
        max_rate = max_delta = max_tol = 0.0
        fast_ends = {0.0: 0, math.ulp(0.0): 0}
        for _ in range(100):
            p = sf.make_point(*sample_interior(rng))
            traj = sf.iterate(p, params, f, n)
            xv = traj.coords[:, vertex - 1]
            xs = traj.coords[:, slow - 1]
            delta_m = m / float(xv[:m].sum()) - 1.0
            delta_n = n / float(xv[:n].sum()) - 1.0
            rate = n * kf * float(xs[n])
            tol = (1 + delta_m) * (1 + delta_n) * (w - 1) / ((1 - kf * xs[m]) * kf * n * m)
            limit = sf.detect_convergence(traj, tol=tol, window=w)
            good = (
                limit is not None
                and sf.nearest_vertex(limit) == vertex
                and rate <= 1.0 + delta_n
                and delta_n <= 1e-2
            )
            if good:
                hits += 1
            elif len(failures) < 5:
                failures.append(f"{(a, b, c)} from {p.coords}: limit {limit}, "
                                f"n*kappa*f*x_slow {rate:.6f}, delta {delta_n:.2e}, tol {tol:.3e}")
            max_rate = max(max_rate, rate)
            max_delta = max(max_delta, delta_n)
            max_tol = max(max_tol, tol)
            fast = float(traj.coords[-1, 5 - vertex - slow])
            if fast in fast_ends:
                fast_ends[fast] += 1
        total_hits += hits
        summaries.append(
            f"{(a, b, c)} -> e{vertex}: {hits}/100, max n*kappa*f*x_slow {max_rate:.6f}, "
            f"max delta {max_delta:.1e}, max tol {max_tol:.2e}, "
            f"fast species ends at 0.0 / 5e-324 in {fast_ends[0.0]} / {fast_ends[math.ulp(0.0)]}"
        )
    ok = total_hits == 300
    detail = "; ".join(summaries)
    _report(5, ok, f"{detail}; {time.time()-t0:.1f}s")
    assert ok, detail + " | " + "; ".join(failures)


def test_criterion_06_interior_convergence_reproduction():
    t0 = time.time()
    rng = random.Random(1006)
    cases = (
        ((-1, -1, -1), 0.5, (1 / 3, 1 / 3, 1 / 3)),
        ((-1, -1, -0.125), 0.3, (1 / 7, 4 / 7, 2 / 7)),
    )
    worst = 0.0
    for (a, b, c), fv, target in cases:
        params = sf.Parameters(a, b, c)
        assert max(abs(u - v) for u, v in zip(params.fixed_point.coords, target)) <= 1e-15
        f = sf.ConstantSpeed(fv)
        for _ in range(20):
            p = sf.make_point(*sample_interior(rng))
            steps_used = 0
            err = math.inf
            while steps_used < 1_000_000:
                chunk = min(5000, 1_000_000 - steps_used)
                traj = sf.iterate(p, params, f, chunk, stride=chunk)
                p = traj.final
                steps_used += chunk
                err = max(abs(u - v) for u, v in zip(p.coords, target))
                if err < 1e-8:
                    break
            worst = max(worst, err)
    ok = worst <= 1e-8
    _report(6, ok, f"worst endpoint error {worst:.2e} (<= 1e-8), {time.time()-t0:.1f}s")
    assert ok


def test_criterion_07_non_ergodic_cycling_evidence():
    """The all-positive orbit cycles the boundary with ever longer vertex
    sojourns, and its running averages follow the vertex it is parked at
    instead of settling at the interior fixed point.

    Regrowth bound. With all parameters positive, x1' = x1*(1 + (a*x1*x2 -
    b*x3^2)*f) <= x1*(1 + a*f*x1), and likewise x2 with c, x3 with b. Then
    1/x falls by at most rate*f per step, so from a trough x(k*) the species
    cannot reach a level L before step k* + (1/x(k*) - 1/L)/(rate*f). Near
    e_v the species of the next vertex in the cycle e1 -> e3 -> e2 -> e1
    invades. Here the first loop pushes x1 to e^-360 and the orbit parks at
    e2 from step 132; the bound puts x1's return past step 10^156.

    (a) The sector entries are one run of the cycle 1 -> 2 -> ... -> 6,
        from the start's sector to the last sector before the invader's
        rescaled coordinate x_r/L_r would lead again. Leading needs
        x_r >= L_r/sum(L), which the trough rules out within the horizon.
        The audit at the estimated gamma0 is clean.
    (b) The vertex sojourns (eps = 0.05) follow the cycle, each longer than
        the one before, and the last runs to the horizon. In each sojourn
        the invader's trough bounds the steps to its entry into the next
        neighborhood (x_r >= 1 - eps): every entry in the run takes at least
        that long, and the last trough rules out any entry within the
        horizon. The invader's log at the horizon lies within the regrowth
        bound from that trough, up to two ulps of rounding per step, so it
        was not lifted out of it.
    (c) The order-k average c_k(n) = sum_i a_{i,k,n} x_i is a convex
        combination, so its max-norm distance to the parked vertex e is at
        most B_k(n) = sum_i a_{i,k,n} |x_i - e|, the same average of the
        orbit's own distances. B_k is mostly the coefficient mass before the
        sojourn and falls like 1/n (1.2e-4 at 1e6 for order 1). It is
        checked at every n, with 4 ulps of rounding per push allowed for the
        two streams together. The running minimum distance to e must fall
        from 1e4 to 1e6, and from 1e4 on the averages stay at least
        |e - fixed point| - B_k(n) from the interior fixed point: 0.60 at
        1e4 for order 2, 0.67 by 1e6.
    (d) phi never increases.
    """
    t0 = time.time()
    params = sf.Parameters(1, 1, 1)
    fv = 1.0
    horizon = 1_000_000
    start = sf.make_point(0.5, 0.3, 0.2)
    traj = sf.iterate(start, params, sf.ConstantSpeed(fv), horizon, mode="log")
    sf.attach_observables(traj)
    eps = 0.05

    sojourns = sorted((s for runs in sf.sojourn_stats(traj, eps=eps).values() for s in runs),
                      key=lambda s: s.start_step)
    rates = {1: params.a, 2: params.c, 3: params.b}

    def trough_of(soj, stop):
        """(step, log) of the invader's lowest point from the sojourn's start to stop."""
        log_x = traj.logs[soj.start_step:stop, _NEXT_VERTEX[soj.vertex] - 1]  # stride 1: index == step
        k = int(np.argmin(log_x))
        return soj.start_step + k, float(log_x[k])

    # log of the fewest steps each earlier trough allows before the next
    # vertex entry (x_r >= 1 - eps), and log of the steps the run took
    earlier = []
    for soj, nxt in zip(sojourns, sojourns[1:]):
        k, low = trough_of(soj, nxt.start_step)
        needed = _log_regrowth_steps(low, 1.0 - eps, rates[_NEXT_VERTEX[soj.vertex]], fv)
        earlier.append((needed, math.log(nxt.start_step - k)))
    parked = sojourns[-1]
    invader = _NEXT_VERTEX[parked.vertex]
    rate = rates[invader]
    k_star, trough = trough_of(parked, horizon + 1)
    log_span = math.log(horizon - k_star)

    # (a) one run of the sector cycle, cut where the invader would lead
    sec = traj.observables["sector"]
    entries = [int(sec[0])] + [int(v) for v in sec[1:][sec[1:] != sec[:-1]]]
    leads = next(k for k in range(1, 7) if SECTOR_ORDERINGS[k][0] == invader
                 and SECTOR_ORDERINGS[(k - 2) % 6 + 1][0] != invader)
    expected = [entries[0]]
    while expected[-1] % 6 + 1 != leads:
        expected.append(expected[-1] % 6 + 1)
    lead_level = params.lambdas[invader - 1] / math.fsum(params.lambdas)
    log_lead_steps = _log_regrowth_steps(trough, lead_level, rate, fv)
    audit = sf.sector_cycle_audit(traj, sf.estimate_gamma0(traj))
    sectors_ok = (entries == expected and log_lead_steps > log_span
                  and audit.violation_count == 0 and audit.audited_samples > 0)

    # (b) sojourns along the cycle, each entry no earlier than certified
    cycle_ok = all(_NEXT_VERTEX[u.vertex] == v.vertex for u, v in zip(sojourns, sojourns[1:]))
    longer_ok = all(u.length < v.length for u, v in zip(sojourns, sojourns[1:]))
    log_entry_steps = _log_regrowth_steps(trough, 1.0 - eps, rate, fv)
    entries_certified = log_entry_steps > log_span and all(n <= t for n, t in earlier)
    grown = rate * fv * (horizon - k_star) * math.exp(trough)
    ceiling = trough - math.log1p(-grown) if grown < 1.0 else 0.0
    lift = float(traj.logs[-1, invader - 1]) - ceiling
    lift_slack = 2 * (horizon - k_star) * math.ulp(trough)
    sojourns_ok = (cycle_ok and longer_ok and entries_certified
                   and parked.end_step == horizon and lift <= lift_slack)

    # (c) order-1 and order-2 averages against the orbit's distance averages,
    # a block of samples at a time, with the averages from the stream's scan
    e = np.zeros(3)
    e[parked.vertex - 1] = 1.0
    fp = np.array(params.fixed_point.coords)
    e_to_fp = float(np.max(np.abs(e - fp)))
    dist = np.max(np.abs(traj.coords - e), axis=1).tolist()
    state = sf.CesaroState(2)
    bound = [0.0, 0.0, 0.0]  # B_0 = dist, B_k by the stream's own recursion
    over_e = over_fp = -math.inf  # worst overshoot, in units of the rounding slack
    mins = {1: math.inf, 2: math.inf}
    at_1e4 = None
    min_fp = math.inf
    # the one-sample block [1e4, 1e4 + 1) ends where the minima at 1e4 are read
    edges = [0, 10_000, *range(10_001, horizon + 1, 1 << 16), horizon + 1]
    for lo, hi in zip(edges, edges[1:]):
        averages = state.scan(traj.coords[lo:hi], np.arange(hi - lo))
        bounds = []
        for n in range(lo, hi):
            bound[0] = dist[n]
            for k in (1, 2):
                bound[k] = (n * bound[k] + bound[k - 1]) / (n + 1)
            bounds.append(bound[1:])
        bounds = np.array(bounds)
        slack = 4 * math.ulp(1.0) * np.arange(lo + 1, hi + 1)
        for k in (1, 2):
            c = averages[:, k]
            to_e = np.max(np.abs(c - e), axis=1)
            over_e = max(over_e, float(np.max((to_e - bounds[:, k - 1]) / slack)))
            mins[k] = min(mins[k], float(np.min(to_e)))
            if lo >= 10_000:
                to_fp = np.max(np.abs(c - fp), axis=1)
                over_fp = max(over_fp, float(np.max((e_to_fp - bounds[:, k - 1] - to_fp) / slack)))
                min_fp = min(min_fp, float(np.min(to_fp)))
        if hi == 10_001:
            at_1e4 = dict(mins)
    cesaro_ok = over_e <= 1.0 and over_fp <= 1.0 and all(mins[k] < at_1e4[k] for k in mins)

    # (d) phi never increases along the run
    phi_ok = sf.phi_decay_stats(traj)["non_increasing"]

    ok = sectors_ok and sojourns_ok and cesaro_ok and phi_ok
    ln10 = math.log(10.0)
    earlier_text = ["/".join(f"{pair[i] / ln10:.2f}" for pair in earlier) for i in (0, 1)]
    detail = (
        f"(a) sector entries {entries} (expected {expected}), invader x{invader} cannot lead before "
        f"10^{log_lead_steps / ln10:.1f} steps, audit violations {audit.violation_count}: {sectors_ok}; "
        f"(b) sojourns {[(s.vertex, s.start_step, s.end_step) for s in sojourns]}, "
        f"earlier entries took 10^{earlier_text[1]} steps from the trough (>= 10^{earlier_text[0]} certified), "
        f"trough log x{invader} {trough:.2f} at step {k_star} rules out the next entry for "
        f"10^{log_entry_steps / ln10:.1f} steps, "
        f"horizon log minus its regrowth ceiling {lift:.1e} (<= {lift_slack:.1e}): {sojourns_ok}; "
        f"(c) B_1, B_2 at 1e6 {bound[1]:.3e}, {bound[2]:.3e}, worst (distance - B)/slack {over_e:.2f}, "
        f"running min to e{parked.vertex} {at_1e4[1]:.2e} -> {mins[1]:.2e} (order 1), "
        f"{at_1e4[2]:.2e} -> {mins[2]:.2e} (order 2), min distance to fixed point {min_fp:.3f}: {cesaro_ok}; "
        f"(d) phi non-increasing: {phi_ok}; {time.time()-t0:.1f}s"
    )
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_08_cesaro_oracle_equivalence():
    """Streaming averages match the coefficient table, the rows are
    normalized, and the fixed-eps tail mass behaves as ``tail_mass``
    documents: it tends to 1 as n grows and then eps shrinks.

    The order-k weight a_{i,k,n} is about g_k(i/n)/n with g_k(t) =
    ln(1/t)^(k-1)/(k-1)!, the density of a product of k uniforms. The tail
    from i = floor(eps*n) therefore tends to

        L_k(eps) = 1 - eps * sum_{j<k} ln(1/eps)^j / j!

    (L_1 = 1 - eps, L_2 = 1 - eps*(1 + ln(1/eps))), from above, with a gap
    C_k(eps)/n + O(ln(n)^k/n^2): one decade divides it by about 10. Order 0
    is the last point alone, mass 1; order 1 is exactly
    1 - floor(eps*n)/(n+1). Checked: order 0 is 1; order 1 matches its
    closed form to 1e-12; the gap to L_k(0.1) is positive and shrinks per
    decade by at least half the decade ratio, 5; at n = 1e4 the mass of
    orders 1 and 2 rises strictly as eps goes 0.1 -> 0.01 -> 0.001.
    """
    t0 = time.time()
    n = 10_000
    traj = sf.iterate(sf.make_point(0.5, 0.3, 0.2), sf.Parameters(1, 1, 1),
                      sf.ConstantSpeed(1.0), n, mode="auto")
    state = sf.CesaroState(3)
    for row in traj.coords:
        state.push(row)
    rows = cesaro_coefficient_rows(3, n)
    stream_err = 0.0
    for k in range(4):
        recon = rows[k] @ traj.coords
        stream_err = max(stream_err, max(abs(u - v) for u, v in zip(state.value(k), recon)))
    rows_ok = all(np.all(r >= 0.0) and abs(math.fsum(r) - 1.0) <= 1e-12 for r in rows)

    eps = 0.1
    ns = (100, 1000, 10_000)

    def limit(k, e):
        return 1.0 - e * math.fsum(math.log(1.0 / e) ** j / math.factorial(j) for j in range(k))

    tails = {k: [sf.tail_mass(k, m, eps) for m in ns] for k in (0, 1, 2)}
    order0_ok = all(t == 1.0 for t in tails[0])
    order1_ok = all(abs(t - (1.0 - math.floor(eps * m) / (m + 1))) <= 1e-12
                    for t, m in zip(tails[1], ns))
    gaps = {k: [t - limit(k, eps) for t in tails[k]] for k in (1, 2)}
    shrink = [(hi / lo) / 2 for lo, hi in zip(ns, ns[1:])]
    gaps_ok = all(
        min(g) > 0.0 and all(g0 >= s * g1 for g0, g1, s in zip(g, g[1:], shrink))
        for g in gaps.values()
    )
    rising = {k: [tails[k][-1]] + [sf.tail_mass(k, ns[-1], e) for e in (0.01, 0.001)] for k in (1, 2)}
    rising_ok = all(u < v for seq in rising.values() for u, v in zip(seq, seq[1:]))
    tails_ok = order0_ok and order1_ok and gaps_ok and rising_ok

    ok = stream_err <= 1e-12 and rows_ok and tails_ok
    gap_text = ", ".join(f"order {k} " + "/".join(f"{v:.1e}" for v in g) for k, g in gaps.items())
    rise_text = ", ".join(f"order {k} " + "/".join(f"{v:.4f}" for v in seq) for k, seq in rising.items())
    detail = (
        f"stream vs coefficients max err {stream_err:.2e} (<= 1e-12); rows normalized: {rows_ok}; "
        f"tail mass: order 0 is 1: {order0_ok}, order 1 closed form: {order1_ok}, "
        f"gap to L_k(0.1) at n = 1e2/1e3/1e4 {gap_text} (positive, /5 per decade): {gaps_ok}, "
        f"at n = 1e4 for eps 0.1/0.01/0.001 {rise_text} (rising): {rising_ok}; {time.time()-t0:.1f}s"
    )
    _report(8, ok, detail)
    assert stream_err <= 1e-12 and rows_ok, detail
    assert tails_ok, detail


def test_criterion_09_euler_order():
    t0 = time.time()
    fit = sf.convergence_order(
        sf.make_point(0.5, 0.3, 0.2), sf.Parameters(1, 1, 1), sf.ConstantSpeed(1.0),
        horizon=5.0, n_list=(100, 1000, 10_000, 100_000), ref_h=1e-3,
    )
    ok = (not fit.degenerate) and 0.85 <= fit.slope <= 1.15 and fit.reference_self_error <= 1e-10
    _report(9, ok, f"slope {fit.slope:.4f} in [0.85, 1.15], reference self-error {fit.reference_self_error:.2e} (<= 1e-10), {time.time()-t0:.1f}s")
    assert ok, fit


def test_criterion_10_lyapunov_derivative_sign():
    t0 = time.time()
    rng = random.Random(1010)
    sign_ok = True
    for _ in range(10):
        params = _rand_params(rng, sign=1.0)
        f = sf.ConstantSpeed(rng.uniform(0.05, 1))
        for _ in range(10_000):
            p = sf.SimplexPoint(sample_interior(rng))
            if max(abs(u - v) for u, v in zip(p.coords, params.fixed_point.coords)) < 1e-9:
                continue
            if not sf.lyapunov_derivative(p, params, f) < 0.0:
                sign_ok = False
    grad_ok = True
    h = 1e-6
    for _ in range(200):
        p = sf.make_point(*sample_interior(rng))
        if min(p.coords) < 0.05:
            continue
        params = _rand_params(rng, sign=1.0)
        l1, l2, l3 = params.lambdas
        grad = sf.phi_gradient(p, params)
        for i in range(3):
            up = list(p.coords)
            dn = list(p.coords)
            up[i] += h
            dn[i] -= h
            fd = (up[0] ** l1 * up[1] ** l2 * up[2] ** l3 - dn[0] ** l1 * dn[1] ** l2 * dn[2] ** l3) / (2 * h)
            if abs(grad[i] - fd) > 1e-6 * max(abs(fd), 1e-12):
                grad_ok = False
    ok = sign_ok and grad_ok
    _report(10, ok, f"derivative < 0 at 1e4 points: {sign_ok}; gradient matches FD to 1e-6: {grad_ok}; {time.time()-t0:.1f}s")
    assert ok


def test_criterion_11_zakharevich_reference():
    t0 = time.time()
    rng = random.Random(1011)
    exact_ok = all(sum(rational_zakharevich(random_rational_point(rng))) == 1 for _ in range(100))
    p = sf.make_point(0.4, 0.35, 0.25)
    seen = set()
    for _ in range(100_000):
        p = sf.zakharevich_step(p)
        for i in (1, 2, 3):
            if sf.in_vertex_nbhd(p, i, 0.05):
                seen.add(i)
        if len(seen) == 3:
            break
    ok = exact_ok and seen == {1, 2, 3}
    _report(11, ok, f"exact simplex preservation: {exact_ok}; vertices visited {sorted(seen)}; {time.time()-t0:.1f}s")
    assert ok


def test_criterion_12_sweep_determinism(tmp_path):
    t0 = time.time()
    args = ["sweep", "--grid-a=-1,1", "--grid-b=-1,1", "--grid-c=-1,1",
            "--grid-f", "0.5", "--starts", "4", "--steps", "500", "--seed", "11"]
    outputs = []
    for name, threads in (("r1.csv", "1"), ("r2.csv", "8"), ("r3.csv", "1"), ("r4.csv", "8")):
        out = tmp_path / name
        code = cli.main([*args, "--threads", threads, "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = all(o == outputs[0] for o in outputs)
    rows = outputs[0].decode().splitlines()
    ok = ok and len(rows) == 33
    _report(12, ok, f"byte-identical across 4 runs (1 and 8 threads), {len(rows)-1} rows, {time.time()-t0:.1f}s")
    assert ok
