"""Independent references used by the tests.

The map references are computed with fractions.Fraction so expected values
are exact. The writer references build ``simulate``'s output the plain way,
per-sample dicts under ``json.dumps(indent=2)`` and one ``repr`` per CSV
value. The log-step references are the plain form of the log-domain
stepper: a term list, generators and one ``log_factor`` call per live
coordinate. The linear-step references are the separate one-step function
``step_linear`` and the ``iterate`` loop that calls it once per step, and
``field`` is the vector field built from separate growth terms. The
region references are the array kernel ``region_code_array`` over rows of
coordinates and ``region_members``, its decode to the tuple of surviving
species. ``python_loops`` runs a call with the compiled loops of
``simplexflow.kernel`` switched off, so that the Python loops they copy
serve as their reference. The production code never imports this module.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from simplexflow import kernel
from simplexflow.dynamics import AUTO_LOG_THRESHOLD, ConstantSpeed
from simplexflow.errors import NonPositiveFactor
from simplexflow.simplex import ZERO_TOL

_NEG_INF = float("-inf")


def rational_step(x, a, b, c, f):
    """One map update in exact rational arithmetic (no renormalization)."""
    x1, x2, x3 = (Fraction(v) for v in x)
    a, b, c, f = Fraction(a), Fraction(b), Fraction(c), Fraction(f)
    y1 = x1 * (1 + (a * x1 * x2 - b * x3 * x3) * f)
    y2 = x2 * (1 + (c * x2 * x3 - a * x1 * x1) * f)
    y3 = x3 * (1 + (b * x3 * x1 - c * x2 * x2) * f)
    return (y1, y2, y3)


def rational_psi_unit_lambdas(x, a, b, c, f):
    """psi for |a| = |b| = |c| (all lambda weights equal 1): stays rational."""
    x1, x2, x3 = (Fraction(v) for v in x)
    a, b, c, f = Fraction(a), Fraction(b), Fraction(c), Fraction(f)
    return (
        (1 + (a * x1 * x2 - b * x3 * x3) * f)
        * (1 + (c * x2 * x3 - a * x1 * x1) * f)
        * (1 + (b * x3 * x1 - c * x2 * x2) * f)
    )


def rational_zakharevich(x):
    x1, x2, x3 = (Fraction(v) for v in x)
    return (x1 * x1 + 2 * x1 * x2, x2 * x2 + 2 * x2 * x3, x3 * x3 + 2 * x1 * x3)


def rational_vector_field(x, a, b, c, f):
    x1, x2, x3 = (Fraction(v) for v in x)
    a, b, c, f = Fraction(a), Fraction(b), Fraction(c), Fraction(f)
    return (
        x1 * (a * x1 * x2 - b * x3 * x3) * f,
        x2 * (c * x2 * x3 - a * x1 * x1) * f,
        x3 * (b * x3 * x1 - c * x2 * x2) * f,
    )


def rational_cesaro_rows(max_order, n):
    """Exact coefficient rows a_{., k, n} for k <= max_order via the recursion."""
    # table[k][j] is the full row a_{., k, j}
    rows_prev = [[Fraction(1) if i == j else Fraction(0) for i in range(n + 1)] for j in range(n + 1)]
    out = [rows_prev[n]]
    for _ in range(max_order):
        rows_next = []
        cum = [Fraction(0)] * (n + 1)
        for j in range(n + 1):
            for i in range(n + 1):
                cum[i] += rows_prev[j][i]
            rows_next.append([cum[i] / (j + 1) for i in range(n + 1)])
        out.append(rows_next[n])
        rows_prev = rows_next
    return out


def rational_cesaro_means(points, max_order):
    """Exact repeated running averages of a short orbit; returns c_k at the end."""
    seq = [tuple(Fraction(v) for v in p) for p in points]
    final = [seq[-1]]
    for _ in range(max_order):
        means = []
        acc = [Fraction(0)] * 3
        for i, p in enumerate(seq):
            acc = [acc[j] + p[j] for j in range(3)]
            means.append(tuple(acc[j] / (i + 1) for j in range(3)))
        final.append(means[-1])
        seq = means
    return final


def random_rational_point(rng: random.Random, max_den: int = 64):
    """Random interior-ish rational simplex point with small denominator."""
    d = rng.randint(6, max_den)
    i = rng.randint(1, d - 2)
    j = rng.randint(1, d - i - 1)
    return (Fraction(i, d), Fraction(j, d), Fraction(d - i - j, d))


def random_rational_param(rng: random.Random, max_den: int = 16):
    d = rng.randint(1, max_den)
    n = rng.randint(1, d)
    sign = rng.choice((-1, 1))
    return Fraction(sign * n, d)


def sample_interior(rng: random.Random):
    """Uniform random interior point (floats)."""
    while True:
        u, v = sorted((rng.random(), rng.random()))
        x = (u, v - u, 1.0 - v)
        if min(x) > 1e-12:
            return x


def cell_of(coords, grid: float) -> tuple[int, int]:
    """Barycentric grid cell of a point: floor of (x1, x2) over the grid size."""
    return (int(math.floor(coords[0] / grid)), int(math.floor(coords[1] / grid)))


def simulate_json_text(header, traj):
    """``simulate``'s JSON document: the header, then one dict per sample."""
    phi = traj.observables["phi"]
    sec = traj.observables["sector"]
    doc = {
        "header": header,
        "samples": [
            {
                "step": int(traj.steps[k]),
                "x1": float(traj.coords[k, 0]),
                "x2": float(traj.coords[k, 1]),
                "x3": float(traj.coords[k, 2]),
                "phi": float(phi[k]),
                "sector": int(sec[k]),
            }
            for k in range(len(traj))
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def simulate_csv_text(traj):
    """``simulate``'s CSV text: a header row, then one line per sample."""
    phi = traj.observables["phi"]
    sec = traj.observables["sector"]
    lines = ["step,x1,x2,x3,phi,sector"]
    for k in range(len(traj)):
        x1, x2, x3 = traj.coords[k]
        values = (x1, x2, x3, phi[k])
        lines.append(",".join([str(int(traj.steps[k]))] + [repr(float(v)) for v in values]
                              + [str(int(sec[k]))]))
    return "\n".join(lines) + "\n"


def log_sum_exp(values) -> float:
    """log(sum(exp(v))) with the max-shift trick; tolerates -inf entries."""
    m = max(values)
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def log_factor(fval, alpha, lp, lq, beta, lr):
    """log(1 + f*(alpha*xp*xq - beta*xr^2)) from log coordinates.

    The direct evaluation loses everything when f*beta*xr^2 is within
    rounding of 1 (deep vertex sojourns), so factors below 0.5 are rebuilt
    from the cancellation-free split

        1 - f*beta*xr^2 = (1 - f*beta) + f*beta*(xp + xq)*(1 + xr)

    which uses 1 - xr = xp + xq, exact on the simplex: p, q, r are always
    the three species.
    """
    t = fval * (alpha * math.exp(lp + lq) - beta * math.exp(2.0 * lr))
    if t > -0.5:
        return math.log1p(t)
    fb = fval * beta  # t <= -0.5 forces beta > 0 under the parameter bounds
    terms = []
    if fb < 1.0:
        terms.append((math.log1p(-fb), 1.0))
    terms.append((math.log(fb) + log_sum_exp((lp, lq)) + math.log1p(math.exp(lr)), 1.0))
    if alpha != 0.0 and lp != _NEG_INF and lq != _NEG_INF:
        terms.append((math.log(fval * abs(alpha)) + lp + lq, math.copysign(1.0, alpha)))
    m = max(t0 for t0, _ in terms)
    if m == _NEG_INF:
        raise NonPositiveFactor("update factor underflowed to zero in log domain")
    acc = math.fsum(s * math.exp(t0 - m) for t0, s in terms)
    if acc <= 0.0:
        raise NonPositiveFactor("non-positive update factor in log domain")
    return m + math.log(acc)


def step_log(l1, l2, l3, a, b, c, fval):
    """One update on log coordinates, renormalized by log-sum-exp."""
    if l1 == _NEG_INF:
        m1 = _NEG_INF
    else:
        m1 = l1 + log_factor(fval, a, l1, l2, b, l3)
    if l2 == _NEG_INF:
        m2 = _NEG_INF
    else:
        m2 = l2 + log_factor(fval, c, l2, l3, a, l1)
    if l3 == _NEG_INF:
        m3 = _NEG_INF
    else:
        m3 = l3 + log_factor(fval, b, l3, l1, c, l2)
    z = log_sum_exp((m1, m2, m3))
    return m1 - z, m2 - z, m3 - z


def cancel_free_fires(l1, l2, l3, a, b, c, fval):
    """Live coordinates whose factor :func:`log_factor` rebuilds from the
    cancellation-free split in one :func:`step_log` from (l1, l2, l3)."""
    fires = 0
    for lp, lq, lr, alpha, beta in ((l1, l2, l3, a, b), (l2, l3, l1, c, a), (l3, l1, l2, b, c)):
        if lp != _NEG_INF:
            t = fval * (alpha * math.exp(lp + lq) - beta * math.exp(2.0 * lr))
            fires += not t > -0.5
    return fires


def growth_terms(x1, x2, x3, a, b, c):
    g1 = a * x1 * x2 - b * x3 * x3
    g2 = c * x2 * x3 - a * x1 * x1
    g3 = b * x3 * x1 - c * x2 * x2
    return g1, g2, g3


def split_factor(fval, alpha, xp, xq, beta, xr):
    """1 + f*(alpha*xp*xq - beta*xr^2) from the cancellation-free split."""
    fb = fval * beta
    return (1.0 - fb) + fb * (xp + xq) * (1.0 + xr) + fval * alpha * xp * xq


def step_linear(x1, x2, x3, a, b, c, fval):
    """One linear-domain update; exact zeros short-circuit. A factor that is
    not positive is rebuilt by :func:`split_factor` before it can raise."""
    g1, g2, g3 = growth_terms(x1, x2, x3, a, b, c)
    if x1 == 0.0:
        y1 = 0.0
    else:
        u1 = 1.0 + g1 * fval
        if u1 <= 0.0:
            u1 = split_factor(fval, a, x1, x2, b, x3)
            if u1 <= 0.0:
                raise NonPositiveFactor(f"factor {u1!r} for coordinate 1 at {(x1, x2, x3)}")
        y1 = x1 * u1
    if x2 == 0.0:
        y2 = 0.0
    else:
        u2 = 1.0 + g2 * fval
        if u2 <= 0.0:
            u2 = split_factor(fval, c, x2, x3, a, x1)
            if u2 <= 0.0:
                raise NonPositiveFactor(f"factor {u2!r} for coordinate 2 at {(x1, x2, x3)}")
        y2 = x2 * u2
    if x3 == 0.0:
        y3 = 0.0
    else:
        u3 = 1.0 + g3 * fval
        if u3 <= 0.0:
            u3 = split_factor(fval, b, x3, x1, c, x2)
            if u3 <= 0.0:
                raise NonPositiveFactor(f"factor {u3!r} for coordinate 3 at {(x1, x2, x3)}")
        y3 = x3 * u3
    s = math.fsum((y1, y2, y3))
    return y1 / s, y2 / s, y3 / s


def iterate(start, params, speed, n_steps, stride=1, mode="linear"):
    """The trajectory loop with one :func:`step_linear` or :func:`step_log`
    call per step and a modulo test per sample. Returns ``steps``,
    ``coords``, ``logs`` (or None) and ``log_domain_from``."""
    a, b, c = params.a, params.b, params.c
    f_const = speed.value if isinstance(speed, ConstantSpeed) else None
    auto = mode == "auto"

    n_samples = n_steps // stride + 1 + (1 if n_steps % stride else 0)
    steps_arr = np.empty(n_samples, dtype=np.int64)
    coords_arr = np.empty((n_samples, 3), dtype=np.float64)
    logs_arr = log_domain_from = None
    first_log_sample = 0

    use_log = mode == "log"
    if use_log:
        l1, l2, l3 = start.log_coords()
        x1, x2, x3 = math.exp(l1), math.exp(l2), math.exp(l3)
        logs_arr = np.empty((n_samples, 3), dtype=np.float64)
        logs_arr[0] = (l1, l2, l3)
        log_domain_from = 0
    else:
        x1, x2, x3 = start.coords
    steps_arr[0] = 0
    coords_arr[0] = (x1, x2, x3)
    k = 1

    for n in range(1, n_steps + 1):
        fval = f_const if f_const is not None else speed(x1, x2, x3)
        if use_log:
            l1, l2, l3 = step_log(l1, l2, l3, a, b, c, fval)
            x1, x2, x3 = math.exp(l1), math.exp(l2), math.exp(l3)
        else:
            x1, x2, x3 = step_linear(x1, x2, x3, a, b, c, fval)
            if auto and (
                0.0 < x1 < AUTO_LOG_THRESHOLD
                or 0.0 < x2 < AUTO_LOG_THRESHOLD
                or 0.0 < x3 < AUTO_LOG_THRESHOLD
            ):
                use_log = True
                log_domain_from = n
                l1 = math.log(x1) if x1 > 0.0 else _NEG_INF
                l2 = math.log(x2) if x2 > 0.0 else _NEG_INF
                l3 = math.log(x3) if x3 > 0.0 else _NEG_INF
                logs_arr = np.empty((n_samples, 3), dtype=np.float64)
                first_log_sample = k
        if n % stride == 0 or n == n_steps:
            steps_arr[k] = n
            coords_arr[k] = (x1, x2, x3)
            if use_log:
                logs_arr[k] = (l1, l2, l3)
            k += 1

    if first_log_sample:
        with np.errstate(divide="ignore"):
            logs_arr[:first_log_sample] = np.log(coords_arr[:first_log_sample])
    return SimpleNamespace(
        steps=steps_arr[:k],
        coords=coords_arr[:k],
        logs=None if logs_arr is None else logs_arr[:k],
        log_domain_from=log_domain_from,
    )


def field(x1, x2, x3, a, b, c, speed):
    """Right-hand side of the limiting system from separate growth terms."""
    fval = speed(x1, x2, x3)
    g1, g2, g3 = growth_terms(x1, x2, x3, a, b, c)
    return (x1 * g1 * fval, x2 * g2 * fval, x3 * g3 * fval)


def rk4_endpoint(start, a, b, c, speed, horizon, h):
    """Endpoint of the classical fixed-step RK4 run over [0, horizon] on
    :func:`field`, renormalized by the compensated sum after every step."""
    x1, x2, x3 = start
    for _ in range(round(horizon / h)):
        k1 = field(x1, x2, x3, a, b, c, speed)
        k2 = field(x1 + 0.5 * h * k1[0], x2 + 0.5 * h * k1[1], x3 + 0.5 * h * k1[2], a, b, c, speed)
        k3 = field(x1 + 0.5 * h * k2[0], x2 + 0.5 * h * k2[1], x3 + 0.5 * h * k2[2], a, b, c, speed)
        k4 = field(x1 + h * k3[0], x2 + h * k3[1], x3 + h * k3[2], a, b, c, speed)
        x1 = x1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        x2 = x2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        x3 = x3 + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        s = math.fsum((x1, x2, x3))
        x1, x2, x3 = x1 / s, x2 / s, x3 / s
    return (x1, x2, x3)


def region_code_array(coords: np.ndarray) -> np.ndarray:
    """Region of each row by the zero pattern of its coordinates.

    Codes: 0 interior, i vertex i, 10*i+j the face of species i < j
    (1-based). A coordinate >= 1 - 2*ZERO_TOL makes the row a vertex, the
    lowest index winning; otherwise a coordinate below ``ZERO_TOL`` counts
    as extinct. Rows with every coordinate below ``ZERO_TOL`` (not points
    of the simplex) count as interior.
    """
    out = np.zeros(len(coords), dtype=np.int8)
    vert = coords >= 1.0 - 2.0 * ZERO_TOL
    alive = coords >= ZERO_TOL
    for i in (3, 2, 1):  # ascending priority; vertex 1 wins ties
        out[vert[:, i - 1]] = i
    face_codes = {(1, 2): 12, (1, 3): 13, (2, 3): 23}
    not_vertex = ~vert.any(axis=1)
    for (i, j), code in face_codes.items():
        k = ({1, 2, 3} - {i, j}).pop()
        m = not_vertex & alive[:, i - 1] & alive[:, j - 1] & ~alive[:, k - 1]
        out[m] = code
    only_one = not_vertex & (alive.sum(axis=1) == 1)
    for i in (1, 2, 3):
        out[only_one & alive[:, i - 1]] = i
    return out


def region_members(code: int) -> tuple[int, ...]:
    """The species a :func:`region_code_array` code lets be positive."""
    if code == 0:
        return (1, 2, 3)
    if code < 10:
        return (code,)
    return (code // 10, code % 10)


def python_loops(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the compiled loops switched off."""
    saved, kernel._lib = kernel._lib, None
    try:
        return fn(*args, **kwargs)
    finally:
        kernel._lib = saved
