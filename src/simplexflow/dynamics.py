"""The three-species prey-predator map and trajectory iteration.

One generation maps x to

    x1' = x1 * (1 + (a*x1*x2 - b*x3^2) * f(x))
    x2' = x2 * (1 + (c*x2*x3 - a*x1^2) * f(x))
    x3' = x3 * (1 + (b*x3*x1 - c*x2^2) * f(x))

with interaction parameters a, b, c in [-1,1] \\ {0} and a continuous speed
function f mapping the simplex into (0,1]. The cross terms of the update
cancel algebraically, so the coordinate sum is preserved exactly in exact
arithmetic; floating-point runs renormalize by the compensated sum after
every step. A log-domain stepper evaluates the same update on log
coordinates so that multi-hundred-digit underflow during long vertex
sojourns cannot destroy the orbit.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernel, simplex
from .errors import NonPositiveFactor, NotOnFace, ZeroParameter
from .simplex import (
    SimplexPoint,
    classify_region,
    log_sum_exp,
    make_point,
)

_NEG_INF = float("-inf")

# Coordinates below this trigger the auto switch to log-domain stepping.
AUTO_LOG_THRESHOLD = 1e-100

ITERATE_MODES = ("linear", "log", "auto")


@dataclass(frozen=True)
class Parameters:
    """Interaction parameters with their derived weights and fixed point.

    ``lambdas`` are (|b*c^2|^(1/3), |a*b^2|^(1/3), |a^2*c|^(1/3)), and
    ``log_lambdas`` numpy's ``log`` of them, taken here only, which the
    sectors of log-domain samples read. The interior fixed point is lambdas
    normalized to sum 1; it is fixed under the map only when a, b, c share
    a sign. Parameters whose product underflows, so that a weight would be
    0, raise ValueError.
    """

    a: float
    b: float
    c: float
    lambdas: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    log_lambdas: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    fixed_point: SimplexPoint = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not isinstance(v, (int, float)) or math.isnan(v):
                raise ValueError(f"parameter {name} must be a real number, got {v!r}")
            if v == 0.0:
                raise ZeroParameter(f"parameter {name} is zero; the map requires nonzero parameters")
            if abs(v) > 1.0:
                raise ValueError(f"parameter {name}={v!r} outside [-1, 1]")
        a, b, c = float(self.a), float(self.b), float(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        lam = (
            abs(b * c * c) ** (1.0 / 3.0),
            abs(a * b * b) ** (1.0 / 3.0),
            abs(a * a * c) ** (1.0 / 3.0),
        )
        for name, weight in zip(("|b*c^2|^(1/3)", "|a*b^2|^(1/3)", "|a^2*c|^(1/3)"), lam):
            # a product that underflows leaves a zero weight: the fixed point
            # and the sectors divide by it
            if weight < sys.float_info.min:
                raise ValueError(f"weight {name} underflows for a={a!r}, b={b!r}, c={c!r}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "log_lambdas", tuple(np.log(lam).tolist()))
        s = math.fsum(lam)
        object.__setattr__(
            self, "fixed_point", make_point(lam[0] / s, lam[1] / s, lam[2] / s)
        )

    @property
    def sign_pattern(self) -> str:
        """"positive", "negative", or "mixed"."""
        signs = {v > 0.0 for v in (self.a, self.b, self.c)}
        if signs == {True}:
            return "positive"
        if signs == {False}:
            return "negative"
        return "mixed"


class SpeedFunction:
    """Continuous map from the simplex into (0,1] scaling each step."""

    def __call__(self, x1: float, x2: float, x3: float) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "SpeedFunction":
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantSpeed(SpeedFunction):
    value: float

    def __post_init__(self):
        v = self.value
        if not (0.0 < v <= 1.0) or math.isnan(v):
            raise ValueError(f"constant speed must lie in (0, 1], got {v!r}")

    def __call__(self, x1, x2, x3):
        return self.value

    def scaled(self, factor):
        return ConstantSpeed(self.value * factor)


@dataclass(frozen=True)
class AffineSpeed(SpeedFunction):
    """Speed a0 + a1*x1 + a2*x2 + a3*x3.

    An affine function on the simplex attains its extrema at the vertices,
    so the (0,1] range is certified at construction by checking the three
    vertex values a0 + ai.
    """

    a0: float
    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        for i, v in enumerate(self.vertex_values(), start=1):
            if not (0.0 < v <= 1.0) or math.isnan(v):
                raise ValueError(
                    f"affine speed takes value {v!r} at vertex {i}, outside (0, 1]"
                )

    def vertex_values(self) -> tuple[float, float, float]:
        return (self.a0 + self.a1, self.a0 + self.a2, self.a0 + self.a3)

    def __call__(self, x1, x2, x3):
        return self.a0 + self.a1 * x1 + self.a2 * x2 + self.a3 * x3

    def scaled(self, factor):
        return AffineSpeed(self.a0 * factor, self.a1 * factor, self.a2 * factor, self.a3 * factor)


def _kernel_row(row, params: Parameters, speed: SpeedFunction, coords, logs=(0.0, 0.0, 0.0)):
    """``row``, a :class:`kernel.Row`, filled in place with a compiled run's
    inputs: ``params`` with the weights and their logs, the speed as ``(a0,
    a1, a2, a3)`` and the start's ``coords`` and ``logs`` (which only a log
    start reads); or None for a speed that :mod:`.kernel` does not evaluate
    as its ``__call__`` does (one not a :class:`ConstantSpeed` or
    :class:`AffineSpeed`)."""
    if type(speed) is ConstantSpeed:
        row.sp[:] = (speed.value, 0.0, 0.0, 0.0)
    elif type(speed) is AffineSpeed:
        row.sp[:] = (speed.a0, speed.a1, speed.a2, speed.a3)
    else:
        return None
    row.a, row.b, row.c = params.a, params.b, params.c
    row.coords[:3], row.logs[:3] = coords, logs
    row.lam[:] = (*params.lambdas, *params.log_lambdas)
    return row


@dataclass
class Trajectory:
    """Recorded orbit samples, array-backed for long runs.

    ``steps[k]`` is the step index of sample k (steps[0] == 0 is the start),
    the run's only record of which steps it kept; ``coords`` holds linear
    coordinates row per sample; ``logs`` holds log coordinates when the run
    used the log-domain stepper. Observable arrays (keyed by tag, filled by
    ``analysis.attach_observables``) align with the samples; a whole
    compiled :func:`iterate` run hands back its ``sector`` array there, each
    sample's sector taken as the stepper stored it.
    """

    params: Parameters
    steps: np.ndarray
    coords: np.ndarray
    logs: np.ndarray | None = None
    observables: dict = field(default_factory=dict)
    log_domain_from: int | None = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def n_steps(self) -> int:
        return int(self.steps[-1])

    def point(self, k: int) -> SimplexPoint:
        coords = tuple(float(v) for v in self.coords[k])
        if self.logs is not None:
            return SimplexPoint(coords, tuple(float(v) for v in self.logs[k]))
        return SimplexPoint(coords)

    @property
    def final(self) -> SimplexPoint:
        return self.point(len(self.steps) - 1)

    def log_coords_array(self) -> np.ndarray:
        """Per-sample log coordinates (computed from linear rows if needed)."""
        if self.logs is not None:
            return self.logs
        with np.errstate(divide="ignore"):
            return np.log(self.coords)


def _growth_terms(x1, x2, x3, a, b, c):
    g1 = a * x1 * x2 - b * x3 * x3
    g2 = c * x2 * x3 - a * x1 * x1
    g3 = b * x3 * x1 - c * x2 * x2
    return g1, g2, g3


def _split_factor(fval, alpha, xp, xq, beta, xr):
    """1 + f*(alpha*xp*xq - beta*xr^2) from the cancellation-free split of
    :func:`_log_factor`. The direct form rounds to 0.0 once f*beta is 1 and
    xr rounds to 1.0, though the factor is positive off the vertex of r."""
    fb = fval * beta
    return (1.0 - fb) + fb * (xp + xq) * (1.0 + xr) + fval * alpha * xp * xq


def _log_factor(fval, alpha, lp, lq, beta, xr):
    """log(1 + f*(alpha*xp*xq - beta*xr^2)) from the logs lp, lq and the
    coordinate xr, for a factor the direct form puts at or below 0.5.

    The direct evaluation loses everything when f*beta*xr^2 is within
    rounding of 1 (deep vertex sojourns), so :func:`_step_log` takes
    ``log1p`` of the direct form only above 0.5 and calls this function
    otherwise. It rebuilds the factor from the cancellation-free split

        1 - f*beta*xr^2 = (1 - f*beta) + f*beta*(xp + xq)*(1 + xr)

    which uses 1 - xr = xp + xq, exact on the simplex: p, q, r are always
    the three species. A term that is absent (f*beta = 1, or a dead xq) is
    -inf and adds an exact zero, as does the third term of log(xp + xq),
    summed as in ``kernel.c``. alpha is nonzero (:class:`Parameters`).
    A non-positive f*beta or f*|alpha|, reached only off the simplex (on it
    a rebuilt factor has f*beta >= 0.25), raises :class:`NonPositiveFactor`
    where ``math.log`` would, as ``kernel.c``'s ``log_factor`` declines.
    """
    fb = fval * beta  # a factor <= 0.5 forces beta > 0 under the parameter bounds
    if fb <= 0.0 or fval * abs(alpha) <= 0.0:
        raise NonPositiveFactor("update factor rebuilt from a non-positive f*beta or f*|alpha|")
    t1 = math.log1p(-fb) if fb < 1.0 else _NEG_INF
    t2 = math.log(fb) + log_sum_exp((lp, lq, _NEG_INF)) + math.log1p(xr)
    t3 = math.log(fval * abs(alpha)) + lp + lq
    m = max(t1, t2, t3)
    if m == _NEG_INF:
        raise NonPositiveFactor("update factor underflowed to zero in log domain")
    acc = math.fsum((math.exp(t1 - m), math.exp(t2 - m), math.copysign(math.exp(t3 - m), alpha)))
    if acc <= 0.0:
        raise NonPositiveFactor("non-positive update factor in log domain")
    return m + math.log(acc)


def _step_log(l1, l2, l3, x1, x2, x3, a, b, c, fval):
    """One update on log coordinates, renormalized by log-sum-exp.

    Each live coordinate's factor is ``1 + t``, t the direct form on the
    coordinates x the loop holds (exp(l), or the linear ones at a switch);
    ``log1p(t)`` serves while t > -0.5, and :func:`_log_factor` rebuilds
    the factor otherwise. ``sf_iterate``'s log branch in ``kernel.c``
    transliterates this function, :func:`_log_factor` and the two
    ``log_sum_exp`` calls; a change here is a change there.
    """
    if l1 == _NEG_INF:
        m1 = _NEG_INF
    else:
        t = fval * (a * x1 * x2 - b * x3 * x3)
        m1 = l1 + (math.log1p(t) if t > -0.5 else _log_factor(fval, a, l1, l2, b, x3))
    if l2 == _NEG_INF:
        m2 = _NEG_INF
    else:
        t = fval * (c * x2 * x3 - a * x1 * x1)
        m2 = l2 + (math.log1p(t) if t > -0.5 else _log_factor(fval, c, l2, l3, a, x1))
    if l3 == _NEG_INF:
        m3 = _NEG_INF
    else:
        t = fval * (b * x3 * x1 - c * x2 * x2)
        m3 = l3 + (math.log1p(t) if t > -0.5 else _log_factor(fval, b, l3, l1, c, x2))
    z = log_sum_exp((m1, m2, m3))
    return m1 - z, m2 - z, m3 - z


def step(p: SimplexPoint, params: Parameters, speed: SpeedFunction) -> SimplexPoint:
    """Apply one generation of the map in linear arithmetic.

    A one-step view of :func:`iterate`, whose loop holds the Python copy of
    the linear update.
    """
    return iterate(p, params, speed, 1).final


def step_log(p: SimplexPoint, params: Parameters, speed: SpeedFunction) -> SimplexPoint:
    """Apply one generation on the log-domain representation.

    A one-step view of :func:`iterate` in log mode, the only caller of the
    log stepper. Agrees with :func:`step` to relative error 1e-12 on
    coordinates that the linear path can represent; stays finite far past
    double underflow.
    """
    return iterate(p, params, speed, 1, mode="log").final


def ratios(p: SimplexPoint, params: Parameters) -> tuple[float, float, float]:
    """Coordinates rescaled by the lambda weights: (x1/L1, x2/L2, x3/L3)."""
    l1, l2, l3 = params.lambdas
    return (p.coords[0] / l1, p.coords[1] / l2, p.coords[2] / l3)


def ratio_step(p: SimplexPoint, params: Parameters, speed: SpeedFunction) -> tuple[float, float, float]:
    """One update written directly in the rescaled coordinates.

    Equivalent reformulation of the map: with y_i = x_i / L_i,

        y1' = y1 * (1 + (sgn(a)*y1*y2 - sgn(b)*y3^2) * f * L1^(1/3)*L2^(4/3)*L3^(4/3))

    and cyclically for y2', y3'. Must commute with :func:`ratios` applied to
    :func:`step` up to renormalization rounding; kept as an independent code
    path for exactly that consistency check.
    """
    l1, l2, l3 = params.lambdas
    sa = math.copysign(1.0, params.a)
    sb = math.copysign(1.0, params.b)
    sc = math.copysign(1.0, params.c)
    k1 = l1 ** (1.0 / 3.0) * l2 ** (4.0 / 3.0) * l3 ** (4.0 / 3.0)
    k2 = l2 ** (1.0 / 3.0) * l3 ** (4.0 / 3.0) * l1 ** (4.0 / 3.0)
    k3 = l3 ** (1.0 / 3.0) * l1 ** (4.0 / 3.0) * l2 ** (4.0 / 3.0)
    y1, y2, y3 = ratios(p, params)
    fval = speed(*p.coords)
    z1 = y1 * (1.0 + (sa * y1 * y2 - sb * y3 * y3) * fval * k1)
    z2 = y2 * (1.0 + (sc * y2 * y3 - sa * y1 * y1) * fval * k2)
    z3 = y3 * (1.0 + (sb * y3 * y1 - sc * y2 * y2) * fval * k3)
    s = math.fsum((z1 * l1, z2 * l2, z3 * l3))
    return (z1 / s, z2 / s, z3 / s)


def restrict_to_face(p: SimplexPoint, params: Parameters, speed: SpeedFunction) -> SimplexPoint:
    """Apply the map restricted to the two-species face carrying p.

    The point must classify as a face point; mass below the zero threshold
    on the extinct species is dropped exactly, after which the full update
    coincides with the displayed two-coordinate restriction (zero
    coordinates are preserved exactly by the stepper).
    """
    members = classify_region(p)
    if len(members) != 2:
        raise NotOnFace(f"point {p.coords} has surviving species {members}, not a face")
    i, j = members
    coords = [0.0, 0.0, 0.0]
    coords[i - 1] = p.coords[i - 1]
    coords[j - 1] = p.coords[j - 1]
    s = math.fsum(coords)
    projected = SimplexPoint((coords[0] / s, coords[1] / s, coords[2] / s))
    return step(projected, params, speed)


def zakharevich_step(p: SimplexPoint) -> SimplexPoint:
    """One generation of the classical non-ergodic reference map.

    (x1, x2, x3) -> (x1^2 + 2*x1*x2, x2^2 + 2*x2*x3, x3^2 + 2*x1*x3); the
    images sum to (x1+x2+x3)^2 = 1 exactly in exact arithmetic.
    """
    x1, x2, x3 = p.coords
    y1 = x1 * x1 + 2.0 * x1 * x2
    y2 = x2 * x2 + 2.0 * x2 * x3
    y3 = x3 * x3 + 2.0 * x1 * x3
    s = math.fsum((y1, y2, y3))
    return SimplexPoint((y1 / s, y2 / s, y3 / s))


def _sample_steps(n_steps: int, stride: int) -> np.ndarray:
    """The steps whose states a run records, as an ascending int64 array:
    0, every stride-th step and the last, ``n_steps``, for any int stride.
    Raises ValueError for an n_steps outside [0, 2**63) or a stride below 1."""
    if not 0 <= n_steps < 2**63:  # the schedule is int64
        raise ValueError(f"n_steps must lie in [0, 2**63), got {n_steps}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    stride = min(stride, n_steps or 1)
    steps = np.arange(-(-n_steps // stride) + 1, dtype=np.int64)
    steps *= stride  # only the last entry can pass n_steps, and it is set below
    steps[-1] = n_steps
    return steps


def _whole_run(ran, n_steps: int) -> bool:
    """Whether a compiled run's record ``ran``, ``(steps done,
    log_domain_from or -1)`` or None, stands for the whole request: it took
    all ``n_steps`` steps, and no log step while this module's
    ``log_sum_exp`` is replaced (a profiler counts the calls that
    ``_step_log`` makes and the kernel does not). Else the Python loop runs
    the request from step 0, so every error keeps its type and message."""
    if ran is None or ran[0] < n_steps:
        return False
    return not 0 <= ran[1] < n_steps or log_sum_exp is simplex.log_sum_exp


def _trajectory(params, steps_arr, coords_arr, logs_arr, log_domain_from) -> Trajectory:
    """An :func:`iterate` run's :class:`Trajectory`. The samples an auto run
    took before its switch get the logs of their coordinates."""
    if log_domain_from is None:
        return Trajectory(params, steps_arr, coords_arr)
    head = np.searchsorted(steps_arr, log_domain_from)
    with np.errstate(divide="ignore"):
        logs_arr[:head] = np.log(coords_arr[:head])
    return Trajectory(params, steps_arr, coords_arr, logs_arr, log_domain_from=log_domain_from)


def iterate(
    start: SimplexPoint,
    params: Parameters,
    speed: SpeedFunction,
    n_steps: int,
    stride: int = 1,
    mode: str = "linear",
) -> Trajectory:
    """Run the map for n_steps, recording every stride-th state.

    ``mode`` selects the stepper: "linear", "log", or "auto" (start linear,
    switch to the log-domain stepper as soon as any coordinate drops below
    1e-100). It records the start, every stride-th step and the last step
    (:func:`_sample_steps`); each sample holds its step and linear coordinates.
    Log coordinates are recorded only for a run that used the log stepper:
    it writes the rows of its own samples, and the samples an auto run took
    before the switch get the logs of their linear coordinates (which its
    sectors do not read: ``analysis.sector_array`` takes each sample's
    sector in the domain the stepper took it in). Per-sample observables
    are attached by ``analysis.attach_observables``; a whole compiled run
    with no NaN sample hands back its ``sector`` array, which the kernel
    took by that rule as it stored the samples. A run that needs only
    a sweep row's figures of its samples takes :func:`summarize_rows`,
    whose memory grows with neither n_steps nor its window.
    Deterministic: identical inputs produce bit-identical trajectories.
    The loop body holds the package's Python copy of the linear update;
    :func:`step` is a one-step view of this function. For a
    :class:`ConstantSpeed` or :class:`AffineSpeed`, one call to the compiled
    transliteration of this loop in :mod:`.kernel`, where it builds, takes
    the run from step 0 with the same bits. It stops at the first step it
    does not copy (a factor that stays non-positive, a sum that is not
    finite or is zero, a log that is NaN, +inf or positive). Unless its run
    covers the whole request (:func:`_whole_run`; a profiler that replaces
    ``log_sum_exp`` gets the log steps here too), the whole request goes to
    this loop, which runs it from step 0, so every error keeps its type and
    message. An update whose sum is 0, not finite or past ``math.fsum``, which
    only a start off the simplex reaches, raises :class:`NonPositiveFactor`.
    """
    steps_arr = _sample_steps(n_steps, stride)
    if mode not in ITERATE_MODES:
        raise ValueError(f"mode must be one of {ITERATE_MODES}, got {mode!r}")

    a, b, c = params.a, params.b, params.c
    f_const = speed.value if isinstance(speed, ConstantSpeed) else None
    auto = mode == "auto"

    coords_arr = np.empty((len(steps_arr), 3), dtype=np.float64)
    # pages of np.empty are not resident until written: an auto run that
    # never switches costs no memory for its logs
    logs_arr = logs_mv = log_domain_from = None
    if mode != "linear":
        logs_arr = np.empty_like(coords_arr)
        logs_mv = memoryview(logs_arr.reshape(-1))
    # three scalar stores through a flat view cost less than one row assignment
    coords_mv = memoryview(coords_arr.reshape(-1))

    use_log = mode == "log"
    if use_log:
        l1, l2, l3 = start.log_coords()
        x1, x2, x3 = math.exp(l1), math.exp(l2), math.exp(l3)
        logs_mv[0], logs_mv[1], logs_mv[2] = l1, l2, l3
        log_domain_from = 0
    else:
        x1, x2, x3 = start.coords
        l1 = l2 = l3 = 0.0  # set by a switch
    coords_mv[0], coords_mv[1], coords_mv[2] = x1, x2, x3
    tiny = AUTO_LOG_THRESHOLD
    sectors_arr = np.empty(len(steps_arr), dtype=np.int8)
    ran = kernel.iterate_run(_kernel_row(kernel.Row(), params, speed, (x1, x2, x3), (l1, l2, l3)),
                             tiny if auto else 0.0, use_log, steps_arr, coords_arr, logs_arr,
                             sectors_arr)
    if _whole_run(ran, n_steps):
        traj = _trajectory(params, steps_arr, coords_arr, logs_arr, None if ran[1] < 0 else ran[1])
        if sectors_arr.all():  # else a sample with a NaN: sector_array raises for it
            traj.observables["sector"] = sectors_arr
        return traj

    k = 1
    fsum = math.fsum
    schedule = iter(memoryview(steps_arr)[1:])  # the steps left to record; -1 once none is
    next_sample = next(schedule, -1)
    for n in range(1, n_steps + 1):
        fval = f_const if f_const is not None else speed(x1, x2, x3)
        if use_log:
            l1, l2, l3 = _step_log(l1, l2, l3, x1, x2, x3, a, b, c, fval)
            x1, x2, x3 = math.exp(l1), math.exp(l2), math.exp(l3)
        else:
            # The linear update. Exact zeros short-circuit; a factor that is
            # not positive is rebuilt by _split_factor before it can raise.
            if x1 == 0.0:
                y1 = 0.0
            else:
                u = 1.0 + (a * x1 * x2 - b * x3 * x3) * fval
                if u <= 0.0:
                    u = _split_factor(fval, a, x1, x2, b, x3)
                    if u <= 0.0:
                        raise NonPositiveFactor(f"factor {u!r} for coordinate 1 at {(x1, x2, x3)}")
                y1 = x1 * u
            if x2 == 0.0:
                y2 = 0.0
            else:
                u = 1.0 + (c * x2 * x3 - a * x1 * x1) * fval
                if u <= 0.0:
                    u = _split_factor(fval, c, x2, x3, a, x1)
                    if u <= 0.0:
                        raise NonPositiveFactor(f"factor {u!r} for coordinate 2 at {(x1, x2, x3)}")
                y2 = x2 * u
            if x3 == 0.0:
                y3 = 0.0
            else:
                u = 1.0 + (b * x3 * x1 - c * x2 * x2) * fval
                if u <= 0.0:
                    u = _split_factor(fval, b, x3, x1, c, x2)
                    if u <= 0.0:
                        raise NonPositiveFactor(f"factor {u!r} for coordinate 3 at {(x1, x2, x3)}")
                y3 = x3 * u
            try:
                s = fsum((y1, y2, y3))
            except (ValueError, OverflowError):  # inf - inf, or an intermediate overflow
                s = math.nan
            # kernel.c's renormalize declines it; the usual sum, 1.0, takes one test
            if s != 1.0 and (s - s != 0.0 or s == 0.0):  # not finite, or zero
                raise NonPositiveFactor(f"the update of {(x1, x2, x3)} at step {n} sums to {s!r}")
            x1, x2, x3 = y1 / s, y2 / s, y3 / s
            # exact zeros (face orbits) are safe in linear arithmetic; only a
            # positive coordinate heading into underflow forces the switch
            if auto and (0.0 < x1 < tiny or 0.0 < x2 < tiny or 0.0 < x3 < tiny):
                use_log = True
                log_domain_from = n
                l1 = math.log(x1) if x1 > 0.0 else _NEG_INF
                l2 = math.log(x2) if x2 > 0.0 else _NEG_INF
                l3 = math.log(x3) if x3 > 0.0 else _NEG_INF
        if n == next_sample:
            j = 3 * k
            coords_mv[j], coords_mv[j + 1], coords_mv[j + 2] = x1, x2, x3
            if use_log:
                logs_mv[j], logs_mv[j + 1], logs_mv[j + 2] = l1, l2, l3
            k += 1
            next_sample = next(schedule, -1)
    return _trajectory(params, steps_arr, coords_arr, logs_arr, log_domain_from)


class RunSummary(NamedTuple):
    """What a sweep row reads of an auto run's samples (:func:`summarize_rows`)."""

    final: SimplexPoint
    entries: tuple  # ``analysis.sector_entries`` of the samples' sectors
    spread: float | None  # ``analysis.window_spread`` of the samples' coordinates


def summarize_rows(runs, n_steps: int, window: int, workers: int) -> list:
    """The summary of ``iterate(start, params, speed, n_steps, mode="auto")``
    for each ``(start, params, speed)`` of ``runs``, in order, kept by the
    compiled loop in its summary mode while it runs, so its memory grows
    with neither ``n_steps`` nor ``window``. ``spread`` is the max-norm
    diameter of the last ``window`` samples, taken from each coordinate's
    least and greatest value over them, the same floats as
    ``analysis.window_spread``; None when there are fewer samples than
    that. The runs go to :func:`kernel.iterate_rows` in one array of
    self-contained rows, which it runs on this thread and up to
    ``workers - 1`` threads of its own.

    Each sample's sector is taken in the domain the stepper took it in, as
    ``analysis.sector_array`` takes it, with ``Parameters.log_lambdas``.
    Every entry is None where the kernel does not run or does not evaluate
    one of the speeds; an entry is None where its run does not stand for
    the whole request (:func:`_whole_run`: the cases in which the
    Python loop raises or finishes the run), or where a sample fails a check
    of ``cli._validate_samples``; the caller then runs :func:`iterate` from
    step 0, so an error keeps its type and message.
    """
    steps = _sample_steps(n_steps, n_steps or 1)  # the endpoints: no row per step
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if kernel.handle() is None:
        return [None] * len(runs)
    tail_from = n_steps + 1 - window  # the window's first state, < 0 past the run's start
    rows = (kernel.Row * len(runs))()
    for row, (start, params, speed) in zip(rows, runs):
        if _kernel_row(row, params, speed, start.coords) is None:
            return [None] * len(runs)
        row.tail_from = max(tail_from, 0)
    kernel.iterate_rows(rows, workers, AUTO_LOG_THRESHOLD, steps)
    out, last = [], slice(3 * len(steps) - 3, 3 * len(steps))
    for row in rows:
        ran = tuple(row.rec)
        if not _whole_run(ran, n_steps) or row.failed:
            out.append(None)
            continue
        # the schedule records the last step, so the last sample is the final state
        final = SimplexPoint(tuple(row.coords[last]), None if ran[1] < 0 else tuple(row.logs[last]))
        spread = None if tail_from < 0 else max(hi - lo for hi, lo in zip(row.hi, row.lo))
        out.append(RunSummary(final, tuple(row.entries), spread))
    return out
