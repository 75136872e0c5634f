"""Continuous-time limit of the map: vector field, Euler scheme, reference.

Scaling the speed function by 1/n turns the map into the explicit Euler
scheme, with n substeps per time unit, for

    dx1/dt = x1 * (a*x1*x2 - b*x3^2) * f(x)
    dx2/dt = x2 * (c*x2*x3 - a*x1^2) * f(x)
    dx3/dt = x3 * (b*x1*x3 - c*x2^2) * f(x)

so Euler paths here are literally map iterations of the same stepper.
A fixed-step classical 4th-order integrator serves as the reference for
measuring the O(1/n) endpoint error. Both return endpoints only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .dynamics import Parameters, SpeedFunction, _growth_terms, _kernel_speed, iterate
from .errors import ReferenceUnavailable, StepTooLarge
from .simplex import SimplexPoint, distance
from .analysis import log_phi

MAX_REFERENCE_STEP = 1e-2
DEGENERATE_ERROR_FLOOR = 1e-12


def _field(x1, x2, x3, a, b, c, speed):
    """Right-hand side of the limiting system at (x1, x2, x3), as floats."""
    fval = speed(x1, x2, x3)
    return (
        x1 * (a * x1 * x2 - b * x3 * x3) * fval,
        x2 * (c * x2 * x3 - a * x1 * x1) * fval,
        x3 * (b * x3 * x1 - c * x2 * x2) * fval,
    )


def vector_field(p: SimplexPoint, params: Parameters, speed: SpeedFunction):
    """Right-hand side of the limiting system; components sum to zero."""
    return _field(*p.coords, params.a, params.b, params.c, speed)


# The largest step count an ODE run takes. The README and the bench run at
# most 5e5 steps; 1e8 RK4 steps already take minutes, so a larger count comes
# from a mistyped horizon, step size or substep count, and it is refused
# before the loop starts instead of running without end.
MAX_STEPS = 10**8


def _integer_steps(total: float, what: str) -> int:
    if not total <= MAX_STEPS:
        raise ValueError(f"{what} = {total!r} exceeds the cap of {MAX_STEPS} steps")
    steps = round(total)
    if abs(total - steps) > 1e-9 * max(1.0, abs(total)):
        raise ValueError(f"{what} = {total!r} is not an integer count of steps")
    return int(steps)


def euler_path(
    start: SimplexPoint,
    params: Parameters,
    speed: SpeedFunction,
    horizon: float,
    n: int,
) -> SimplexPoint:
    """Endpoint of the Euler scheme with n substeps per unit time over [0, horizon].

    This is the map itself with speed f/n, one :func:`iterate` call that
    records only the endpoint, so n = 1, horizon = 1 reproduces a single map
    step bit for bit. A sampled Euler path is
    ``iterate(start, params, speed.scaled(1 / n), round(horizon * n), stride)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    steps = _integer_steps(horizon * n, "horizon * n")
    return iterate(start, params, speed.scaled(1.0 / n), steps, stride=max(steps, 1)).final


def reference_path(
    start: SimplexPoint,
    params: Parameters,
    speed: SpeedFunction,
    horizon: float,
    h: float,
) -> SimplexPoint:
    """Endpoint of the classical fixed-step 4th-order reference integration.

    Renormalizes by the compensated coordinate sum after every step. The
    step size is capped at 1e-2 to keep the step-halving self-error at the
    1e-10 scale on the configurations this backs. For a constant or affine
    speed the steps run in the compiled copy of this loop in :mod:`.kernel`
    where it builds, with the same bits; a step whose sum is not finite or
    is zero goes back to this loop.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    if h > MAX_REFERENCE_STEP:
        raise StepTooLarge(f"step size {h!r} exceeds {MAX_REFERENCE_STEP}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    steps = _integer_steps(horizon / h, "horizon / h")
    a, b, c = params.a, params.b, params.c
    x1, x2, x3 = start.coords
    ran = kernel.rk4_run(a, b, c, _kernel_speed(speed), h, (x1, x2, x3), steps)
    if ran is not None:  # the compiled loop, where it runs; the Python loop takes the rest
        (x1, x2, x3), done = ran
        steps -= done
    for _ in range(steps):
        k1 = _field(x1, x2, x3, a, b, c, speed)
        k2 = _field(x1 + 0.5 * h * k1[0], x2 + 0.5 * h * k1[1], x3 + 0.5 * h * k1[2], a, b, c, speed)
        k3 = _field(x1 + 0.5 * h * k2[0], x2 + 0.5 * h * k2[1], x3 + 0.5 * h * k2[2], a, b, c, speed)
        k4 = _field(x1 + h * k3[0], x2 + h * k3[1], x3 + h * k3[2], a, b, c, speed)
        x1 = x1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        x2 = x2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        x3 = x3 + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        s = math.fsum((x1, x2, x3))
        x1, x2, x3 = x1 / s, x2 / s, x3 / s
    return SimplexPoint((x1, x2, x3))


def phi_gradient(p: SimplexPoint, params: Parameters):
    """Analytic gradient of the monotone functional at an interior point."""
    lp = log_phi(p, params)
    l1, l2, l3 = params.lambdas
    g1, g2, g3 = p.log_coords()
    return (
        l1 * math.exp(lp - g1),
        l2 * math.exp(lp - g2),
        l3 * math.exp(lp - g3),
    )


def lyapunov_derivative(p: SimplexPoint, params: Parameters, speed: SpeedFunction) -> float:
    """<grad phi, vector field> = phi * f * sum_i L_i * g_i.

    Negative on the interior away from the fixed point when all parameters
    are positive (and positive under all-negative parameters with the
    bounded speed), zero at equilibria.
    """
    lp = log_phi(p, params)
    if lp == float("-inf"):
        return 0.0
    x1, x2, x3 = p.coords
    fval = speed(x1, x2, x3)
    g1, g2, g3 = _growth_terms(x1, x2, x3, params.a, params.b, params.c)
    l1, l2, l3 = params.lambdas
    return math.exp(lp) * fval * math.fsum((l1 * g1, l2 * g2, l3 * g3))


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs (both already in log scale)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    mx = xs.mean()
    my = ys.mean()
    denom = float(((xs - mx) ** 2).sum())
    if denom == 0.0:
        raise ValueError("degenerate abscissae for slope fit")
    return float(((xs - mx) * (ys - my)).sum() / denom)


@dataclass(frozen=True)
class OrderFit:
    """Measured convergence order of the Euler endpoints toward the reference."""

    n_list: tuple
    errors: tuple
    slope: float | None
    degenerate: bool
    reference_self_error: float


def convergence_order(
    start: SimplexPoint,
    params: Parameters,
    speed: SpeedFunction,
    horizon: float,
    n_list,
    ref_h: float = 1e-3,
) -> OrderFit:
    """Fit the endpoint-error decay of the Euler scheme against the reference.

    Needs at least 4 substep counts spanning two decades. The reference is
    integrated at ref_h and ref_h/2; disagreement beyond 1e-8 raises
    ReferenceUnavailable. When every error sits below 1e-12 (start at an
    equilibrium, or zero horizon) the fit is reported as degenerate.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 4:
        raise ValueError("need at least 4 substep counts")
    if min(n_list) < 1:
        raise ValueError("substep counts must be >= 1")
    if max(n_list) / min(n_list) < 100:
        raise ValueError("substep counts must span at least two decades")
    ref = reference_path(start, params, speed, horizon, ref_h)
    ref_half = reference_path(start, params, speed, horizon, ref_h / 2.0)
    self_err = distance(ref, ref_half)
    if self_err > 1e-8:
        raise ReferenceUnavailable(
            f"reference step-halving self-error {self_err:.3e} exceeds 1e-8"
        )
    errors = [distance(euler_path(start, params, speed, horizon, n), ref_half) for n in n_list]
    if max(errors) < DEGENERATE_ERROR_FLOOR:
        return OrderFit(tuple(n_list), tuple(errors), None, True, self_err)
    xs = [math.log(1.0 / n) for n in n_list]
    ys = [math.log(max(e, 1e-300)) for e in errors]
    slope = fit_loglog_slope(xs, ys)
    return OrderFit(tuple(n_list), tuple(errors), slope, False, self_err)
