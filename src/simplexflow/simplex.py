"""Points and regions of the 2-simplex.

Coordinates are relative species frequencies: three non-negative reals
summing to 1. Points can carry a log-domain representation (natural log of
each coordinate, -inf for exact zeros) so that long runs that drive
coordinates far below double-precision underflow stay meaningful.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NegativeCoordinate, SumOutOfTolerance

# Input tolerance for make_point; the stored point is renormalized exactly.
SUM_INPUT_TOL = 1e-9
# Threshold below which a coordinate counts as zero for region tests.
ZERO_TOL = 1e-12

_NEG_INF = float("-inf")


def log_sum_exp(values) -> float:
    """log(exp(u) + exp(v) + exp(w)) of three values with the max-shift trick;
    tolerates -inf entries.

    A term equal to the maximum m takes exp(0) = 1.0, and a -inf term 0.0,
    without a call, as ``kernel.c``'s ``exp_below`` does; both are exact, and
    ``fsum`` is correctly rounded, so the bits are those of the plain form,
    which gives NaN where m is +inf or NaN.
    """
    u, v, w = values
    m = max(u, v, w)
    if m - m != 0.0:  # -inf, where every term is, or +inf or NaN
        return m if m == _NEG_INF else math.nan
    return m + math.log(math.fsum((
        1.0 if u == m else 0.0 if u == _NEG_INF else math.exp(u - m),
        1.0 if v == m else 0.0 if v == _NEG_INF else math.exp(v - m),
        1.0 if w == m else 0.0 if w == _NEG_INF else math.exp(w - m))))


@dataclass(frozen=True)
class SimplexPoint:
    """Immutable point of the 2-simplex.

    ``coords`` is always populated; ``logs`` is present iff the point is in
    log-domain representation, in which case the logs are authoritative and
    ``coords`` holds their (possibly underflowed) linear images.
    """

    coords: tuple[float, float, float]
    logs: tuple[float, float, float] | None = None

    def log_coords(self) -> tuple[float, float, float]:
        """Natural logs of the coordinates (-inf for exact zeros)."""
        if self.logs is not None:
            return self.logs
        return tuple(math.log(c) if c > 0.0 else _NEG_INF for c in self.coords)


def make_point(x1: float, x2: float, x3: float) -> SimplexPoint:
    """Validate and renormalize raw coordinates into a SimplexPoint.

    Raises NegativeCoordinate for any negative input and SumOutOfTolerance
    when the input sum is farther than 1e-9 from 1. The stored coordinates
    are the inputs divided by their correctly rounded sum.
    """
    coords = (float(x1), float(x2), float(x3))
    for c in coords:
        if math.isnan(c) or c < 0.0:
            raise NegativeCoordinate(f"coordinate {c!r} is not a non-negative real")
    try:
        s = math.fsum(coords)
    except OverflowError:  # a sum past the largest double
        s = math.inf
    if abs(s - 1.0) > SUM_INPUT_TOL:
        raise SumOutOfTolerance(f"coordinate sum {s!r} differs from 1 by more than {SUM_INPUT_TOL}")
    return SimplexPoint((coords[0] / s, coords[1] / s, coords[2] / s))


def from_logs(l1: float, l2: float, l3: float) -> SimplexPoint:
    """Build a log-domain point from raw logs, renormalizing via log-sum-exp."""
    logs = (float(l1), float(l2), float(l3))
    for v in logs:
        if math.isnan(v) or v == math.inf:
            raise NegativeCoordinate(f"log coordinate {v!r} is not in [-inf, inf)")
    z = log_sum_exp(logs)
    if z == _NEG_INF:
        raise SumOutOfTolerance("all log coordinates are -inf")
    logs = (logs[0] - z, logs[1] - z, logs[2] - z)
    coords = tuple(math.exp(v) for v in logs)
    return SimplexPoint(coords, logs)


def vertex_point(i: int) -> SimplexPoint:
    """The i-th vertex (1-based) as an exact point."""
    coords = tuple(1.0 if k == i else 0.0 for k in (1, 2, 3))
    return SimplexPoint(coords)


def classify_region(p: SimplexPoint) -> tuple[int, ...]:
    """Species (1-based, ascending) allowed to be positive where p lies:
    (1, 2, 3) in the interior, (i, j) on a face, (i,) at a vertex.

    A coordinate >= 1 - 2*ZERO_TOL makes the point a vertex, the lowest
    index winning; otherwise a coordinate below ``ZERO_TOL`` counts as
    extinct. A point with every coordinate below ``ZERO_TOL`` (not a point
    of the simplex) counts as interior.
    """
    for i, x in enumerate(p.coords, start=1):
        if x >= 1.0 - 2.0 * ZERO_TOL:
            return (i,)
    alive = tuple(i for i, x in enumerate(p.coords, start=1) if x >= ZERO_TOL)
    return alive if 0 < len(alive) < 3 else (1, 2, 3)


def distance(p: SimplexPoint, q: SimplexPoint) -> float:
    """Max-norm distance between two points."""
    return max(abs(a - b) for a, b in zip(p.coords, q.coords))


def in_vertex_nbhd(p: SimplexPoint, i: int, eps: float) -> bool:
    """Whether x_i >= 1 - eps, i.e. the point lies in the eps-neighborhood of vertex i."""
    return p.coords[i - 1] >= 1.0 - eps


def nearest_vertex(p: SimplexPoint) -> int:
    """Index (1-based) of the vertex closest to p (largest coordinate)."""
    x1, x2, x3 = p.coords
    if x1 >= x2 and x1 >= x3:
        return 1
    return 2 if x2 >= x3 else 3
