"""Points and regions of the 2-simplex.

Coordinates are relative species frequencies: three non-negative reals
summing to 1. Points can carry a log-domain representation (natural log of
each coordinate, -inf for exact zeros) so that long runs that drive
coordinates far below double-precision underflow stay meaningful.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeCoordinate, SumOutOfTolerance

# Input tolerance for make_point; the stored point is renormalized exactly.
SUM_INPUT_TOL = 1e-9
# Threshold below which a coordinate counts as zero for region tests.
ZERO_TOL = 1e-12

_NEG_INF = float("-inf")


def log_sum_exp(values) -> float:
    """log(sum(exp(v))) with the max-shift trick; tolerates -inf entries.

    ``fsum`` is correctly rounded, so the unpacked forms for two and three
    values return the bits of the general one.
    """
    m = max(values)
    if m == _NEG_INF:
        return _NEG_INF
    n = len(values)
    if n == 3:
        u, v, w = values
        return m + math.log(math.fsum((math.exp(u - m), math.exp(v - m), math.exp(w - m))))
    if n == 2:
        u, v = values
        return m + math.log(math.fsum((math.exp(u - m), math.exp(v - m))))
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


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

    def to_log(self) -> "SimplexPoint":
        if self.logs is not None:
            return self
        return SimplexPoint(self.coords, self.log_coords())

    def to_linear(self) -> "SimplexPoint":
        if self.logs is None:
            return self
        return SimplexPoint(self.coords, None)


@dataclass(frozen=True)
class Region:
    """Location of a point: interior, a two-species face, or a vertex.

    ``members`` lists the species (1-based) allowed to be positive there.
    """

    kind: str  # "interior" | "face" | "vertex"
    members: tuple[int, ...]

    @classmethod
    def interior(cls) -> "Region":
        return cls("interior", (1, 2, 3))

    @classmethod
    def face(cls, i: int, j: int) -> "Region":
        lo, hi = sorted((i, j))
        return cls("face", (lo, hi))

    @classmethod
    def vertex(cls, i: int) -> "Region":
        return cls("vertex", (i,))

    @property
    def is_interior(self) -> bool:
        return self.kind == "interior"

    @property
    def is_face(self) -> bool:
        return self.kind == "face"

    @property
    def is_vertex(self) -> bool:
        return self.kind == "vertex"

    @property
    def vertex_index(self) -> int:
        if self.kind != "vertex":
            raise ValueError("not a vertex region")
        return self.members[0]


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
    s = math.fsum(coords)
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


def classify_region(p: SimplexPoint) -> Region:
    """Region of one point: the :func:`region_code_array` rule decoded."""
    code = int(region_code_array(np.array([p.coords]))[0])
    if code == 0:
        return Region.interior()
    if code < 10:
        return Region.vertex(code)
    return Region.face(code // 10, code % 10)


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
