"""Diagnostics for orbits of the prey-predator map.

Covers the monotone orbit functional phi = x1^L1 * x2^L2 * x3^L3 (computed
in log domain throughout), its one-step multiplier psi, the sum-of-squares
form that controls psi's distance from 1, the six rescaled-coordinate
sectors with their cyclic transition audit, iterated running averages of
every order with their coefficient table, sojourn statistics in vertex
neighborhoods, regime classification from the parameter sign pattern, and
finite-horizon convergence / persistence / limit-set estimates.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import kernel
from .dynamics import Parameters, SpeedFunction, Trajectory, _growth_terms
from .errors import OrderOverflow, SizeLimit, StrideTooCoarse
from .simplex import SimplexPoint

_NEG_INF = float("-inf")

# Chains of the six sectors: sector k holds points whose rescaled
# coordinates y_i = x_i / L_i satisfy y_first >= y_mid >= y_last. Ties are
# resolved by this fixed priority order, making the classifier total.
SECTOR_ORDERINGS = {
    1: (1, 2, 3),
    2: (1, 3, 2),
    3: (3, 1, 2),
    4: (3, 2, 1),
    5: (2, 3, 1),
    6: (2, 1, 3),
}

REGIME_VERTEX = "vertex_convergence"
REGIME_CYCLING = "non_ergodic_cycling"
REGIME_INTERIOR = "interior_convergence"

MAX_CESARO_ORDER = 32
COEFFICIENT_N_LIMIT = 100_000
COEFFICIENT_K_LIMIT = 8

GAMMA0_LEVELS = 60  # halvings of the top phi that estimate_gamma0 tries
PERSISTENCE_TAIL_FRACTION = 0.1  # share of the samples in the persistence tail
PHI_INCREASE_TOL = 1e-12  # largest log-phi rise per step that counts as non-increasing

# The smallest omega-limit grid cell. A coordinate of 1 lands in cell
# floor(1/grid), which int64 holds only while 1/grid < 2**63 (9.2e18); below
# that the cell index wraps to INT64_MIN. 1e-18 keeps a factor of 9 of margin.
MIN_GRID = 1e-18


# ---------------------------------------------------------------------------
# Monotone orbit functional and friends
# ---------------------------------------------------------------------------

def log_phi(p: SimplexPoint, params: Parameters) -> float:
    """log of x1^L1 * x2^L2 * x3^L3; -inf on the boundary."""
    l1, l2, l3 = params.lambdas
    g1, g2, g3 = p.log_coords()
    if g1 == _NEG_INF or g2 == _NEG_INF or g3 == _NEG_INF:
        return _NEG_INF
    return math.fsum((l1 * g1, l2 * g2, l3 * g3))


def lyapunov_phi(p: SimplexPoint, params: Parameters) -> float:
    """x1^L1 * x2^L2 * x3^L3, maximal exactly at the interior fixed point.

    Zero iff the point lies on the boundary. Evaluated through the log
    domain so that products of tiny powers cannot underflow pairwise.
    """
    v = log_phi(p, params)
    return 0.0 if v == _NEG_INF else math.exp(v)


def psi(p: SimplexPoint, params: Parameters, speed: SpeedFunction) -> float:
    """One-step multiplier of phi: phi(step(p)) = phi(p) * psi(p).

    Equals the product of the three update factors raised to the lambda
    weights; <= 1 everywhere when all parameters are positive, >= 1 under
    all-negative parameters with the speed bounded by (5/4) * min L_i/L_j.
    """
    x1, x2, x3 = p.coords
    fval = speed(x1, x2, x3)
    g1, g2, g3 = _growth_terms(x1, x2, x3, params.a, params.b, params.c)
    l1, l2, l3 = params.lambdas
    acc = 0.0
    for lam, g in ((l1, g1), (l2, g2), (l3, g3)):
        t = g * fval
        if t <= -1.0:
            return 0.0
        acc += lam * math.log1p(t)
    return math.exp(acc)


def quad_form(p: SimplexPoint, params: Parameters) -> float:
    """Sum-of-squares form vanishing exactly at the interior fixed point.

    (|a^2 b|^(1/3) x1 - |c^2 a|^(1/3) x2)^2 + (|a^2 b|^(1/3) x1 -
    |b^2 c|^(1/3) x3)^2 + (|c^2 a|^(1/3) x2 - |b^2 c|^(1/3) x3)^2. Controls
    how far psi sits from 1.
    """
    a, b, c = params.a, params.b, params.c
    ca = abs(a * a * b) ** (1.0 / 3.0)
    cb = abs(c * c * a) ** (1.0 / 3.0)
    cc = abs(b * b * c) ** (1.0 / 3.0)
    x1, x2, x3 = p.coords
    d12 = ca * x1 - cb * x2
    d13 = ca * x1 - cc * x3
    d23 = cb * x2 - cc * x3
    return d12 * d12 + d13 * d13 + d23 * d23


# ---------------------------------------------------------------------------
# Sectors
# ---------------------------------------------------------------------------

def _sector_kernel(coords: np.ndarray, logs: np.ndarray | None, params: Parameters,
                   head: int = 0) -> np.ndarray:
    """Sector index 1..6 per row of the rescaled coordinates: the first
    ordering of ``SECTOR_ORDERINGS`` that the row satisfies, so ties go to
    the lowest index.

    Rows from ``head`` on, which the stepper took in the log domain, take
    y_i = l_i - log L_i (``Parameters.log_lambdas``); the rows before it,
    and every row without logs, take y_i = x_i / L_i. Both are exact IEEE
    operations, so the compiled loop (``state_sector`` in ``kernel.c``)
    makes the same decisions.
    """
    n = len(coords)
    if logs is None:
        head = n
    y = [np.empty(n) for _ in range(3)]  # one array per column: faster than one (3, n) array
    for i in range(3):
        np.divide(coords[:head, i], params.lambdas[i], out=y[i][:head])
        if head < n:
            np.subtract(logs[head:, i], params.log_lambdas[i], out=y[i][head:])
    out = np.zeros(n, dtype=np.int8)
    # np.select's rule, written out: the first ordering that holds is written last
    for k, (hi, mid, lo) in reversed(SECTOR_ORDERINGS.items()):
        out[(y[hi - 1] >= y[mid - 1]) & (y[mid - 1] >= y[lo - 1])] = k
    if not out.all():  # the orderings are exhaustive: only a NaN fails every comparison
        k = int(out.argmin())
        row = coords[k] if k < head else logs[k]
        raise ValueError(f"sample {k} has no sector: a NaN in {row.tolist()}")
    return out


def sector(p: SimplexPoint, params: Parameters) -> int:
    """Sector index 1..6 of one point: a one-row view of the sector kernel."""
    logs = None if p.logs is None else np.array([p.logs])
    return int(_sector_kernel(np.array([p.coords]), logs, params)[0])


def log_phi_array(traj: Trajectory) -> np.ndarray:
    """Per-sample log phi values of a trajectory.

    A matmul, where the scalar :func:`log_phi` sums with ``fsum``: the two
    can differ in the last bit, and each is pinned by the outputs built on it.
    """
    logs = traj.log_coords_array()
    lam = np.asarray(traj.params.lambdas)
    out = logs @ lam
    # rows touching the boundary: -inf * lam + finite stays -inf, but an
    # exact-zero row paired with +0 weights cannot occur (lambdas > 0)
    return out


def sector_array(traj: Trajectory) -> np.ndarray:
    """Per-sample sector indices of a trajectory, each in the domain the
    stepper took its sample in: the samples an auto run took before its
    switch compare x_i / L_i, the rest of a run with logs l_i - log L_i."""
    head = 0
    if traj.log_domain_from is not None:
        head = int(np.searchsorted(traj.steps, traj.log_domain_from))
    return _sector_kernel(traj.coords, traj.logs, traj.params, head)


def sector_entries(sec: np.ndarray) -> np.ndarray:
    """Entries into each sector along a sequence of sector indices.

    Element k counts the maximal runs of sector k, for k = 1..6 (element 0
    is unused); the first sample counts as an entry.
    """
    entry = np.empty(len(sec), dtype=bool)
    entry[:1] = True
    entry[1:] = sec[1:] != sec[:-1]
    return np.bincount(sec[entry], minlength=7)


def attach_observables(traj: Trajectory) -> None:
    """Store the per-sample ``log_phi`` and ``sector`` arrays on the trajectory.
    The sectors that a compiled ``iterate`` run took while it stored its
    samples, by :func:`sector_array`'s rule, are kept; the others are taken
    here."""
    traj.observables["log_phi"] = log_phi_array(traj)
    if "sector" not in traj.observables:
        traj.observables["sector"] = sector_array(traj)


def _observables(traj: Trajectory) -> dict:
    """The trajectory's observables, attached first when they are missing."""
    if "log_phi" not in traj.observables or "sector" not in traj.observables:
        attach_observables(traj)
    return traj.observables


# ---------------------------------------------------------------------------
# Iterated running averages (streaming) and their coefficient table
# ---------------------------------------------------------------------------

class CesaroState:
    """Streaming state of the running averages c_0..c_K at the current step.

    c_0 is the orbit itself; c_{k+1}^(n) averages c_k^(0..n). One push costs
    O(K): c_k^(n) = (n * c_k^(n-1) + c_{k-1}^(n)) / (n + 1). Push order
    matters; the state is mutated in place and not thread-safe.
    """

    __slots__ = ("max_order", "n", "_values")

    def __init__(self, max_order: int):
        if not 0 <= max_order <= MAX_CESARO_ORDER:
            raise OrderOverflow(
                f"max_order {max_order} outside [0, {MAX_CESARO_ORDER}]"
            )
        self.max_order = max_order
        self.n = -1  # step index of the latest push
        self._values = [[0.0, 0.0, 0.0] for _ in range(max_order + 1)]

    def push(self, coords) -> "CesaroState":
        x1, x2, x3 = coords
        n = self.n + 1
        vals = self._values
        v0 = vals[0]
        v0[0] = x1
        v0[1] = x2
        v0[2] = x3
        inv = 1.0 / (n + 1)
        prev = v0
        for k in range(1, self.max_order + 1):
            vk = vals[k]
            vk[0] = (n * vk[0] + prev[0]) * inv
            vk[1] = (n * vk[1] + prev[1]) * inv
            vk[2] = (n * vk[2] + prev[2]) * inv
            prev = vk
        self.n = n
        return self

    def scan(self, coords, at) -> np.ndarray:
        """Push every row of ``coords`` (shape ``(m, 3)``) and return the
        values of every order after the pushes of the rows ``at``, an
        ascending sequence of row indices: an array of shape
        ``(len(at), max_order + 1, 3)``.

        The state ends as the same pushes leave it, so ``push`` and ``scan``
        mix. The compiled kernel runs the pushes when it is available, with
        the bits of :meth:`push`, which runs them otherwise.
        """
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        at = np.ascontiguousarray(at, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != 3 or at.ndim != 1:
            raise ValueError("scan needs rows of three coordinates and a flat index array")
        if at.size and (at[0] < 0 or at[-1] >= len(coords) or np.any(at[1:] < at[:-1])):
            raise ValueError("scan marks must be ascending row indices")
        out = np.empty((len(at), self.max_order + 1, 3))
        run = kernel.cesaro_run(self.n, self._values, coords, at, out)
        if run is not None:
            self.n, self._values = run
            return out
        marks, j = at.tolist(), 0
        for i, row in enumerate(coords.tolist()):
            self.push(row)
            while j < len(marks) and marks[j] == i:
                out[j] = self._values
                j += 1
        return out

    def value(self, k: int) -> tuple[float, float, float]:
        if not 0 <= k <= self.max_order:
            raise OrderOverflow(f"order {k} outside [0, {self.max_order}]")
        if self.n < 0:
            raise ValueError("no values pushed yet")
        return tuple(self._values[k])


def cesaro_coefficient_rows(max_order: int, n: int) -> list[np.ndarray]:
    """Rows a_{., k, n} for every k <= max_order: c_k^(n) = a_{., k, n} @ x^(0..n).

    With M the running-average matrix, M[j, i] = 1/(j+1) for i <= j, the
    row for order k is row n of M^k. Order 0 is the indicator of n, and
    each order is the previous row times M: a reverse cumulative sum of the
    row divided by (j+1). The whole table costs O(K * n).
    """
    if n < 0 or max_order < 0:
        raise ValueError("order and n must be non-negative")
    if n > COEFFICIENT_N_LIMIT or max_order > COEFFICIENT_K_LIMIT:
        raise SizeLimit(
            f"coefficient table k={max_order}, n={n} exceeds supported scale "
            f"({COEFFICIENT_K_LIMIT}, {COEFFICIENT_N_LIMIT})"
        )
    counts = np.arange(1.0, n + 2.0)
    row = np.zeros(n + 1)
    row[n] = 1.0
    rows = [row]
    for _ in range(max_order):
        row = np.cumsum((row / counts)[::-1])[::-1]
        rows.append(row)
    return rows


def cesaro_coefficients(k: int, n: int) -> np.ndarray:
    """The weight row expressing c_k^(n) over the orbit points x^(0..n)."""
    return cesaro_coefficient_rows(k, n)[k]


def tail_mass(k: int, n: int, eps: float) -> float:
    """Total coefficient weight on indices i >= floor(eps * n).

    Tends to 1 as n grows then eps shrinks; reported as a diagnostic of how
    much the order-k average is driven by the recent orbit. eps must not be
    negative or NaN. For n >= 1 an eps above 1, infinite included, leaves no
    index and gives 0; at n = 0 the cutoff is index 0 and gives 1.
    """
    if not eps >= 0.0:
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    row = cesaro_coefficients(k, n)
    i0 = math.floor(min(eps, 2.0) * n)  # any eps >= 2 cuts as 2 does, the infinite one too
    return float(np.sum(row[i0:]))


# ---------------------------------------------------------------------------
# Sector cycle audit
# ---------------------------------------------------------------------------

class SectorAudit(NamedTuple):
    """Outcome of auditing one-step sector transitions under a phi filter."""

    gamma: float
    audited_samples: int
    visits: dict
    step_counts: dict
    transitions: dict
    violations: list
    degenerate_filter: bool

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def _illegal(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Where a move from sector ``before`` to sector ``after`` neither stays
    put nor advances one sector cyclically (6 -> 1 is a step of -5)."""
    step = after - before
    return (step != 0) & (step != 1) & (step != -5)


def _require_consecutive_steps(traj: Trajectory) -> None:
    """Refuse a trajectory with a gap in its steps: a gap would fake a
    multi-step transition as a single step."""
    if np.any(np.diff(traj.steps) != 1):
        raise StrideTooCoarse("audit needs samples at consecutive steps")


def sector_cycle_audit(traj: Trajectory, gamma: float) -> SectorAudit:
    """Audit sector transitions among samples with phi <= gamma.

    Only pairs of consecutive recorded steps both passing the filter are
    judged; a transition other than staying put or advancing one sector
    cyclically is a violation. Requires samples at consecutive steps.

    Passes: the filter, the sectors of the samples it keeps, and one pass
    for the moves between consecutive kept samples; Python loops over the
    moves only.
    """
    _require_consecutive_steps(traj)
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    obs = _observables(traj)
    sec, lp = obs["sector"], obs["log_phi"]
    mask = lp <= math.log(gamma)
    idx = np.nonzero(mask)[0]
    sel = sec[idx]
    entries = sector_entries(sel)
    steps_in = np.bincount(sel, minlength=7)
    visits = {k: int(entries[k]) for k in range(1, 7)}
    step_counts = {k: int(steps_in[k]) for k in range(1, 7)}
    transitions: dict = {}
    moved = np.nonzero(mask[:-1] & mask[1:] & (sec[1:] != sec[:-1]))[0]
    for k in moved:
        i, j = int(sec[k]), int(sec[k + 1])
        transitions[(i, j)] = transitions.get((i, j), 0) + 1
    violations = [(int(traj.steps[k]), int(sec[k]), int(sec[k + 1]))
                  for k in moved[_illegal(sec[moved], sec[moved + 1])]]
    degenerate = bool(idx.size) and bool(np.all(np.isneginf(lp[idx])))
    return SectorAudit(
        gamma=gamma,
        audited_samples=int(idx.size),
        visits=visits,
        step_counts=step_counts,
        transitions=transitions,
        violations=violations,
        degenerate_filter=degenerate,
    )


def estimate_gamma0(traj: Trajectory) -> float | None:
    """Empirical threshold for the cyclic-transition guarantee.

    The guarantee holds below some positive phi level that is not
    constructive; this scans the dyadic grid max_phi * 2^-m and returns the
    largest value whose audit (:func:`sector_cycle_audit`) would show zero
    illegal transitions. None when even the smallest grid value is dirty or
    no positive phi exists.

    Passes: one over the sectors for the illegal moves and one over their
    log phi pairs. An illegal move is judged at gamma exactly when both of
    its samples pass ``lp <= log(gamma)``, so the audit at gamma is clean
    exactly when ``log(gamma)`` lies below T, the least over the illegal
    moves of the larger log phi of the pair; the grid is then scanned
    against T alone, with the audit's own comparison.
    """
    obs = _observables(traj)
    lp = obs["log_phi"]
    finite = lp[np.isfinite(lp)]
    if finite.size == 0:
        return None
    top = float(np.max(finite))
    if math.exp(top) <= 0.0:
        return None
    _require_consecutive_steps(traj)
    sec = obs["sector"]
    illegal = np.nonzero(_illegal(sec[:-1], sec[1:]))[0]
    pair_top = np.maximum(lp[illegal], lp[illegal + 1])
    pair_top = pair_top[pair_top <= math.inf]  # a NaN sample passes no filter
    threshold = float(pair_top.min()) if pair_top.size else math.inf
    for m in range(GAMMA0_LEVELS + 1):
        gamma = math.exp(top) * 0.5**m
        if gamma <= 0.0:
            break
        if not math.log(gamma) >= threshold:
            return gamma
    return None


# ---------------------------------------------------------------------------
# Sojourns, regimes, convergence, persistence, limit sets
# ---------------------------------------------------------------------------

class Sojourn(NamedTuple):
    vertex: int
    start_step: int
    end_step: int
    length: int
    log_phi_at_start: float


def sojourn_stats(traj: Trajectory, eps: float) -> dict[int, list[Sojourn]]:
    """Maximal runs of consecutive samples inside each vertex neighborhood.

    A sample is in the neighborhood of vertex i when x_i >= 1 - eps. Meant
    for samples at consecutive steps; with gaps the runs are reported in
    recorded steps and may merge separate excursions.
    """
    lp = _observables(traj)["log_phi"]
    out: dict[int, list[Sojourn]] = {1: [], 2: [], 3: []}
    for i in (1, 2, 3):
        inside = traj.coords[:, i - 1] >= 1.0 - eps
        if not inside.any():
            continue
        padded = np.concatenate(([False], inside, [False]))
        d = np.diff(padded.astype(np.int8))
        starts = np.nonzero(d == 1)[0]
        ends = np.nonzero(d == -1)[0] - 1
        for s, e in zip(starts, ends):
            out[i].append(
                Sojourn(
                    vertex=i,
                    start_step=int(traj.steps[s]),
                    end_step=int(traj.steps[e]),
                    length=int(e - s + 1),
                    log_phi_at_start=float(lp[s]),
                )
            )
    return out


class RegimeReport(NamedTuple):
    """Asymptotic regime implied by the sign pattern of (a, b, c)."""

    regime: str
    predicted_limit: SimplexPoint | None
    persistence: str
    description: str


def classify_regime(params: Parameters) -> RegimeReport:
    """Regime from the parameter signs.

    Mixed signs: every orbit converges to one vertex and no species
    persists. All positive: orbits cycle the boundary forever, every
    species keeps resurging (weak persistence) but also keeps crashing. All
    negative: interior orbits settle at the interior fixed point and all
    species persist strongly.
    """
    pattern = params.sign_pattern
    if pattern == "mixed":
        return RegimeReport(
            REGIME_VERTEX,
            None,
            "none",
            "all orbits approach a single vertex; at most one species survives",
        )
    if pattern == "positive":
        return RegimeReport(
            REGIME_CYCLING,
            None,
            "weak",
            "orbits cycle near the boundary with ever longer vertex sojourns; "
            "time averages of every order keep oscillating",
        )
    return RegimeReport(
        REGIME_INTERIOR,
        params.fixed_point,
        "strong",
        "interior orbits converge to the interior fixed point; all species persist",
    )


def detect_convergence(traj: Trajectory, tol: float, window: int) -> SimplexPoint | None:
    """Final point if the last `window` samples have max-norm diameter < tol.

    Returns None otherwise (including when fewer than `window` samples
    exist). Honest tolerances keep this None in the cycling regime, where
    the diameter stays large over full sector cycles.
    """
    spread = window_spread(traj.coords, window)
    return traj.final if spread is not None and spread < tol else None


def window_spread(coords: np.ndarray, window: int) -> float | None:
    """The max-norm diameter of the last `window` rows of `coords`, the
    spread that :func:`detect_convergence` tests; None when `coords` has
    fewer rows."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if len(coords) < window:
        return None
    tail = coords[-window:]
    return float(np.max(tail.max(axis=0) - tail.min(axis=0)))


class PersistenceReport(NamedTuple):
    """Finite-horizon proxies for each species' liminf/limsup frequency.

    Estimates only: a finite run cannot certify persistence, merely hint at
    it. ``tail_min``/``tail_max`` are taken over the trailing window, the
    last ``PERSISTENCE_TAIL_FRACTION`` of the samples and at least two.
    ``log_global_min``/``log_tail_min`` are the same minima of the log
    coordinates: a species far below double underflow has a linear minimum
    of 0.0 but a finite log minimum when the run used the log stepper, and
    -inf only when it is extinct.
    """

    global_min: tuple[float, float, float]
    tail_min: tuple[float, float, float]
    tail_max: tuple[float, float, float]
    tail_start_step: int
    log_global_min: tuple[float, float, float]
    log_tail_min: tuple[float, float, float]


def persistence_report(traj: Trajectory) -> PersistenceReport:
    """The :class:`PersistenceReport` of a trajectory.

    Passes: one ``min`` or ``max`` per column of the coordinates and of the
    log coordinates, over all samples or over the tail, never a reduction
    across the rows of the sample arrays.
    """
    count = len(traj)
    tail = max(2, int(count * PERSISTENCE_TAIL_FRACTION))
    tail = min(tail, count)
    coords = traj.coords
    logs = traj.log_coords_array()

    def per_column(rows, reduce):
        return tuple(float(reduce(rows[:, i])) for i in range(3))

    return PersistenceReport(
        global_min=per_column(coords, np.min),
        tail_min=per_column(coords[-tail:], np.min),
        tail_max=per_column(coords[-tail:], np.max),
        tail_start_step=int(traj.steps[count - tail]),
        log_global_min=per_column(logs, np.min),
        log_tail_min=per_column(logs[-tail:], np.min),
    )


def omega_limit_estimate(traj: Trajectory, burn_in: int, grid: float) -> frozenset:
    """Grid cells visited after the burn-in step: a crude limit-set proxy.

    In the cycling regime the hit set concentrates near the boundary; in the
    convergent regimes it shrinks to the cell of the limit.

    Passes: one per column for the x1 and x2 cells of the samples from the
    burn-in step on (a suffix, since the steps ascend), one comparing each
    row's cell with the previous row's, and one picking the rows where the
    cell changes; only those rows' cells go into the set, which is the set
    of every row's cell.
    """
    if not grid >= MIN_GRID:
        raise ValueError(f"grid must be >= {MIN_GRID}, got {grid!r}")
    head = int(np.searchsorted(traj.steps, burn_in))
    c1, c2 = (np.floor(traj.coords[head:, i] / grid).astype(np.int64) for i in range(2))
    change = np.ones(len(c1), dtype=bool)
    change[1:] = (c1[1:] != c1[:-1]) | (c2[1:] != c2[:-1])
    return frozenset(zip(c1[change].tolist(), c2[change].tolist()))


def phi_decay_stats(traj: Trajectory) -> dict:
    """Summary of how phi moved along the run.

    Reports the empirical per-step geometric decay (mean log-phi change) and
    whether the sequence was non-increasing up to ``PHI_INCREASE_TOL`` per
    step, which is the testable finite-run face of monotonicity.
    """
    lp = _observables(traj)["log_phi"]
    finite = np.isfinite(lp)
    diffs = np.diff(lp[finite]) if finite.sum() >= 2 else np.array([])
    worst = float(diffs.max()) if diffs.size else 0.0
    return {
        "log_phi_start": float(lp[0]),
        "log_phi_final": float(lp[-1]),
        "mean_log_decay_per_step": float(diffs.mean()) if diffs.size else 0.0,
        "max_single_increase": worst,
        "non_increasing": bool(worst <= PHI_INCREASE_TOL),
        "finite_samples": int(finite.sum()),
    }
