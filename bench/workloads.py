"""Benchmark workloads: seeded CLI inputs and the checks on their outputs.

Each workload builds a pool of distinct ``simplexflow`` argument vectors
from a seed and knows how to check one invocation's output. A check returns
a list of problems; an empty list means the output is correct. The
benchmark never feeds the program anything but these argument vectors.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass

ROW_SUM_TOL = 1e-9
SWEEP_THREADS = 2
SWEEP_SIGNS = (-1.0, 1.0)
SWEEP_F = 0.5
SWEEP_STARTS = 4
ODE_HORIZON = 5.0
ODE_REF_H = 1e-3
SLOPE_RANGE = (0.9, 1.1)

REGIME_BY_SIGNS = {
    "negative": "interior_convergence",
    "positive": "non_ergodic_cycling",
    "mixed": "vertex_convergence",
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argument vector and the map generations it requests."""

    argv: tuple
    steps: int


def _scale(u: float, lo: float, hi: float) -> float:
    return round(lo + (hi - lo) * u, 6)


def _interior(u: float, v: float, floor: float) -> str:
    """Point of the simplex with every coordinate >= floor, uniform in (u, v)."""
    r = math.sqrt(u)
    y = (1.0 - r, r * (1.0 - v), r * v)
    x1, x2 = (round(floor + (1.0 - 3.0 * floor) * t, 6) for t in y[:2])
    return f"{x1!r},{x2!r},{round(1.0 - x1 - x2, 6)!r}"


def _problems_in_rows(rows, what: str) -> list[str]:
    """Each row must be finite, non-negative and sum to 1 within ROW_SUM_TOL."""
    out = []
    for k, row in enumerate(rows):
        if len(row) != 3:
            out.append(f"{what} row {k} has {len(row)} coordinates")
        elif not all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0 for v in row):
            out.append(f"{what} row {k} is not finite and non-negative: {row!r}")
        elif abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
            out.append(f"{what} row {k} sums to {math.fsum(row)!r}")
        if len(out) >= 3:
            break
    return out


def _sign_pattern(a: float, b: float, c: float) -> str:
    signs = {v > 0.0 for v in (a, b, c)}
    if signs == {True}:
        return "positive"
    if signs == {False}:
        return "negative"
    return "mixed"


class Workload:
    name = ""
    ranges: dict = {}  # what make() draws from; printed on the run's meta line
    # Distinct inputs per seed; a run cycles through them and covers them all
    # at least once. More inputs average out input-dependent cost across seeds.
    pool_size = 16
    dims = 6  # uniforms that make() turns into one input

    def __init__(self, quick: bool = False):
        self.quick = quick

    def pool(self, seed: int) -> list[Invocation]:
        """The seed's inputs, drawn as a Latin hypercube.

        Each input dimension is cut into pool_size equal strata and every
        stratum is used once, so every seed's pool spans the ranges evenly
        and its median cost moves less from seed to seed than with
        independent draws.
        """
        rng = random.Random(f"{self.name}:{seed}")
        n = self.pool_size
        cols = [[(k + rng.random()) / n for k in rng.sample(range(n), n)] for _ in range(self.dims)]
        return [self.make([c[i] for c in cols]) for i in range(n)]

    def make(self, u: list[float]) -> Invocation:
        raise NotImplementedError

    def check(self, inv: Invocation, rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return self.check_output(inv, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]

    def check_output(self, inv: Invocation, out: str) -> list[str]:
        raise NotImplementedError


class Trajectory(Workload):
    name = "trajectory"
    pool_size = 48
    ranges = {"a,b,c": (-1.0, -0.1), "f": (0.1, 0.5), "x0_min": 0.05, "steps": 5000}

    def make(self, u):
        r = self.ranges
        steps = 200 if self.quick else r["steps"]
        a, b, c = (_scale(t, *r["a,b,c"]) for t in u[:3])
        argv = ("simulate", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}",
                f"--f-const={_scale(u[3], *r['f'])!r}", f"--x0={_interior(u[4], u[5], r['x0_min'])}",
                f"--steps={steps}", "--stride=1", "--format=json")
        return Invocation(argv, steps)

    def check_output(self, inv, out):
        doc = json.loads(out)
        problems = []
        if doc["header"]["log_domain_engaged_at"] is not None:
            problems.append("log domain engaged in the all-negative regime")
        samples = doc["samples"]
        if [s["step"] for s in samples] != list(range(inv.steps + 1)):
            problems.append("sample steps are not 0..steps")
        problems += _problems_in_rows([(s["x1"], s["x2"], s["x3"]) for s in samples], "sample")
        bad = [s for s in samples if not (math.isfinite(s["phi"]) and s["phi"] >= 0.0
                                          and 1 <= s["sector"] <= 6)]
        if bad:
            problems.append(f"{len(bad)} samples with a bad phi or sector")
        return problems


class Report(Workload):
    name = "report"
    pool_size = 48
    ranges = {"a,b,c": (0.1, 1.0), "f": (0.5, 1.0), "x0_min": 0.05, "steps": 10000}

    def make(self, u):
        r = self.ranges
        steps = r["steps"]  # shorter runs may not reach the log domain
        a, b, c = (_scale(t, *r["a,b,c"]) for t in u[:3])
        argv = ("analyze", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}",
                f"--f-const={_scale(u[3], *r['f'])!r}", f"--x0={_interior(u[4], u[5], r['x0_min'])}",
                f"--steps={steps}")
        return Invocation(argv, steps)

    def check_output(self, inv, out):
        report = json.loads(out)["report"]
        problems = []
        if report["regime"] != "non_ergodic_cycling":
            problems.append(f"regime {report['regime']!r}, expected non_ergodic_cycling")
        if not isinstance(report["log_domain_engaged_at"], int):
            problems.append("auto mode never switched to the log domain")
        snaps = report["cesaro"]["snapshots"]
        if not snaps or snaps[-1]["n"] != inv.steps:
            problems.append("Cesaro snapshots do not end at the last step")
        rows = [v for s in snaps for v in s["values"].values()]
        problems += _problems_in_rows(rows, "Cesaro")
        proxies = report["persistence_proxies"]
        for key in ("global_min", "tail_min", "tail_max"):
            if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in proxies[key]):
                problems.append(f"persistence {key} outside [0, 1]")
        return problems


class Sweep(Workload):
    name = "sweep"
    pool_size = 48
    dims = 1
    ranges = {"a,b,c": SWEEP_SIGNS, "f": SWEEP_F, "starts": SWEEP_STARTS,
              "sweep_seed": (0, 2**31 - 1), "steps": 2000, "threads": SWEEP_THREADS}

    def make(self, u):
        r = self.ranges
        steps = 200 if self.quick else r["steps"]
        grid = ",".join(repr(v) for v in SWEEP_SIGNS)
        argv = ("sweep", f"--grid-a={grid}", f"--grid-b={grid}", f"--grid-c={grid}",
                f"--grid-f={SWEEP_F!r}", f"--starts={SWEEP_STARTS}", f"--steps={steps}",
                f"--seed={int(_scale(u[0], *r['sweep_seed']))}", f"--threads={SWEEP_THREADS}")
        runs = len(SWEEP_SIGNS) ** 3 * SWEEP_STARTS
        return Invocation(argv, steps * runs)

    def check_output(self, inv, out):
        rows = list(csv.DictReader(io.StringIO(out)))
        cells = list(itertools.product(SWEEP_SIGNS, SWEEP_SIGNS, SWEEP_SIGNS, range(SWEEP_STARTS)))
        problems = []
        if len(rows) != len(cells):
            return [f"{len(rows)} rows for {len(cells)} grid cells"]
        for k, (row, (a, b, c, _)) in enumerate(zip(rows, cells)):
            if int(row["index"]) != k or (float(row["a"]), float(row["b"]), float(row["c"])) != (a, b, c):
                problems.append(f"row {k} is out of grid order")
            if row["error"]:
                problems.append(f"row {k} has error token {row['error']!r}")
            expected = REGIME_BY_SIGNS[_sign_pattern(a, b, c)]
            if row["regime"] != expected:
                problems.append(f"row {k} regime {row['regime']!r}, expected {expected!r}")
            if not (math.isfinite(float(row["phi_final"])) and float(row["phi_final"]) >= 0.0):
                problems.append(f"row {k} phi_final {row['phi_final']!r}")
            starts = [(float(row["x0_1"]), float(row["x0_2"]), float(row["x0_3"]))]
            limits = [] if row["limit_x1"] == "" else [
                (float(row["limit_x1"]), float(row["limit_x2"]), float(row["limit_x3"]))]
            problems += _problems_in_rows(starts + limits, f"sweep row {k}")
        return problems


class OdeOrder(Workload):
    name = "ode-order"
    ranges = {"a,b,c": (0.25, 1.0), "f": (0.5, 1.0), "x0_min": 0.1, "T": ODE_HORIZON,
              "n_list": (100, 1000, 10000, 100000), "ref_h": ODE_REF_H}

    def make(self, u):
        r = self.ranges
        horizon, n_list = (1.0, (10, 100, 1000, 2000)) if self.quick else (r["T"], r["n_list"])
        a, b, c = (_scale(t, *r["a,b,c"]) for t in u[:3])
        argv = ("ode-compare", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}",
                f"--f-const={_scale(u[3], *r['f'])!r}", f"--x0={_interior(u[4], u[5], r['x0_min'])}",
                f"--T={horizon!r}", "--n-list=" + ",".join(str(n) for n in n_list),
                f"--ref-h={ODE_REF_H!r}")
        # Euler substeps plus the RK4 steps at h and at h/2
        steps = sum(round(horizon * n) for n in n_list) + 3 * round(horizon / ODE_REF_H)
        return Invocation(argv, steps)

    def check_output(self, inv, out):
        result = json.loads(out)["result"]
        problems = []
        errors = result["errors"]
        if len(errors) != len(result["n_list"]) or not all(
                isinstance(e, float) and math.isfinite(e) and e >= 0.0 for e in errors):
            problems.append(f"bad endpoint errors {errors!r}")
        if not result["degenerate"]:
            slope = result["slope"]
            if not (isinstance(slope, float) and SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]):
                problems.append(f"Euler order {slope!r} outside {SLOPE_RANGE}")
        if not 0.0 <= result["reference_self_error"] <= 1e-8:
            problems.append(f"reference self-error {result['reference_self_error']!r}")
        return problems


WORKLOADS = {w.name: w for w in (Trajectory, Report, Sweep, OdeOrder)}
