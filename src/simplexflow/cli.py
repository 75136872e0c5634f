"""Command-line front end: single runs, reports, parameter sweeps, Euler checks.

Emits UTF-8 CSV (header row, comma separated, LF endings) or single-document
JSON for external plotting. All floats are serialized with shortest
round-trip precision so downstream tools can reproduce bit-level
comparisons.

Every option is one row of ``OPTIONS``: its config key, flag, coercer,
default, check and the commands that take it. The parser, ``--config``
files, default filling and the JSON header echo all read that table, so a
flag and a config-file value go through the same coercer and check, and
the header echoes the coerced values. Config keys a command does not take
are ignored. A sweep steps its rows (a failed cell has none) on the calling
thread and up to ``--threads`` - 1 threads of the compiled kernel, capped by
the usable CPUs and those rows; each row is stored at its grid index, so the
output is byte-identical at any ``--threads``.

Exit codes: 0 success; 2 bad input (one ``config error:`` line on stderr,
or argparse's usage message); 3 numeric failure, any package error that a
command raises (one ``numeric failure:`` line); 4 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, dynamics, kernel, ode
from .errors import SimplexflowError, ZeroParameter
from .simplex import SimplexPoint, make_point

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

SWEEP_COLUMNS = (
    "index,a,b,c,f,x0_1,x0_2,x0_3,regime,limit_x1,limit_x2,limit_x3,"
    "phi_final,visits_g1,visits_g2,visits_g3,visits_g4,visits_g5,visits_g6,error"
)
# A sweep row of a run and of a failed cell. ``%r`` gives ``float.__repr__``:
# ``_real`` coerces the grids and ``_sample_interior`` draws Python floats.
_SWEEP_START = "%d,%r,%r,%r,%r,%r,%r,%r,"
_SWEEP_RAN = _SWEEP_START + "%s,%s,%r,%d,%d,%d,%d,%d,%d,"
_SWEEP_FAILED = _SWEEP_START + "," * (SWEEP_COLUMNS.count(",") - _SWEEP_START.count(",")) + "%s"

DEFAULT_MAX_RUNS = 4096
# The most steps a sweep row may take. A row keeps a fixed summary of its run,
# not its samples, so memory no longer bounds --steps; at about 100 ns a
# step, 1e9 steps take minutes per row.
MAX_SWEEP_STEPS = 10**9


class ConfigError(Exception):
    pass


class NumericFailure(SimplexflowError):
    pass


# ---------------------------------------------------------------------------
# option table
# ---------------------------------------------------------------------------

def _real(value) -> float:
    """A finite number, or a string holding one (booleans are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{value!r} is not a number")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _integer(value) -> int:
    """An int, or a number or string with an integral value."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    x = _real(value)
    if not x.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(x)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _choice(*names: str) -> Callable:
    def coerce(value) -> str:
        if not (isinstance(value, str) and value in names):
            raise ValueError(f"{value!r} is not one of {'|'.join(names)}")
        return value

    return coerce


def _list_of(element: Callable, size: int | None = None) -> Callable:
    """Coercer of a comma list (a flag) or a JSON array (a config file)."""

    def coerce(value) -> list:
        if isinstance(value, str):
            value = [p for p in value.split(",") if p.strip() != ""]
        if not isinstance(value, list) or not value:
            raise ValueError(f"{value!r} is not a non-empty list")
        if size is not None and len(value) != size:
            raise ValueError(f"needs exactly {size} values, got {len(value)}")
        return [element(v) for v in value]

    return coerce


def _at_least(lo) -> Callable:
    return lambda v: None if v >= lo else f"must be >= {lo}"


def _within(lo, hi) -> Callable:
    return lambda v: None if lo <= v <= hi else f"must lie in [{lo}, {hi}]"


def _positive(v) -> str | None:
    return None if v > 0 else "must be > 0"


def _positive_at_most(hi) -> Callable:
    return lambda v: None if 0 < v <= hi else f"must lie in (0, {hi}]"


def _positive_below(hi) -> Callable:
    return lambda v: None if 0 < v < hi else f"must lie in (0, {hi})"


REQUIRED = object()  # default of an option that has to be given

SIM = "simulate"
ANALYZE = "analyze"
SWEEP = "sweep"
ODE = "ode-compare"
ALL = (SIM, ANALYZE, SWEEP, ODE)
SINGLE = (SIM, ANALYZE, ODE)  # commands that run one parameter set from one start


class Option(NamedTuple):
    """One option: config key, flag, coercer, default, check, commands."""

    key: str
    flag: str
    commands: tuple[str, ...]
    coerce: Callable
    default: object = None
    check: Callable | None = None  # value -> error text, or None when valid
    help: str | None = None
    echo: bool = True  # whether the JSON header echoes it


# Row order is the key order of the JSON header echo.
OPTIONS = (
    Option("config", "--config", ALL, _text, echo=False,
           help="JSON config file; explicit flags override it"),
    Option("a", "--a", SINGLE, _real, REQUIRED),
    Option("b", "--b", SINGLE, _real, REQUIRED),
    Option("c", "--c", SINGLE, _real, REQUIRED),
    Option("x0", "--x0", SINGLE, _list_of(_real, 3), REQUIRED, help="x1,x2,x3"),
    Option("steps", "--steps", (SIM, ANALYZE, SWEEP), _integer, 1000, _at_least(0)),
    Option("stride", "--stride", (SIM, ANALYZE), _integer, 1, _at_least(1)),
    Option("log_domain", "--log-domain", (SIM, ANALYZE), _choice("auto", "on", "off"), "auto"),
    Option("format", "--format", (SIM,), _choice("csv", "json"),
           help="csv|json (default: json for an --out ending in .json)"),
    Option("eps", "--eps", (ANALYZE,), _real, 0.05, _positive_below(1.0),
           help="vertex neighborhood size"),
    Option("grid", "--grid", (ANALYZE,), _real, 0.05, _at_least(analysis.MIN_GRID),
           help="limit-set grid cell size"),
    Option("burn_in", "--burn-in", (ANALYZE,), _integer, None, _at_least(0),
           help="default: steps // 2"),
    Option("cesaro_orders", "--cesaro-orders", (ANALYZE,), _integer, 2,
           _within(0, analysis.MAX_CESARO_ORDER)),
    Option("conv_tol", "--conv-tol", (ANALYZE, SWEEP), _real, 1e-9, _positive),
    Option("conv_window", "--conv-window", (ANALYZE, SWEEP), _integer, 100, _at_least(2)),
    Option("gamma", "--gamma", (ANALYZE,), _real, None, _positive,
           help="audit threshold (default: estimated)"),
    Option("horizon", "--T", (ODE,), _real, 5.0, _at_least(0.0)),
    Option("n_list", "--n-list", (ODE,), _list_of(_integer), (100, 1000, 10000, 100000),
           help="comma list of substeps per unit time"),
    Option("ref_h", "--ref-h", (ODE,), _real, 1e-3, _positive_at_most(ode.MAX_REFERENCE_STEP)),
    Option("f_const", "--f-const", SINGLE, _real),
    Option("f_affine", "--f-affine", SINGLE, _list_of(_real, 4), help="a0,a1,a2,a3"),
    Option("out", "--out", ALL, _text, echo=False, help="output path (default stdout)"),
    Option("grid_a", "--grid-a", (SWEEP,), _list_of(_real), REQUIRED, help="comma list of a values"),
    Option("grid_b", "--grid-b", (SWEEP,), _list_of(_real), REQUIRED, help="comma list of b values"),
    Option("grid_c", "--grid-c", (SWEEP,), _list_of(_real), REQUIRED, help="comma list of c values"),
    Option("grid_f", "--grid-f", (SWEEP,), _list_of(_real), (1.0,),
           help="comma list of constant speeds"),
    Option("starts", "--starts", (SWEEP,), _integer, 1, _at_least(1),
           help="random interior starts per cell"),
    Option("seed", "--seed", (SWEEP,), _integer, 0),
    Option("threads", "--threads", (SWEEP,), _integer, 1, _at_least(1),
           help="most threads for a sweep (capped by the usable CPUs and the rows)"),
    Option("max_runs", "--max-runs", (SWEEP,), _integer, DEFAULT_MAX_RUNS),
)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _load(ns: argparse.Namespace) -> dict:
    """The command's options: file values, overridden by given flags, coerced and checked."""
    rows = [row for row in OPTIONS if ns.command in row.commands]
    given = {}
    if ns.config:
        given = {k.replace("-", "_"): v for k, v in _load_config_file(ns.config).items()}
    for row in rows:
        if getattr(ns, row.key) is not None:
            given[row.key] = getattr(ns, row.key)
    cfg = {}
    for row in rows:
        value = given.get(row.key)
        if value is None:
            if row.default is REQUIRED:
                raise ConfigError(f"{row.flag} is required")
            cfg[row.key] = row.default
            continue
        try:
            value = row.coerce(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {row.flag}: {exc}") from exc
        problem = row.check(value) if row.check is not None else None
        if problem is not None:
            raise ConfigError(f"{row.flag} {problem}, got {value!r}")
        cfg[row.key] = value

    # Rules that span several options.
    if "f_const" in cfg and (cfg["f_const"] is None) == (cfg["f_affine"] is None):
        raise ConfigError("give exactly one speed function: --f-const or --f-affine")
    if ns.command == SIM and cfg["format"] is None:
        cfg["format"] = "json" if (cfg["out"] or "").endswith(".json") else "csv"
    if ns.command in (ANALYZE, SWEEP) and cfg["steps"] < 1:
        raise ConfigError(f"{ns.command} requires steps >= 1")
    if ns.command == ANALYZE:
        if cfg["stride"] != 1:
            raise ConfigError("analyze requires stride 1")
        cfg["format"] = "json"
        if cfg["burn_in"] is None:
            cfg["burn_in"] = cfg["steps"] // 2
    if ns.command == SWEEP:
        if cfg["steps"] > MAX_SWEEP_STEPS:
            raise ConfigError(f"sweep --steps {cfg['steps']} exceeds the cap {MAX_SWEEP_STEPS}")
        grids = (cfg["grid_a"], cfg["grid_b"], cfg["grid_c"], cfg["grid_f"])
        total = math.prod(len(g) for g in grids) * cfg["starts"]
        if total > cfg["max_runs"]:
            raise ConfigError(f"sweep of {total} runs exceeds the cap {cfg['max_runs']}")
    return cfg


def _header(cfg) -> dict:
    """The JSON header echo: every echoed option that has a value, in table order."""
    return {row.key: cfg[row.key] for row in OPTIONS if row.echo and cfg.get(row.key) is not None}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii  # json's own string escaper


def _json_text(value, nl: str = "\n") -> str:
    """``value`` as a JSON document indented by two spaces, ``nl`` being the
    line break and indentation that precede the value's closing bracket.

    The text is ``json.dumps``'s at ``indent=2`` for dicts, lists, tuples,
    strings, ints, floats (``np.float64`` too), booleans and None, with a
    report's conventions: a dict key is written as ``str(key)``, a
    ``SimplexPoint`` as the array of its coordinates, and a float that is not
    finite as the string ``"inf"``, ``"-inf"`` or ``"nan"``. Any other type
    raises ``TypeError``. Each node's type is matched by ``type(v) is``:
    ``json.dumps`` with an indent runs its pure-Python encoder, which tests
    each node with ``isinstance`` and takes about twice as long.
    """
    t = type(value)
    if t is float:
        return repr(value) if value - value == 0.0 else f'"{value!r}"'  # inf - inf is nan
    if t is int:
        return repr(value)
    if t is str:
        return _quote(value)
    if t is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        items = [f"{_quote(str(k))}: {_json_text(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        items = [_json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, SimplexPoint):
        return _json_text(value.coords, nl)
    if isinstance(value, float):  # np.float64
        return _json_text(float(value), nl)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _build_run(cfg):
    """Parameters, speed function and start point of a single-run command."""
    try:
        params = dynamics.Parameters(cfg["a"], cfg["b"], cfg["c"])
        if cfg["f_affine"] is not None:
            speed = dynamics.AffineSpeed(*cfg["f_affine"])
        else:
            speed = dynamics.ConstantSpeed(cfg["f_const"])
        start = make_point(*cfg["x0"])
    except (SimplexflowError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return params, speed, start


def _iterate(start, params, speed, cfg, **kwargs) -> dynamics.Trajectory:
    """``dynamics.iterate`` for ``cfg["steps"]`` steps. Past the table's checks,
    its ValueError or MemoryError means the sample arrays cannot be allocated."""
    try:
        return dynamics.iterate(start, params, speed, cfg["steps"], **kwargs)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"--steps {cfg['steps']} is too large: {exc}") from exc


def _validate_samples(traj: dynamics.Trajectory) -> None:
    """Refuse samples that are not finite points of the simplex, or whose
    logs hold a NaN or +inf, with ``NumericFailure``.

    Passes: one range check over the flat coordinate array, which a NaN
    fails too (only where it fails, the finite and range checks name the
    fault), and each row's sum takes two column adds, left to right as
    numpy sums a row of three.
    """
    coords = traj.coords
    if not np.all((coords >= 0.0) & (coords <= 1.0)):
        if not np.all(np.isfinite(coords)):
            raise NumericFailure("non-finite coordinate in trajectory output")
        if np.any(coords < 0.0) or np.any(coords > 1.0):
            raise NumericFailure("coordinate outside [0, 1] in trajectory output")
    sums = coords[:, 0] + coords[:, 1] + coords[:, 2]
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise NumericFailure("coordinate sums drifted beyond 1e-9")
    # -inf is the log of an extinct species; nan and +inf fail the comparison
    if traj.logs is not None and not np.all(traj.logs < math.inf):
        raise NumericFailure("nan or +inf log coordinate in trajectory output")


def _sample_text(traj: dynamics.Trajectory, template: str, sep: str) -> str:
    """Every sample's ``template % (step, x1, x2, x3, phi, sector)``, joined by
    ``sep``, phi being the exp of the attached ``log_phi``.

    ``kernel.rows_run`` writes the rows in one compiled call, splitting the
    template at its conversions, so the template stays the only source of
    the layout. Without the kernel, memoryviews hand the numbers out one
    sample at a time, so no list of every sample is built, and ``%`` runs
    on Python ints and floats, not numpy scalars.
    """
    with np.errstate(over="ignore"):
        phi = np.exp(traj.observables["log_phi"])
    sector = traj.observables["sector"]
    text = kernel.rows_run(template, sep, traj.steps, traj.coords, phi, sector)
    if text is None:
        xs = iter(memoryview(traj.coords.reshape(-1)))
        rows = zip(memoryview(traj.steps), xs, xs, xs, memoryview(phi), memoryview(sector))
        text = sep.join([template % row for row in rows])
    return text


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_RUN_MODES = {"auto": "auto", "on": "log", "off": "linear"}


def _simulate_traj(cfg):
    params, speed, start = _build_run(cfg)
    traj = _iterate(start, params, speed, cfg, stride=cfg["stride"],
                    mode=_RUN_MODES[cfg["log_domain"]])
    _validate_samples(traj)
    analysis.attach_observables(traj)
    return traj


# One sample of simulate's output per format. ``%r`` of a float and ``%d`` of
# an int give the texts ``_json_text`` writes for them (``float.__repr__`` and
# ``int.__repr__``), and the JSON block has a sample's indentation inside the
# document, so the output is what ``_json_text`` gives for the document with
# per-sample dicts. The compiled writer copies the text around the
# conversions and writes each ``%r`` with a shortest round-trip formatter
# that gives ``repr``'s bytes. Every value is finite, as JSON needs:
# ``_validate_samples`` rejects non-finite coordinates, and phi lies in [0, 1].
_JSON_SAMPLE = """    {
      "step": %d,
      "x1": %r,
      "x2": %r,
      "x3": %r,
      "phi": %r,
      "sector": %d
    }"""
_CSV_SAMPLE = "%d,%r,%r,%r,%r,%d\n"


def cmd_simulate(cfg) -> int:
    traj = _simulate_traj(cfg)
    if cfg["format"] == "csv":
        text = "step,x1,x2,x3,phi,sector\n" + _sample_text(traj, _CSV_SAMPLE, "")
    else:
        header = _header(cfg)
        header["log_domain_engaged_at"] = traj.log_domain_from
        # the document up to the end of the header, without the closing "\n}"
        head = _json_text({"header": header})[:-2]
        samples = _sample_text(traj, _JSON_SAMPLE, ",\n")
        text = f'{head},\n  "samples": [\n{samples}\n  ]\n}}\n'
    _write_text(cfg["out"], text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _log_spaced(n: int):
    marks = {0, n}
    m = 1.0
    while m < n:
        marks.add(int(round(m)))
        m *= math.sqrt(10.0)
    return sorted(marks)


def cmd_analyze(cfg) -> int:
    traj = _simulate_traj(cfg)
    params = traj.params
    regime = analysis.classify_regime(params)

    marks = _log_spaced(traj.n_steps)  # stride 1: sample k is step k
    values = analysis.CesaroState(cfg["cesaro_orders"]).scan(traj.coords, marks).tolist()
    snapshots = [{"n": n, "values": {f"c{j}": v for j, v in enumerate(orders)}}
                 for n, orders in zip(marks, values)]

    gamma = cfg["gamma"]
    gamma0 = analysis.estimate_gamma0(traj)
    audit_gamma = gamma if gamma is not None else gamma0
    audit = None
    if audit_gamma is not None:
        a = analysis.sector_cycle_audit(traj, audit_gamma)
        audit = a._asdict() | {
            "transitions": [[i, j, count] for (i, j), count in sorted(a.transitions.items())],
            "violations": a.violation_count,
        }

    sojourns = {str(v): [{"start": s.start_step, "end": s.end_step, "length": s.length,
                          "log_phi_at_start": s.log_phi_at_start} for s in lst]
                for v, lst in analysis.sojourn_stats(traj, cfg["eps"]).items()}
    persist = analysis.persistence_report(traj)
    omega = analysis.omega_limit_estimate(traj, cfg["burn_in"], cfg["grid"])
    limit = analysis.detect_convergence(traj, cfg["conv_tol"], cfg["conv_window"])

    report = {
        "regime": regime.regime,
        "persistence": regime.persistence,
        "predicted_limit": regime.predicted_limit,
        "description": regime.description,
        "phi": analysis.phi_decay_stats(traj),
        "sectors": {"gamma0_estimate": gamma0, "audit": audit},
        "sojourns": {"eps": cfg["eps"], "per_vertex": sojourns},
        "cesaro": {"max_order": cfg["cesaro_orders"], "snapshots": snapshots},
        "persistence_proxies": persist._asdict(),
        "omega": {"grid": cfg["grid"], "burn_in": cfg["burn_in"], "cells": sorted(omega)},
        "convergence": {"limit": limit, "tol": cfg["conv_tol"], "window": cfg["conv_window"]},
        "log_domain_engaged_at": traj.log_domain_from,
    }
    _write_text(cfg["out"], _json_text({"header": _header(cfg), "report": report}) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sample_interior(rng: random.Random):
    while True:
        u, v = sorted((rng.random(), rng.random()))
        x = (u, v - u, 1.0 - v)
        if min(x) > 0.0:
            return x


def _row_run(start, params, speed, cfg) -> dynamics.RunSummary:
    """The summary of a sweep row's auto run on the array path, from step 0,
    so an error keeps its type: the path of a row that the kernel does not
    run or hands back (``dynamics.summarize_rows``)."""
    traj = _iterate(start, params, speed, cfg, mode="auto")
    _validate_samples(traj)
    entries = tuple(analysis.sector_entries(analysis.sector_array(traj)))
    return dynamics.RunSummary(traj.final, entries,
                               analysis.window_spread(traj.coords, cfg["conv_window"]))


def _row_inputs(a: float, b: float, c: float, fv: float, x0):
    """A sweep row's ``(start, params, speed)``, or its error token."""
    try:
        return make_point(*x0), dynamics.Parameters(a, b, c), dynamics.ConstantSpeed(fv)
    except ZeroParameter:
        return "zero_parameter"
    except (SimplexflowError, ValueError):
        return "invalid_parameter"


def _sweep_row(base: tuple, inputs, run, cfg) -> str:
    """A sweep row's text from its first fields ``base`` (index, a, b, c, f
    and the start), its ``_row_inputs`` and its summary ``run``, which is
    found here on the array path where it is None."""
    if isinstance(inputs, str):
        return _SWEEP_FAILED % (*base, inputs)
    start, params, speed = inputs
    try:
        run = _row_run(start, params, speed, cfg) if run is None else run
    except SimplexflowError:
        return _SWEEP_FAILED % (*base, "numeric_failure")
    regime = analysis.classify_regime(params).regime
    converged = run.spread is not None and run.spread < cfg["conv_tol"]
    cells = "%r,%r,%r" % run.final.coords if converged else ",,"
    phi_final = analysis.lyapunov_phi(run.final, params)
    return _SWEEP_RAN % (*base, regime, cells, phi_final, *run.entries[1:])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_rows(cells, cfg) -> list:
    """The ``_sweep_row`` of each grid cell ``(a, b, c, f, start)``, at its
    index. The valid rows' runs go to ``dynamics.summarize_rows`` in one
    call, on this thread and up to ``--threads`` - 1 kernel threads, capped
    by the usable CPUs and those rows; a run it hands back, or every run
    where the kernel does not run, goes to the array path, on this thread."""
    inputs = [_row_inputs(*cell) for cell in cells]
    valid = [k for k, got in enumerate(inputs) if not isinstance(got, str)]
    runs = dict.fromkeys(range(len(cells)))
    if valid:
        workers = min(cfg["threads"], _usable_cpus(), len(valid))
        runs.update(zip(valid, dynamics.summarize_rows(
            [inputs[k] for k in valid], cfg["steps"], cfg["conv_window"], workers)))
    return [_sweep_row((k, a, b, c, fv, *x0), inputs[k], runs[k], cfg)
            for k, (a, b, c, fv, x0) in enumerate(cells)]


def cmd_sweep(cfg) -> int:
    rng = random.Random(cfg["seed"])
    starts = [_sample_interior(rng) for _ in range(cfg["starts"])]
    cells = itertools.product(cfg["grid_a"], cfg["grid_b"], cfg["grid_c"], cfg["grid_f"], starts)
    text = "\n".join([SWEEP_COLUMNS] + _sweep_rows(list(cells), cfg)) + "\n"
    _write_text(cfg["out"], text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ode-compare
# ---------------------------------------------------------------------------

def cmd_ode_compare(cfg) -> int:
    params, speed, start = _build_run(cfg)
    try:
        fit = ode.convergence_order(
            start, params, speed, cfg["horizon"], cfg["n_list"], ref_h=cfg["ref_h"]
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    _write_text(cfg["out"], _json_text({"header": _header(cfg), "result": fit._asdict()}) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

COMMANDS = {
    SIM: (cmd_simulate, "iterate the map and write the trajectory"),
    ANALYZE: (cmd_analyze, "run and emit a JSON diagnostics report"),
    SWEEP: (cmd_sweep, "parameter sweep, one CSV row per run"),
    ODE: (cmd_ode_compare, "Euler endpoint errors against the reference integrator"),
}


@functools.cache  # one per process: parse_args keeps no state, and no caller edits it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexflow",
        description="Simulate and analyze the three-species prey-predator map on the simplex",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for row in OPTIONS:
            if command in row.commands:
                p.add_argument(row.flag, dest=row.key, help=row.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[ns.command][0](_load(ns))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimplexflowError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
