"""End-to-end CLI tests: formats, exit codes, determinism, round-trips."""
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from simplexflow import analysis, cli, ode
from simplexflow.dynamics import ConstantSpeed, Parameters, iterate
from simplexflow.errors import StrideTooCoarse
from simplexflow.simplex import SimplexPoint, make_point

from oracles import json_text, python_loops, simulate_csv_text, simulate_json_text


def run(args):
    return cli.main(args)


def test_simulate_row_count(tmp_path):
    out = tmp_path / "run.csv"
    code = run(["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--steps", "100", "--stride", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,x1,x2,x3,phi,sector"
    assert len(lines) == 102  # header + 101 samples
    assert lines[1].startswith("0,0.5,0.3,0.2,")


def test_simulate_fixed_point_rows_identical(tmp_path):
    params = Parameters(1, 1, 1)
    x = ",".join(repr(v) for v in params.fixed_point.coords)
    out = tmp_path / "fp.csv"
    assert run(["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "0.5",
                "--x0", x, "--steps", "50", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    first = [float(v) for v in rows[0][1:4]]
    for row in rows:
        for got, want in zip((float(v) for v in row[1:4]), first):
            assert abs(got - want) <= 1e-14


def test_simulate_json_mirrors_csv(tmp_path):
    args = ["--a", "1", "--b", "-1", "--c", "1", "--f-const", "0.5",
            "--x0", "0.4,0.35,0.25", "--steps", "20"]
    csv_out = tmp_path / "run.csv"
    json_out = tmp_path / "run.json"
    assert run(["simulate", *args, "--out", str(csv_out), "--format", "csv"]) == 0
    assert run(["simulate", *args, "--out", str(json_out), "--format", "json"]) == 0
    doc = json.loads(json_out.read_text())
    lines = csv_out.read_text().splitlines()[1:]
    assert len(doc["samples"]) == len(lines)
    for sample, line in zip(doc["samples"], lines):
        parts = line.split(",")
        assert sample["step"] == int(parts[0])
        assert repr(sample["x1"]) == parts[1]
        assert repr(sample["phi"]) == parts[4]
        assert sample["sector"] == int(parts[5])
    assert doc["header"]["a"] == 1.0
    assert doc["header"]["x0"] == [0.4, 0.35, 0.25]


def test_simulate_json_header_round_trip(tmp_path):
    out1 = tmp_path / "a.json"
    assert run(["simulate", "--a", "0.5", "--b", "0.75", "--c", "1", "--f-const", "0.8",
                "--x0", "0.3,0.4,0.3", "--steps", "40", "--format", "json",
                "--out", str(out1)]) == 0
    header = json.loads(out1.read_text())["header"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(header))
    out2 = tmp_path / "b.json"
    assert run(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 1, "b": 1, "c": 1, "f_const": 1,
                               "x0": [0.5, 0.3, 0.2], "steps": 10, "format": "csv"}))
    out = tmp_path / "o.csv"
    assert run(["simulate", "--config", str(cfg), "--steps", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5  # header + 4 samples


def test_simulate_long_run_reaches_interior_limit(tmp_path):
    out = tmp_path / "long.csv"
    assert run(["simulate", "--a=-1", "--b=-1", "--c=-1", "--f-const", "0.5",
                "--x0", "0.5,0.3,0.2", "--steps", "1000000", "--stride", "10000",
                "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert int(last[0]) == 1_000_000
    for v in last[1:4]:
        assert abs(float(v) - 1 / 3) <= 1e-8


def test_simulate_log_domain_auto_recorded(tmp_path):
    out = tmp_path / "deep.json"
    assert run(["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--steps", "400", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["header"]["log_domain_engaged_at"] is not None
    for sample in doc["samples"]:
        for key in ("x1", "x2", "x3"):
            assert math.isfinite(sample[key])


# Draws for the writer check: starts in the interior, on a face and at a
# vertex; all three sign patterns; every log-domain mode.
_weight = st.floats(0.05, 1.0)


@st.composite
def _starts(draw):
    kind = draw(st.sampled_from(("interior", "face", "vertex")))
    if kind == "vertex":
        x = [0.0, 0.0, 0.0]
        x[draw(st.integers(0, 2))] = 1.0
        return x
    w = [draw(_weight) for _ in range(3)]
    if kind == "face":
        w[draw(st.integers(0, 2))] = 0.0
    s = math.fsum(w)
    return [v / s for v in w]


@st.composite
def _signed_params(draw):
    signs = draw(st.sampled_from(((1, 1, 1), (-1, -1, -1), (1, -1, 1), (-1, 1, 1), (1, 1, -1))))
    return [sign * draw(st.floats(0.1, 1.0)) for sign in signs]


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(x0=_starts(), abc=_signed_params(), f=st.floats(0.1, 1.0),
       log_domain=st.sampled_from(("auto", "on", "off")),
       stride=st.integers(1, 7), steps=st.integers(0, 300))
def test_simulate_writes_the_oracle_bytes(tmp_path_factory, x0, abc, f, log_domain, stride, steps):
    out_dir = tmp_path_factory.mktemp("writer")
    a, b, c = abc
    args = ["simulate", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}", "--f-const", repr(f),
            "--x0", ",".join(repr(v) for v in x0), "--steps", str(steps),
            "--stride", str(stride), "--log-domain", log_domain]
    for fmt in ("json", "csv"):
        argv = [*args, "--format", fmt]
        cfg = cli._load(cli.build_parser().parse_args(argv))
        traj = cli._simulate_traj(cfg)
        if fmt == "json":
            header = dict(cli._header(cfg), log_domain_engaged_at=traj.log_domain_from)
            want = simulate_json_text(header, traj)
        else:
            want = simulate_csv_text(traj)
        out = out_dir / f"run.{fmt}"
        assert run([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("x0,steps", [
    ("0.6,0.4,0", "50"),
    ("0.0911782746269173,0.03361335130842136,0.8752083740646613", "3000"),
])
def test_unit_parameter_at_full_speed_runs(tmp_path, x0, steps):
    # f = 1 with a unit parameter rounds the direct factor of the species at
    # its vertex to exactly 0.0; the run must go on, on the simplex
    out = tmp_path / "run.csv"
    assert run(["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", x0, "--steps", steps, "--out", str(out)]) == 0
    rows = np.array([[float(v) for v in line.split(",")[1:4]]
                     for line in out.read_text().splitlines()[1:]])
    assert len(rows) == int(steps) + 1
    assert np.all(rows >= 0.0) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)


def test_a_stride_that_int64_cannot_hold_records_the_start_and_the_last_step(tmp_path):
    # the stride reaches neither loop as a count, only as the schedule it gives
    argv = ["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "0.5",
            "--x0", "0.5,0.3,0.2", "--steps", "200000", "--stride", str(2**64 + 1)]
    out, ref = tmp_path / "run.csv", tmp_path / "ref.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "200000"]
    assert python_loops(run, [*argv, "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_invalid_config_exit_codes(tmp_path):
    # bad simplex point
    assert run(["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.3"]) == 2
    # zero parameter
    assert run(["simulate", "--a", "0", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2"]) == 2
    # speed out of range
    assert run(["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "2",
                "--x0", "0.5,0.3,0.2"]) == 2
    # missing speed
    assert run(["simulate", "--a", "1", "--b", "1", "--c", "1", "--x0", "0.5,0.3,0.2"]) == 2
    # unknown flag
    assert run(["simulate", "--bogus", "1"]) == 2


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    real = cli.dynamics.iterate

    def broken_iterate(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.coords[-1, 0] = float("nan")
        return traj

    def raise_after_the_run(*args):
        raise StrideTooCoarse("raised after the run")

    run_args = ["--a", "1", "--b", "1", "--c", "1", "--f-const", "1", "--x0", "0.5,0.3,0.2",
                "--steps", "5", "--out", str(tmp_path / "x.out")]
    # a bad sample, and a package error that a command raises after its run
    for command, module, name, fault in (("simulate", cli.dynamics, "iterate", broken_iterate),
                                         ("simulate", cli.analysis, "attach_observables",
                                          raise_after_the_run),
                                         ("analyze", cli.analysis, "sojourn_stats",
                                          raise_after_the_run)):
        with monkeypatch.context() as patched:
            patched.setattr(module, name, fault)
            capsys.readouterr()
            assert run([command, *run_args]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:"), err


def test_nan_log_coordinate_is_a_numeric_failure(tmp_path, monkeypatch, capsys, sweep_threads):
    real = cli.dynamics.iterate

    def broken_iterate(*args, **kwargs):
        traj = real(*args, **dict(kwargs, mode="log"))
        traj.logs[-1, 0] = float("nan")
        return traj

    monkeypatch.setattr(cli.dynamics, "iterate", broken_iterate)
    run_args = ["--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--steps", "5", "--log-domain", "on"]
    for command in ("simulate", "analyze"):
        out = tmp_path / f"{command}.out"
        capsys.readouterr()
        assert run([command, *run_args, "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:"), err
        assert not out.exists()
    # the sweep rows take the array path, as where the kernel hands a step back;
    # sweep_threads' spy still sees the workers
    spy = cli.dynamics.summarize_rows
    monkeypatch.setattr(cli.dynamics, "summarize_rows", lambda *args: [None] * len(spy(*args)))
    args = ["sweep", "--grid-a=-1,1", "--grid-b", "1", "--grid-c", "1",
            "--grid-f", "0.5", "--steps", "5", "--seed", "3"]
    serial, threaded = _sweep_bytes_at_one_and_two_workers(tmp_path, sweep_threads, args)
    assert serial == threaded
    tokens = [line.rsplit(",", 1)[1] for line in serial.decode().splitlines()[1:]]
    assert tokens == ["numeric_failure", "numeric_failure"]


def test_io_failure_exit_code(tmp_path):
    code = run(["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--steps", "5",
                "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 4


def test_sweep_sign_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--grid-a=-1,1", "--grid-b=-1,1", "--grid-c=-1,1",
                "--grid-f", "0.5", "--starts", "1", "--steps", "300", "--seed", "9",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.SWEEP_COLUMNS
    assert len(lines) == 9
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        a, b, c = float(row[1]), float(row[2]), float(row[3])
        regime = row[8]
        if a > 0 and b > 0 and c > 0:
            assert regime == "non_ergodic_cycling"
        elif a < 0 and b < 0 and c < 0:
            assert regime == "interior_convergence"
        else:
            assert regime == "vertex_convergence"
        assert row[-1] == ""  # no error token


def test_sweep_deterministic_across_runs_and_threads(tmp_path, sweep_threads):
    args = ["sweep", "--grid-a=-1,1", "--grid-b", "1", "--grid-c=0.5,-0.5",
            "--grid-f", "0.3,0.9", "--starts", "2", "--steps", "150", "--seed", "21"]
    outs = []
    threads_before = threading.active_count()
    for name, threads in (("t1.csv", "1"), ("t8.csv", "8"), ("t1b.csv", "1")):
        out = tmp_path / name
        assert run([*args, "--threads", threads, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        assert threading.active_count() == threads_before
    assert outs[0] == outs[1] == outs[2]
    assert sweep_threads == [1, 2, 1]  # --threads 8, capped by the two CPUs


def test_sweep_worker_count_is_capped_before_any_thread_starts(tmp_path, monkeypatch,
                                                               sweep_workers):
    asked = sweep_workers
    three_rows = ["sweep", "--grid-a=-1,1,0.5", "--grid-b", "1", "--grid-c", "1",
                  "--grid-f", "0.5", "--steps", "50", "--seed", "4"]
    eight_rows = ["sweep", "--grid-a=-1,1", "--grid-b=-1,1", "--grid-c=-1,1",
                  "--grid-f", "0.5", "--steps", "50", "--seed", "4"]
    threads_before = threading.active_count()

    def sweep(args, threads):
        out = tmp_path / "out.csv"
        assert run([*args, "--threads", str(threads), "--out", str(out)]) == 0
        assert threading.active_count() == threads_before
        return out.read_bytes()

    serial = sweep(three_rows, 1)
    assert asked == [1]  # --threads 1 starts no helper thread
    assert sweep(three_rows, 1000000) == serial
    assert asked == [1, min(3, cli._usable_cpus())]
    asked.clear()
    assert sweep(["sweep", "--grid-a", "1", "--grid-b", "1", "--grid-c", "1",
                  "--steps", "50"], 8)
    assert asked == [1]  # a 1-row grid starts no helper thread

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    assert sweep(three_rows, 10**30) == serial
    assert asked == [1, 3]  # capped by the rows
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    serial = sweep(eight_rows, 1)
    assert sweep(eight_rows, 1000000) == serial
    assert asked == [1, 3, 1, 2]  # capped by the CPUs


def test_sweep_workers_are_threads_capped_by_cpus_and_rows_that_run(tmp_path, monkeypatch):
    asked = []

    def no_runs(runs, n_steps, window, workers):
        asked.append(workers)
        return [None] * len(runs)

    monkeypatch.setattr(cli.dynamics, "summarize_rows", no_runs)
    monkeypatch.setattr(cli, "_sweep_row", lambda base, *rest: str(base[0]))
    out = tmp_path / "o"

    def workers(n_steps, threads, cpus, grid_a="-1,1,0.5,0.25"):
        """The worker count that the runs of a sweep's valid rows are given."""
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert run(["sweep", f"--grid-a={grid_a}", "--grid-b", "1", "--grid-c", "1",
                    "--steps", str(n_steps), "--threads", str(threads), "--out", str(out)]) == 0
        cells = grid_a.count(",") + 1
        assert out.read_text().splitlines()[1:] == [str(k) for k in range(cells)]
        return asked.pop()

    for steps in (1, cli.MAX_SWEEP_STEPS):  # the same caps at any requested work
        assert workers(steps, 8, 64) == 4  # capped by the rows
        assert workers(steps, 8, 2) == 2  # by the CPUs
        assert workers(steps, 3, 64) == 3  # by --threads
        assert workers(steps, 1, 64) == 1  # a cap of 1 runs on this thread
        assert workers(steps, 8, 64, "1") == 1  # and so does a one-row grid
        # the cells with a = 0 fail (zero_parameter) and run no step: the cap
        # counts the rows that run, not the cells
        assert workers(steps, 8, 64, "0,0,0,1") == 1
        assert workers(steps, 8, 64, "0,0,0,1,1") == 2
    assert asked == []


def test_sweep_rows_are_stored_at_their_grid_index(tmp_path, monkeypatch):
    # Zero-parameter and invalid rows between rows that run on 8 threads,
    # which finish in no set order: each line is the text _sweep_row writes
    # for its task alone, from its own run.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    asked = []
    summarize_rows = cli.dynamics.summarize_rows
    monkeypatch.setattr(cli.dynamics, "summarize_rows", lambda *args: (
        asked.append(args[-1]), summarize_rows(*args))[1])
    out = tmp_path / "o"
    threads_before = threading.active_count()
    assert run(["sweep", "--grid-a=1,0,-1", "--grid-b=-1,1", "--grid-c=1,-1e-300,-0.5",
                "--grid-f", "0.5,2", "--starts", "2", "--steps", "300", "--seed", "9",
                "--threads", "8", "--out", str(out)]) == 0
    assert threading.active_count() == threads_before
    assert asked == [8]
    rng = random.Random(9)
    starts = [cli._sample_interior(rng) for _ in range(2)]
    cfg = {"steps": 300, "conv_window": 100, "conv_tol": 1e-9}
    cells = itertools.product([1.0, 0.0, -1.0], [-1.0, 1.0], [1.0, -1e-300, -0.5], [0.5, 2.0],
                              starts)
    lines = out.read_text().splitlines()[1:]
    assert lines == [cli._sweep_row((k, a, b, c, fv, *x0), cli._row_inputs(a, b, c, fv, x0), None,
                                    cfg) for k, (a, b, c, fv, x0) in enumerate(cells)]
    assert {line.rsplit(",", 1)[1] for line in lines} == {"", "zero_parameter",
                                                           "invalid_parameter"}


def _sweep_bytes_at_one_and_two_workers(tmp_path, sweep_threads, args):
    """The sweep's bytes at --threads 1 and on two threads at --threads 2
    (``sweep_threads``: two usable CPUs, so the threads run on any host)."""
    outs = []
    threads_before = threading.active_count()
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert run([*args, "--threads", threads, "--out", str(out)]) == 0
        assert threading.active_count() == threads_before
        outs.append(out.read_bytes())
    assert sweep_threads == [1, 2]
    return outs


def test_sweep_zero_parameter_row_tolerated(tmp_path, sweep_threads):
    # two starts, so that the two rows that run can take two threads
    args = ["sweep", "--grid-a", "0,1", "--grid-b", "1", "--grid-c", "1",
            "--grid-f", "0.5,2", "--starts", "2", "--steps", "50", "--seed", "1"]
    serial, threaded = _sweep_bytes_at_one_and_two_workers(tmp_path, sweep_threads, args)
    assert serial == threaded
    rows = [line.split(",") for line in serial.decode().splitlines()[1:]]
    assert all(len(row) == len(cli.SWEEP_COLUMNS.split(",")) == 20 for row in rows)
    assert [row[-1] for row in rows[:4]] == ["zero_parameter"] * 4
    assert rows[0][8] == ""  # no regime on the failed row
    assert [row[-1] for row in rows[4:6]] == ["", ""]
    for row in rows[6:]:
        assert row[4] == "2.0" and row[-1] == "invalid_parameter"  # speed above 1
        assert row[8] == ""


def test_sweep_with_an_underflowing_weight_writes_no_warning(tmp_path, capfd):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--grid-a", "0,1,-0.5", "--grid-b", "1,-2", "--grid-c", "1,-1e-300",
                "--grid-f", "0.5,2,1", "--steps", "200", "--out", str(out)]) == 0
    assert capfd.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 36 and all(len(row) == 20 for row in rows)
    # a = 1, b = 1, c = -1e-300: b c^2 underflows, so the row is a failed one
    assert [row[-1] for row in rows if row[1:4] == ["1.0", "1.0", "-1e-300"]] == \
        ["invalid_parameter"] * 3


def test_sweep_numeric_failure_rows_are_identical_on_worker_threads(tmp_path, monkeypatch,
                                                                     sweep_threads):
    # a NaN in the rows with a > 0, which take the array path
    real, real_summarize_rows = cli.dynamics.iterate, cli.dynamics.summarize_rows

    def broken_iterate(*args, **kwargs):
        traj = real(*args, **kwargs)
        if traj.params.a > 0:
            traj.coords[-1, 0] = float("nan")
        return traj

    def broken_summarize_rows(runs, *args):
        return [None if params.a > 0 else got
                for (_, params, _), got in zip(runs, real_summarize_rows(runs, *args))]

    monkeypatch.setattr(cli.dynamics, "iterate", broken_iterate)
    monkeypatch.setattr(cli.dynamics, "summarize_rows", broken_summarize_rows)
    args = ["sweep", "--grid-a=-1,1", "--grid-b=-1,1", "--grid-c", "1",
            "--grid-f", "0.5", "--starts", "1", "--steps", "50", "--seed", "2"]
    serial, threaded = _sweep_bytes_at_one_and_two_workers(tmp_path, sweep_threads, args)
    assert serial == threaded
    tokens = [line.rsplit(",", 1)[1] for line in serial.decode().splitlines()[1:]]
    assert tokens == ["", "", "numeric_failure", "numeric_failure"]


def test_sweep_run_cap(tmp_path):
    assert run(["sweep", "--grid-a", "1", "--grid-b", "1", "--grid-c", "1",
                "--grid-f", "0.5", "--starts", "10", "--max-runs", "5",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_ode_compare_zero_horizon(tmp_path):
    out = tmp_path / "ode.json"
    assert run(["ode-compare", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--T", "0", "--n-list", "10,100,1000,10000",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["errors"] == [0.0, 0.0, 0.0, 0.0]
    assert doc["result"]["degenerate"] is True
    # a zero horizon checks the substep counts like any other
    assert run(["ode-compare", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--T", "0", "--n-list", "5",
                "--out", str(out)]) == 2


def test_ode_compare_reference_unavailable_is_a_numeric_failure(tmp_path, capsys,
                                                                half_step_reference_moved):
    half_step_reference_moved(2e-8, 0.01)
    out = tmp_path / "ode.json"
    assert run(["ode-compare", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--T", "1", "--n-list", "10,100,1000,10000",
                "--ref-h", "0.01", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: reference step-halving"), err
    assert not out.exists()


def test_ode_compare_fixed_point_degenerate(tmp_path):
    params = Parameters(1, 1, 1)
    x = ",".join(repr(v) for v in params.fixed_point.coords)
    out = tmp_path / "ode.json"
    assert run(["ode-compare", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", x, "--T", "1", "--n-list", "10,100,1000,10000",
                "--ref-h", "0.01", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["degenerate"] is True
    assert max(doc["result"]["errors"]) <= 1e-12


# Each run asks for more than ode.MAX_STEPS steps: 1e303 RK4 steps for --T,
# 5e300 for --ref-h, 5e15 Euler substeps for the last n, and an n too large
# for a float. Uncapped, the first three loop without end. A child process
# with a timeout turns such a loop into a failure, not a hung suite.
@pytest.mark.parametrize("extra", [
    ["--T", "1e300"],
    ["--T", "5", "--ref-h", "1e-300"],
    ["--T", "5", "--n-list", "100,1000,10000,1000000000000000"],
    ["--T", "5", "--n-list", "100,1000,10000,1" + "0" * 400],
])
def test_ode_compare_step_counts_are_capped(extra):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "simplexflow.cli", "ode-compare", "--a", "0.7", "--b", "0.5",
            "--c", "0.9", "--x0", "0.3,0.3,0.4", "--f-const", "0.8", *extra]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
    err = done.stderr.splitlines()
    assert done.returncode == 2 and done.stdout == "", (extra, done)
    assert len(err) == 1 and err[0].startswith("config error:"), (extra, err)


def test_ode_compare_measures_first_order(tmp_path):
    out = tmp_path / "ode.json"
    assert run(["ode-compare", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--T", "1", "--n-list", "50,200,1000,5000",
                "--ref-h", "0.002", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0.85 <= doc["result"]["slope"] <= 1.15


def test_analyze_vertex_regime_report(tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", "--a", "1", "--b", "-1", "--c", "1", "--f-const", "0.5",
                "--x0", "0.4,0.35,0.25", "--steps", "2000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    report = doc["report"]
    assert report["regime"] == "vertex_convergence"
    assert report["persistence"] == "none"
    assert report["predicted_limit"] is None
    assert report["phi"]["log_phi_final"] < report["phi"]["log_phi_start"]
    assert report["cesaro"]["snapshots"][0]["n"] == 0
    assert report["omega"]["cells"]
    assert report["sojourns"]["eps"] == 0.05


def test_analyze_interior_regime_finds_limit(tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", "--a", "-1", "--b", "-1", "--c", "-0.125", "--f-const", "0.3",
                "--x0", "0.3,0.4,0.3", "--steps", "5000", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["regime"] == "interior_convergence"
    assert report["persistence"] == "strong"
    limit = report["convergence"]["limit"]
    assert limit is not None
    for got, want in zip(limit, (1 / 7, 4 / 7, 2 / 7)):
        assert abs(got - want) <= 1e-6
    for got, want in zip(report["predicted_limit"], (1 / 7, 4 / 7, 2 / 7)):
        assert abs(got - want) <= 1e-12
    assert min(report["persistence_proxies"]["tail_min"]) > 0.1


def test_analyze_cycling_regime_report(tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--steps", "3000", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["regime"] == "non_ergodic_cycling"
    assert report["phi"]["non_increasing"] is True
    audit = report["sectors"]["audit"]
    assert audit is not None and audit["violations"] == 0
    assert report["log_domain_engaged_at"] is not None


def test_analyze_cesaro_snapshots_match_the_stream(tmp_path):
    # the README analyze example, shortened: the report's snapshots are the
    # values of a CesaroState pushed the rows of the trajectory as numpy
    # rows, at the default order and at the edge orders
    traj = iterate(make_point(0.3, 0.4, 0.3), Parameters(-1, -1, -0.125), ConstantSpeed(0.3),
                   2000, mode="auto")
    marks = set(cli._log_spaced(traj.n_steps))
    out = tmp_path / "report.json"
    for orders in (None, 0, analysis.MAX_CESARO_ORDER):
        flag = [] if orders is None else ["--cesaro-orders", str(orders)]
        assert run(["analyze", "--a", "-1", "--b", "-1", "--c=-0.125", "--f-const", "0.3",
                    "--x0", "0.3,0.4,0.3", "--steps", "2000", "--out", str(out), *flag]) == 0
        snapshots = json.loads(out.read_text())["report"]["cesaro"]["snapshots"]
        state = analysis.CesaroState(2 if orders is None else orders)
        want = []
        for k in range(len(traj)):
            state.push(traj.coords[k])
            n = int(traj.steps[k])
            if n in marks:
                want.append({"n": n, "values": {f"c{j}": [float(v) for v in state.value(j)]
                                                for j in range(state.max_order + 1)}})
        assert snapshots == want, orders


def test_analyze_rejects_coarse_stride(tmp_path):
    assert run(["analyze", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--steps", "100", "--stride", "5"]) == 2


# ---------------------------------------------------------------------------
# bad input: every option of the table, and the checks that span options
# ---------------------------------------------------------------------------

_RUN = {"a": 1, "b": 1, "c": 1, "f_const": 1, "x0": [0.5, 0.3, 0.2]}
_VALID_CONFIG = {
    "simulate": {**_RUN, "steps": 5},
    "analyze": {**_RUN, "steps": 20},
    "sweep": {"grid_a": [1], "grid_b": [1], "grid_c": [1], "grid_f": [0.5], "steps": 5},
    "ode-compare": {**_RUN, "horizon": 0.1, "n_list": [10, 100, 1000, 10000], "ref_h": 0.01},
}
_GRID_KEYS = {"grid_a", "grid_b", "grid_c", "grid_f"}


def _bad_values(key):
    """Wrongly typed values for the key: "abc" is a valid output path, and
    [1] is a valid one-value grid, so those two are left out or swapped."""
    values = ["abc", [1], {}, True]
    if key == "out":
        values.remove("abc")
    if key in _GRID_KEYS:
        values[values.index([1])] = ["abc"]
    return values


def _expect_config_error(capsys, args):
    assert run(args) == 2, args
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), (args, err)


def test_valid_configs_run(tmp_path):
    for command, values in _VALID_CONFIG.items():
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0, command


# Every (command, key) pair of the option table. A "config" key in the file
# is left out: the --config flag that names the file always overrides it.
_TABLE_KEYS = [(command, o.key) for command in cli.COMMANDS for o in cli.OPTIONS
               if command in o.commands and o.key != "config"]


# Values of the right type that lie outside an option's range.
_OUT_OF_RANGE = {"gamma": [0, -1], "eps": [-5, 0, 1, 7], "conv_tol": [-1, 0], "grid": [1e-300],
                 "burn_in": [-1], "steps": [2**64 + 5], "x0": ["1.7e308,1.7e308,0"]}


@pytest.mark.parametrize("command,key", _TABLE_KEYS)
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, command, key):
    for bad in _bad_values(key):
        values = dict(_VALID_CONFIG[command], out=str(tmp_path / "o"))
        if key == "f_affine":
            del values["f_const"]
        values[key] = bad
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        _expect_config_error(capsys, [command, "--config", str(cfg)])
    flag = next(o.flag for o in cli.OPTIONS if o.key == key)
    for bad in _OUT_OF_RANGE.get(key, ()):
        _bad_value_in_flag_and_file(tmp_path, capsys, command, key, flag, bad)


def test_bad_flag_values_are_config_errors(tmp_path, capsys):
    run_args = ["--a", "1", "--b", "1", "--c", "1", "--f-const", "1", "--x0", "0.5,0.3,0.2",
                "--steps", "20", "--out", str(tmp_path / "o.json")]
    too_high = str(analysis.MAX_CESARO_ORDER + 1)
    for extra in (["--cesaro-orders", too_high], ["--cesaro-orders", "-1"], ["--grid", "0"],
                  ["--conv-window", "1"], ["--steps", "abc"], ["--f-affine", "0.5,0,0,0"]):
        _expect_config_error(capsys, ["analyze", *run_args, *extra])
    sweep_args = ["sweep", "--grid-a", "1", "--grid-b", "1", "--grid-c", "1", "--steps", "5",
                  "--out", str(tmp_path / "o.csv")]
    for extra in (["--conv-window", "1"], ["--threads", "0"], ["--starts", "x"]):
        _expect_config_error(capsys, [*sweep_args, *extra])
    # the Cesaro bound is the library's, not a copy
    assert run(["analyze", *run_args, "--cesaro-orders", str(analysis.MAX_CESARO_ORDER)]) == 0


def test_config_values_are_coerced_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 1, "b": "0.5", "c": 1, "f_const": 1,
                               "x0": "0.5,0.3,0.2", "steps": 4.0, "format": "json"}))
    out = tmp_path / "o.json"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header = json.loads(out.read_text())["header"]
    assert header["a"] == 1.0 and isinstance(header["a"], float)
    assert header["b"] == 0.5
    assert header["x0"] == [0.5, 0.3, 0.2]
    assert header["steps"] == 4 and isinstance(header["steps"], int)


def _bad_value_in_flag_and_file(tmp_path, capsys, command, key, flag, bad):
    """The value must be a config error as a flag and as a config-file value,
    and nothing may be written."""
    out = tmp_path / "o"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_VALID_CONFIG[command], out=str(out))))
    _expect_config_error(capsys, [command, "--config", str(cfg), flag, str(bad)])
    cfg.write_text(json.dumps(dict(_VALID_CONFIG[command], out=str(out), **{key: bad})))
    _expect_config_error(capsys, [command, "--config", str(cfg)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep"])
def test_unallocatable_steps_are_config_errors(tmp_path, capfd, monkeypatch, command):
    # Both sizes fail at once without touching memory: 10**30 exceeds the
    # largest array dimension, and 10**13 samples need 72.8 TiB. A sweep
    # row keeps no samples, so a sweep refuses both as above its step cap
    # (cli.MAX_SWEEP_STEPS) before it runs a row.
    for steps in (10**30, 10**13):
        _bad_value_in_flag_and_file(tmp_path, capfd, command, "steps", "--steps", steps)
    if command == "sweep":
        # The same where the rows would run on two threads; capfd also sees
        # what a thread would write to the file descriptors.
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "o"
        threads_before = threading.active_count()
        for steps in (10**30, 10**13):
            _expect_config_error(capfd, ["sweep", "--grid-a=1,-1", "--grid-b", "1",
                                         "--grid-c", "1", "--steps", str(steps),
                                         "--threads", "2", "--out", str(out)])
            assert not out.exists()
            assert threading.active_count() == threads_before


def test_reference_step_out_of_range_is_config_error(tmp_path, capsys):
    for ref_h in (10 * ode.MAX_REFERENCE_STEP, 0.0):
        _bad_value_in_flag_and_file(tmp_path, capsys, "ode-compare", "ref_h", "--ref-h", ref_h)


def _takes_reals(option):
    """Whether the option's coercer is _real or a list of _real: it turns a
    "0.5", or a comma list of up to four of them, into floats."""
    for size in range(1, 5):
        try:
            value = option.coerce(",".join(["0.5"] * size))
        except ValueError:
            continue
        return value == 0.5 or value == [0.5] * size
    return False


# A valid list for each list-of-reals key; its first value is replaced.
_VALID_LISTS = {"x0": [0.5, 0.3, 0.2], "f_affine": [0.5, 0.0, 0.0, 0.0],
                **{key: [1.0] for key in _GRID_KEYS}}
_REAL_KEYS = [(command, o.key) for command in cli.COMMANDS for o in cli.OPTIONS
              if command in o.commands and _takes_reals(o)]


@pytest.mark.parametrize("command,key", _REAL_KEYS)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, key):
    # nan, inf and -inf as a flag, and 1e309, which JSON parsers read as inf,
    # in a config file. Each must fail the option's own coercion.
    option = next(o for o in cli.OPTIONS if o.key == key)
    out = tmp_path / "o"
    values = dict(_VALID_CONFIG[command], out=str(out))
    if key == "f_affine":
        del values["f_const"]
    values.pop(key, None)
    cfg = tmp_path / "cfg.json"

    def expect(args):
        assert run(args) == 2, args
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: bad {option.flag}:"), (args, err)

    cfg.write_text(json.dumps(values))
    for bad in ("nan", "inf", "-inf"):
        text = ",".join([bad] + [repr(v) for v in _VALID_LISTS[key][1:]]) if key in _VALID_LISTS else bad
        expect([command, "--config", str(cfg), f"{option.flag}={text}"])
    values[key] = [None] + _VALID_LISTS[key][1:] if key in _VALID_LISTS else None
    cfg.write_text(json.dumps(values).replace("null", "1e309"))
    expect([command, "--config", str(cfg)])
    assert not out.exists()


def test_non_finite_options_cover_every_real_option():
    keys = {key for _, key in _REAL_KEYS}
    assert keys == {"a", "b", "c", "x0", "eps", "grid", "conv_tol", "gamma", "horizon",
                    "ref_h", "f_const", "f_affine", "grid_a", "grid_b", "grid_c", "grid_f"}


def test_analyze_echoes_log_persistence_proxies(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1",
                "--x0", "0.5,0.3,0.2", "--steps", "2000", "--out", str(out)]) == 0
    proxies = json.loads(out.read_text())["report"]["persistence_proxies"]
    # the run switches to the log stepper, where x3 sinks past underflow
    assert proxies["global_min"][2] == 0.0
    assert -1e6 < proxies["log_global_min"][2] < -745.0
    assert all(lo <= hi for lo, hi in zip(proxies["log_global_min"], proxies["log_tail_min"]))


def test_report_key_orders_are_pinned(tmp_path):
    # These records are NamedTuple ``_asdict()`` dumps, so their key order is
    # the field order in analysis and ode; reordering a field must fail here.
    run_args = ["--a", "1", "--b", "1", "--c", "1", "--f-const", "1", "--x0", "0.5,0.3,0.2"]
    out = tmp_path / "r.json"
    assert run(["analyze", *run_args, "--steps", "200", "--gamma", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert list(report["persistence_proxies"]) == [
        "global_min", "tail_min", "tail_max", "tail_start_step", "log_global_min", "log_tail_min"]
    assert list(report["sectors"]["audit"]) == [
        "gamma", "audited_samples", "visits", "step_counts", "transitions", "violations",
        "degenerate_filter"]
    assert run(["ode-compare", *run_args, "--T", "0", "--n-list", "10,100,1000,10000",
                "--out", str(out)]) == 0
    assert list(json.loads(out.read_text())["result"]) == [
        "n_list", "errors", "slope", "degenerate", "reference_self_error"]



# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

_json_floats = st.one_of(
    st.sampled_from((-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, math.inf, -math.inf, math.nan)),
    st.floats(),
    st.floats().map(np.float64),
)
_json_leaves = st.one_of(
    _json_floats,
    st.integers(), st.integers(-2**200, 2**200),
    st.booleans(), st.none(),
    st.text(), st.sampled_from(("", "\x00\x1f\\\"/", "\u00e9\u2028\U0001f600")),
    st.sampled_from(({}, [], ())),
)


def _json_trees(leaves):
    return st.one_of(
        st.lists(leaves, max_size=4),
        st.lists(leaves, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers()), leaves, max_size=4),
        st.tuples(_json_floats, _json_floats, _json_floats).map(SimplexPoint),
    )


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(value=st.recursive(_json_leaves, _json_trees, max_leaves=24))
def test_json_text_is_json_dumps_of_the_jsonable_value(value):
    assert cli._json_text(value) == json_text(value)


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, {"a": [1.0, np.int64(3)]}],
                         ids=["int64", "set", "nested-int64"])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json_text(value)
    with pytest.raises(TypeError):
        cli._json_text(value)


_RUN_ARGS = ["--a", "1", "--b", "1", "--c", "1", "--f-const", "1"]


# Each command's JSON document, written by the writer and by the plain way;
# each holds the texts named with it.
@pytest.mark.parametrize("argv, holds", [
    (["analyze", "--a", "-1", "--b", "-1", "--c", "-0.125", "--f-const", "0.3",
      "--x0", "0.3,0.4,0.3", "--steps", "5000"], ('"predicted_limit": [', '"limit": [')),
    (["analyze", *_RUN_ARGS, "--x0", "0.5,0.3,0.2", "--steps", "3000"], ('"audit": {',)),
    (["analyze", *_RUN_ARGS, "--x0", "0.5,0.5,0", "--steps", "300"], ('"-inf"',)),
    (["ode-compare", *_RUN_ARGS, "--x0", "0.5,0.3,0.2", "--T", "1",
      "--n-list", "10,100,1000,5000", "--ref-h", "0.002"], ('"slope": ',)),
    (["simulate", *_RUN_ARGS, "--x0", "0.5,0.3,0.2", "--steps", "50", "--format", "json"],
     ('"samples": [',)),
], ids=["interior-limit", "cycling", "face-start", "ode-compare", "simulate"])
def test_json_documents_are_the_plain_way_bytes(tmp_path, monkeypatch, argv, holds):
    assert run([*argv, "--out", str(tmp_path / "writer.json")]) == 0
    monkeypatch.setattr(cli, "_json_text", json_text)
    assert run([*argv, "--out", str(tmp_path / "plain.json")]) == 0
    text = (tmp_path / "writer.json").read_text()
    assert all(snippet in text for snippet in holds)
    assert text == (tmp_path / "plain.json").read_text()


def test_cli_import_leaves_multiprocessing_out(tmp_path):
    # a sweep runs its rows on threads, not processes: neither the import
    # nor a sweep on two threads loads multiprocessing, whose import slows a start
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    sweep = ["sweep", "--grid-a=-1,1", "--grid-b", "1", "--grid-c", "1", "--steps", "50",
             "--threads", "2", "--out", str(tmp_path / "o.csv")]
    code = ("import sys, simplexflow.cli as cli; "
            f"assert cli.main({sweep!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert done.returncode == 0 and done.stdout == "[]\n", done


# ---------------------------------------------------------------------------
# the README's CLI examples
# ---------------------------------------------------------------------------

def _readme_section(title):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_cli_commands():
    """Every ``simplexflow ...`` command in the README's CLI section."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", _readme_section("CLI"), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("simplexflow "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_cli_examples_run(tmp_path):
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        argv = list(argv)
        if "--steps" in argv:
            k = argv.index("--steps") + 1
            argv[k] = str(min(int(argv[k]), 2000))
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / Path(argv[k]).name)
        assert run(argv) == 0, argv


def test_readme_library_example_runs(capsys):
    # run with at most 2000 steps, like the CLI examples; the printed fixed
    # point must be the one the example's comment shows
    code = re.search(r"```python\n(.*?)```", _readme_section("Library example"), flags=re.S)[1]
    code, cuts = re.subn(r"(sf\.iterate\([^)]*?, )([\d_]+)",
                         lambda m: m[1] + str(min(int(m[2]), 2000)), code)
    assert cuts == 1
    exec(code, {})
    assert capsys.readouterr().out.splitlines()[-1] == re.search(r"# -> (.*)", code)[1]


# ---------------------------------------------------------------------------
# contract fuzz: any JSON object as a config file
# ---------------------------------------------------------------------------

# The ode-compare horizon and the sweep's starts multiply the work; their
# numbers stay small so that no example runs much more than 1e4 map steps.
_INT_BOUNDS = {"horizon": 2, "starts": 3}


def _json_values(bound):
    """Every JSON type: mostly numbers (small, huge and non-finite), number
    strings and lists of up to three numbers, which the coercers accept;
    also null, booleans, junk strings, mixed lists and objects."""
    numbers = st.one_of(st.integers(-bound, bound), st.floats(-bound, bound),
                        st.sampled_from((10**30, -10**30, 1e300, 1e-300, math.nan, math.inf)))
    number_lists = st.lists(numbers, max_size=3)
    leaves = st.one_of(st.none(), st.booleans(), numbers, st.text("ab-,.x ", max_size=3))
    return st.one_of(
        numbers, numbers.map(str), number_lists, number_lists.map(lambda v: ",".join(map(str, v))),
        leaves, st.lists(leaves, max_size=3), st.dictionaries(st.text("ab", max_size=2), leaves,
                                                              max_size=2))


_FUZZ_KEYS = sorted({o.key for o in cli.OPTIONS} | {"steps-", "burn-in", "grid-a", "zz", ""})


@st.composite
def _fuzz_configs(draw):
    """(command, config): an arbitrary object, or one of the valid configs
    with some keys replaced, so that runs pass the checks as well as fail."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    cfg = dict(_VALID_CONFIG[command]) if draw(st.integers(0, 3)) else {}
    for key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=3, unique=True)):
        cfg[key] = draw(_json_values(_INT_BOUNDS.get(key.replace("-", "_"), 20)))
    return command, cfg


_EXIT_LINES = {2: "config error:", 3: "numeric failure:", 4: "i/o failure:"}


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(drawn=_fuzz_configs())
def test_any_config_object_ends_in_a_documented_exit_code(tmp_path_factory, drawn):
    command, values = drawn
    out_dir = tmp_path_factory.mktemp("fuzz")
    cfg = out_dir / "cfg.json"
    cfg.write_text(json.dumps(values))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([command, "--config", str(cfg), "--out", str(out_dir / "o")])
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(_EXIT_LINES[code]), (code, lines)
