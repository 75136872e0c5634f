"""The compiled summary of a sweep row against the array path it replaces.

``dynamics.summarize_rows`` keeps a row's checks, sector entries and the
spread of its last ``--conv-window`` coordinates while the compiled loop
runs; the array path (``iterate`` at stride 1, ``_validate_samples``,
``sector_array``, ``window_spread``) stays its reference. Each test
compares the text a sweep writes (``cli._sweep_rows``) with the text
``cli._sweep_row`` writes on the array path, so a difference in any field
shows.
"""
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from simplexflow import cli, dynamics
from simplexflow.dynamics import ConstantSpeed, Parameters, iterate
from simplexflow.simplex import SimplexPoint, make_point

# 1e-50 and the next double up, at vertex 3: their logs are equal, so this
# start's sector is 4 (y3 > y2 > y1) by the ratios and 3 by the logs when
# the weights are 1. Under (1, 1, 1) at f = 0.5 its x1 halves each step and
# crosses 1e-100 at step 167.
NEAR_TIE = (1e-50, math.nextafter(1e-50, 1.0), 1.0)
VALID_STARTS = (
    (0.5, 0.3, 0.2),   # switches at step 74 under (1, 1, 1) at f = 1
    (1e-90, 0.5, 0.5),
    NEAR_TIE,
    (0.4, 0.4, 0.2),   # a tie of the ratios when |a| = |b| = |c|
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
    (0.6, 0.4, 0.0), (0.0, 0.3, 0.7), (0.5, 0.0, 0.5),
)
# Starts that make_point refuses, run as SimplexPoint takes them: a sum off
# by 0.1 (only the sum check fails, at the start), coordinates outside [0, 1]
# with sum 1, a NaN, and one whose first factor fails, so the kernel hands
# the step back and the Python loop raises.
RAW_STARTS = (
    (0.5, 0.3, 0.3),
    (1.5, -0.25, -0.25),
    (math.nan, 0.5, 0.5),
    (0.0, 3.0, -2.0),
)


def _raw_point(*x):
    return SimplexPoint(tuple(float(v) for v in x))


def _cfg(n_steps, window, tol):
    return {"steps": n_steps, "conv_window": window, "conv_tol": tol, "threads": 1}


def _row_text(write, row, cfg):
    """A row's text, or the type of what it raised (a raw start can make the
    Python loop divide by a zero sum)."""
    try:
        return write(row, cfg)
    except Exception as exc:
        return type(exc)


def _swept(row, cfg):
    """The row's text as a sweep writes it: through the kernel's summary."""
    return cli._sweep_rows([row], cfg)[0]


def _on_the_array_path(row, cfg):
    """The row's text with its run on the array path."""
    *head, x0 = row
    return cli._sweep_row((0, *head, *x0), cli._row_inputs(*row), None, cfg)


def _row_texts(row, cfg, raw=False):
    """A row's text through the kernel's summary and on the array path."""
    with mock.patch.object(cli, "make_point", _raw_point if raw else make_point):
        return _row_text(_swept, row, cfg), _row_text(_on_the_array_path, row, cfg)


def _summarized(row, cfg):
    """The summary of a row's run, None where the kernel hands a step back."""
    a, b, c, fv, x0 = row
    return dynamics.summarize_rows([(make_point(*x0), Parameters(a, b, c), ConstantSpeed(fv))],
                                   cfg["steps"], cfg["conv_window"], 1)[0]


@st.composite
def _parameter(draw):
    kind = draw(st.integers(0, 24))
    if kind == 0:
        return 0.0  # zero_parameter
    if kind == 1:
        return 1.5  # invalid_parameter
    sign = draw(st.sampled_from((-1.0, 1.0)))
    return sign * draw(st.one_of(st.sampled_from((1.0, 0.5, 0.125)), st.floats(0.01, 1.0)))


@st.composite
def _rows(draw):
    """A sweep row and its config: every sign pattern, interior, face, vertex
    and near-tie starts, now and then a failing cell, 1 to 3000 steps, a
    --conv-window up to two above the sample count and a --conv-tol from
    1e-16 to 0.1."""
    a, b, c = draw(_parameter()), draw(_parameter()), draw(_parameter())
    fv = draw(st.one_of(st.sampled_from((0.5, 1.0, 1.0, 2.0)), st.floats(0.02, 1.0)))
    raw = draw(st.integers(0, 9)) == 0
    if raw:
        x0 = draw(st.sampled_from(RAW_STARTS))
    elif draw(st.booleans()):
        x0 = draw(st.sampled_from(VALID_STARTS))
    else:
        u, v = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
        x0 = (u, v - u, 1.0 - v)
    n_steps = draw(st.one_of(st.sampled_from((1, 2)), st.sampled_from((400, 2000)),
                             st.integers(3, 3000)))
    window = draw(st.one_of(st.integers(2, 5), st.integers(2, n_steps + 3)))
    tol = 10.0 ** draw(st.floats(-16.0, -1.0))
    return (a, b, c, fv, x0), _cfg(n_steps, window, tol), raw


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(case=_rows())
def test_the_summary_row_is_the_array_path_row(compiled, case):
    row, cfg, raw = case
    summary, array = _row_texts(row, cfg, raw)
    assert summary == array


def test_the_summary_covers_the_cases_the_rows_need(compiled):
    # the draws above reach each of these; here each is pinned once
    cases = {
        "switched early": ((1.0, 1.0, 1.0, 1.0, (0.5, 0.3, 0.2)), _cfg(2000, 100, 1e-9)),
        "switched on the last step": ((1.0, 1.0, 1.0, 1.0, (0.5, 0.3, 0.2)), _cfg(74, 10, 1e-9)),
        "switched late": ((1.0, 1.0, 1.0, 0.5, NEAR_TIE), _cfg(400, 100, 1e-9)),
        "converged": ((-1.0, -1.0, -1.0, 0.5, (0.5, 0.3, 0.2)), _cfg(3000, 100, 1e-6)),
        "window above the sample count": ((-1.0, -1.0, -1.0, 0.5, (0.5, 0.3, 0.2)),
                                          _cfg(50, 52, 1.0)),
        "one step": ((1.0, -1.0, 1.0, 0.5, (0.5, 0.3, 0.2)), _cfg(1, 3, 1.0)),
        "zero steps": ((1.0, -1.0, 1.0, 0.5, (0.5, 0.3, 0.2)), _cfg(0, 2, 1.0)),
    }
    for name, (row, cfg) in cases.items():
        summary, array = _row_texts(row, cfg)
        assert summary == array, name
        assert _summarized(row, cfg) is not None, name
    switched = [_summarized(cases[k][0], cases[k][1]).final.logs is not None
                for k in ("switched early", "switched on the last step", "switched late")]
    assert switched == [True, True, True]
    fields = _row_texts(*cases["converged"])[0].split(",")
    assert fields[9] != ""  # limit_x1 is filled
    for name in ("window above the sample count", "one step", "zero steps"):
        assert _row_texts(*cases[name])[0].split(",")[9] == "", name  # too few samples
        assert _summarized(*cases[name]).spread is None, name
    # a schedule of 0 steps has one sample, the start
    assert _summarized(*cases["zero steps"]).final == make_point(0.5, 0.3, 0.2)


def test_the_spread_covers_the_whole_window(compiled):
    # A converging orbit: the last `window` samples span a diameter d_w above
    # the d_(w-1) of the last window - 1. A tolerance between the two must
    # leave the limit empty, and one above d_w fill it. A window of every
    # sample starts at the start.
    row = (-1.0, -1.0, -0.125, 0.3, (0.3, 0.4, 0.3))
    n_steps = 500
    coords = iterate(make_point(*row[4]), Parameters(*row[:3]), ConstantSpeed(row[3]),
                     n_steps, mode="auto").coords

    def diameter(tail):
        return float(np.max(tail.max(axis=0) - tail.min(axis=0)))

    for window in (40, n_steps + 1):
        d_w, d_short = diameter(coords[-window:]), diameter(coords[-window + 1:])
        assert d_short < d_w
        assert _summarized(row, _cfg(n_steps, window, 1.0)).spread == d_w
        for tol, filled in (((d_w + d_short) / 2, False), (2 * d_w, True)):
            summary, array = _row_texts(row, _cfg(n_steps, window, tol))
            assert summary == array
            assert (summary.split(",")[9] != "") is filled, (window, tol)


def test_a_window_of_every_step_of_a_long_run_is_not_kept(compiled):
    # 1e6 steps in a window of every state: a summary of each coordinate's
    # least and greatest value, where the states themselves take 24 MB
    run = (make_point(0.5, 0.3, 0.2), Parameters(-1.0, -1.0, -1.0), ConstantSpeed(0.5))
    tracemalloc.start()
    try:
        [summary] = dynamics.summarize_rows([run], 10**6, 10**6 + 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.spread is not None
    assert peak < 64 * 1024


def test_a_sample_that_fails_only_the_sum_check_fails_the_row(compiled):
    # the start's coordinates sum to 1.1; the first step renormalizes them
    row = (1.0, -1.0, 1.0, 0.5, (0.5, 0.3, 0.3))
    start = _raw_point(*row[4])
    assert dynamics.summarize_rows([(start, Parameters(*row[:3]), ConstantSpeed(row[3]))],
                                   20, 5, 1) == [None]
    texts = _row_texts(row, _cfg(20, 5, 1e-9), raw=True)
    assert texts[0] == texts[1] and texts[0].endswith(",numeric_failure")


def test_the_summary_sectors_follow_each_samples_domain(compiled):
    # NEAR_TIE's start is in sector 4 by its ratios, which a linear sample
    # compares; by its logs it would be in sector 3.
    row = (1.0, 1.0, 1.0, 0.5, NEAR_TIE)
    cfg = _cfg(100, 10, 1e-9)
    assert _summarized(row, cfg).final.logs is None  # no switch in 100 steps
    summary, array = _row_texts(row, cfg)
    assert summary == array
    traj = iterate(make_point(*NEAR_TIE), Parameters(1, 1, 1), ConstantSpeed(0.5), 100,
                   mode="auto")
    assert cli.analysis.sector_array(traj)[0] == 4


def test_a_row_the_kernel_hands_back_is_rerun_on_the_array_path(compiled, monkeypatch):
    # A counting profiler in place of dynamics.log_sum_exp keeps the log
    # steps in Python: the kernel's run, which takes them without calling
    # it, is discarded, and the row is rerun from step 0.
    row = (1.0, 1.0, 1.0, 1.0, (0.5, 0.3, 0.2))
    cfg = _cfg(300, 50, 1e-9)
    want = _swept(row, cfg)
    calls = {"log_sum_exp": 0, "iterate": 0}
    log_sum_exp, real_iterate = dynamics.log_sum_exp, dynamics.iterate

    def counted_log_sum_exp(values):
        calls["log_sum_exp"] += 1
        return log_sum_exp(values)

    def counted_iterate(*args, **kwargs):
        calls["iterate"] += 1
        return real_iterate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "log_sum_exp", counted_log_sum_exp)
    monkeypatch.setattr(dynamics, "iterate", counted_iterate)
    assert _summarized(row, cfg) is None
    assert _swept(row, cfg) == want
    assert calls["iterate"] == 1 and calls["log_sum_exp"] >= 300 - 74


def _bits(run):
    return run.final.coords, run.final.logs, run.entries, run.spread


@pytest.mark.parametrize("runs_at_once", [2**20, 60])
def test_runs_on_threads_are_the_runs_one_at_a_time(compiled, runs_at_once):
    # 256 runs on up to 8 threads, linear-only, switching and vertex ones,
    # whose costs differ, in one compiled call or in calls of 60 runs: a run
    # stored at another index, run twice (its summary counts its entries
    # twice) or read before it has finished shows, as does a summary that
    # depends on the runs it shares a call with.
    rng = random.Random(5)
    signs = (-1.0, -0.5, 0.5, 1.0)
    runs = [(make_point(*cli._sample_interior(rng)),
             Parameters(rng.choice(signs), rng.choice(signs), rng.choice(signs)),
             ConstantSpeed(rng.choice((0.25, 0.5, 1.0)))) for _ in range(256)]
    want = [_bits(dynamics.summarize_rows([run], 400, 20, 1)[0]) for run in runs]
    for workers in (2, 3, 8):
        for _ in range(3):
            got = [run for i in range(0, len(runs), runs_at_once)
                   for run in dynamics.summarize_rows(runs[i:i + runs_at_once], 400, 20, workers)]
            assert [_bits(run) for run in got] == want


def test_sweep_steps_are_capped():
    parser = cli.build_parser()
    args = ["sweep", "--grid-a", "1", "--grid-b", "1", "--grid-c", "1", "--steps"]
    assert cli._load(parser.parse_args([*args, str(cli.MAX_SWEEP_STEPS)]))["steps"] == \
        cli.MAX_SWEEP_STEPS
    with pytest.raises(cli.ConfigError, match="exceeds the cap"):
        cli._load(parser.parse_args([*args, str(cli.MAX_SWEEP_STEPS + 1)]))
