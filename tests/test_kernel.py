"""The compiled loops against the Python loops, and the build's fallbacks."""
import ctypes
import itertools
import math
import random
import struct
import sys
import threading
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from simplexflow import (
    AffineSpeed,
    ConstantSpeed,
    Parameters,
    SimplexPoint,
    cli,
    kernel,
    make_point,
    ode,
    reference_path,
    vertex_point,
)
from simplexflow.errors import NonPositiveFactor

from oracles import python_loop_sums, python_loops

# ---------------------------------------------------------------------------
# fsum
# ---------------------------------------------------------------------------

def _fsum3(lib, *v):
    """The kernel's ``sf_fsum3`` on three values, a sum that rounds its
    error terms to odd; None where it declines."""
    out = ctypes.c_double()
    if lib.sf_fsum3((ctypes.c_double * 3)(*v), ctypes.byref(out)) != 0:
        return None
    return out.value


def _assert_fsum3_is_math_fsum(lib, p):
    """``math.fsum``'s bits, or a decline: wherever ``math.fsum`` raises or
    is not finite, and besides only where a partial sum, p0 + p1 or that plus
    p2, reaches 2^1022."""
    got = _fsum3(lib, *p)
    try:
        want = math.fsum(p)
    except (OverflowError, ValueError):
        want = math.nan
    if got is None:
        u = p[0] + p[1]
        assert not math.isfinite(want) or max(abs(u), abs(u + p[2])) >= 2.0**1022, p
    else:
        assert math.isfinite(want) and got.hex() == want.hex(), p


_HALF_WAY = [
    (1.0, 2.0**-53, 2.0**-106),     # the half-even correction rounds up
    (1.0, 2.0**-53, -(2.0**-106)),  # ... and here it must not
    (1e16, 1.0, 1e-16),             # CPython's own example for the correction
    (1.0, -(2.0**-54), -(2.0**-107)),
    (2.0**53, 1.0, 2.0**-60),
    (0.1, 0.2, -0.3),
    (1e308, -1e308, 5e-324),
    (0.0, -0.0, 0.0),
    # In each, the two error terms sum inexactly. In all but the second, their
    # sum rounded to nearest is exactly half an ulp of the rounded sum, a tie
    # that the exact sum is not, and its last bit rounded to odd breaks it.
    # Breaking the tie to even gives the same sum in these three.
    (1.0, -(2.0**-54), 2.0**-200),      # -2^-54 steps toward zero, across 2^-54: 1.0
    (1.0, 5 * 2.0**-55, 2.0**-200),     # -3 2^-55, an even significand, no power of two
    (2.0**58, -16.0, 1.5 * 2.0**-105),  # -16 steps toward zero: 2^58
]
# Ties as above that breaking to even gets wrong, in every order and sign:
# here sf_fsum3 must overwrite the sum it stores first.
_TIES_MOVED = [
    (1.0, 2.0**-53, 2.0**-200),                # 2^-53 gets its odd bit: up, to 1 + 2^-52
    (2.0**53, 1.0 + 2.0**-52, -3 * 2.0**-54),  # -1 steps toward zero: 2^53 + 2, not 2^53
    (-(2.0**-53), -(2.0**-106), -(2.0**-200)),  # -2^-106 gets its odd bit: -(2^-53 + 2^-105)
    (2.0**58, -48.0, 2.0**-106),               # 16 gets its odd bit: 2^58 - 32, not 2^58 - 64
]
_HALF_WAY += _TIES_MOVED


def _mirrors(t):
    """Every order and overall sign of a triple."""
    u, v, w = t
    for p in {(u, v, w), (u, w, v), (v, u, w), (v, w, u), (w, u, v), (w, v, u)}:
        yield p
        yield tuple(-x for x in p)


def test_fsum3_is_math_fsum_on_half_way_triples(compiled):
    for t in _HALF_WAY:
        for p in _mirrors(t):
            assert _fsum3(compiled, *p).hex() == math.fsum(p).hex(), p


def _two_sum(a, b):
    """a + b rounded and its error (Knuth's TwoSum, as ``kernel.c`` has it)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def test_ties_moved_are_not_summed_by_rounding_to_nearest():
    """t + (e1 + e2) rounded to nearest, the sum that ``sf_fsum3`` stores
    first, is not ``math.fsum`` on ``_TIES_MOVED``, so the half-way test
    reaches the branch that overwrites it."""
    for q in _TIES_MOVED:
        for p in _mirrors(q):
            u, e1 = _two_sum(p[0], p[1])
            t, e2 = _two_sum(u, p[2])
            assert (t + (e1 + e2)).hex() != math.fsum(p).hex(), p


def test_fsum3_is_math_fsum_on_random_triples(compiled):
    rng = random.Random(12)
    for _ in range(20000):
        e = rng.randint(-60, 60)
        u = rng.choice((-1.0, 1.0)) * math.ldexp(rng.random(), e)
        # partners near u's magnitude, near its last bits and far below it,
        # with the cancellation the renormalization sums see
        v = rng.choice((-u, u, 1.0)) * (1.0 + rng.choice((0.0, 2.0**-52, -(2.0**-53)))) \
            + math.ldexp(rng.random() - 0.5, e - rng.randint(0, 110))
        w = math.ldexp(rng.random() - 0.5, e - rng.randint(0, 110))
        for p in ((u, v, w), (w, u, v)):
            assert _fsum3(compiled, *p).hex() == math.fsum(p).hex(), p


def _any_finite(rng):
    """A double of random bits, redrawn until finite."""
    while True:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(x):
            return x


def test_fsum3_is_math_fsum_over_the_whole_double_range(compiled):
    rng = random.Random(31)
    for z in itertools.product((0.0, -0.0), repeat=3):
        _assert_fsum3_is_math_fsum(compiled, z)
    for e in range(-1074, 1024):
        u = rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.random(), e)
        near = -u * (1.0 + rng.choice((0.0, 2.0**-52, -(2.0**-53), 2.0**-51)))
        below = math.ldexp(rng.random() - 0.5, e - rng.randint(0, 1100))
        for p in ((u, near, below), (u, below, near + below), (u, -u, rng.choice((0.0, -0.0))),
                  (u, _any_finite(rng), below), tuple(_any_finite(rng) for _ in range(3))):
            _assert_fsum3_is_math_fsum(compiled, p)
            _assert_fsum3_is_math_fsum(compiled, p[::-1])


_MAX = sys.float_info.max


def test_fsum3_declines_what_math_fsum_cannot_sum_finitely(compiled):
    for p in ((math.inf, 1.0, 0.0), (math.nan, 0.0, 0.0), (math.inf, -math.inf, 0.0),
              (1e308, 1e308, 0.0),
              # math.fsum adds 2^970 to _MAX first, and that overflows
              (-(_MAX - 2.0**971), 2.0**970, _MAX),
              (_MAX, -1.25 * 2.0**1022, 1.75 * 2.0**1023),
              # the band: math.fsum gives 2^1022, a partial that reaches it
              (2.0**1023, -(2.0**1022), 1.0)):
        assert _fsum3(compiled, *p) is None


# ---------------------------------------------------------------------------
# the RK4 reference
# ---------------------------------------------------------------------------

def _endpoint_hex(*args):
    try:
        return [v.hex() for v in reference_path(*args).coords]
    except Exception as exc:
        return type(exc), str(exc)


_signed = st.floats(0.05, 1.0).flatmap(lambda v: st.sampled_from((v, -v)))


@st.composite
def _reference_inputs(draw):
    """Interior, face, vertex and corrupt starts (off the simplex, where the
    sum can overflow or cancel to zero), any signs, constant or affine speed."""
    kind = draw(st.sampled_from(("interior",) * 3 + ("face", "vertex", "corrupt")))
    if kind == "vertex":
        start = vertex_point(draw(st.integers(1, 3)))
    elif kind == "corrupt":
        t = draw(st.floats(1.5, 40.0))
        start = SimplexPoint((0.0, t, 1.0 - t))
    else:
        weights = [draw(st.floats(0.01, 1.0)) for _ in range(3)]
        if kind == "face":
            weights[draw(st.integers(0, 2))] = 0.0
        s = math.fsum(weights)
        start = make_point(*(w / s for w in weights))
    if draw(st.booleans()):
        speed = ConstantSpeed(draw(st.floats(0.05, 1.0)))
    else:
        a0 = draw(st.floats(-0.5, 0.5))
        speed = AffineSpeed(a0, *(draw(st.floats(0.05, 0.99)) - a0 for _ in range(3)))
    params = Parameters(*(draw(_signed) for _ in range(3)))
    h = draw(st.sampled_from((1e-2, 5e-3, 2e-3)))
    return start, params, speed, draw(st.integers(0, 400)) * h, h


# An RK4 run whose sums are 1.0 at 84% of its steps, so that the compiled loop
# takes both sides of its branch on a unit sum.
_MIXED_UNIT_SUMS = (SimplexPoint((0.5, 0.3, 0.2)), Parameters(1, 1, 1), ConstantSpeed(1.0), 1.0,
                    1e-3)


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(args=_reference_inputs())
@example(args=_MIXED_UNIT_SUMS)
def test_the_compiled_reference_loop_matches_the_python_loop_bit_for_bit(compiled, args):
    want, sums = python_loop_sums(_endpoint_hex, *args)
    assert _endpoint_hex(*args) == want
    if args is _MIXED_UNIT_SUMS:
        assert 1.0 in sums and any(s != 1.0 for s in sums)


# A corrupt start whose coordinates overflow with opposite signs at step 9:
# the kernel takes eight steps and stops, and the Python loop reruns the
# request from step 0, four field evaluations a step, until fsum raises
# and the loop raises NonPositiveFactor in its place.
def test_a_reference_run_the_kernel_stops_short_is_rerun_from_step_0(compiled, monkeypatch):
    args = (SimplexPoint((0.0, 3.0, -2.0)), Parameters(1, 1, -1), ConstantSpeed(1.0), 4.0, 1e-2)
    want = python_loops(_endpoint_hex, *args)
    records, fields = [], 0
    rk4_run, field = kernel.rk4_run, ode._field

    def spied(*a):
        records.append(rk4_run(*a))
        return records[-1]

    def counted(*a):
        nonlocal fields
        fields += 1
        return field(*a)

    monkeypatch.setattr(kernel, "rk4_run", spied)
    monkeypatch.setattr(ode, "_field", counted)
    assert _endpoint_hex(*args) == want == (
        NonPositiveFactor, "the RK4 update at step 9 from (0.0, 3.0, -2.0) sums to nan")
    assert [done for _, done in records] == [8]
    assert fields == 4 * 9


# ---------------------------------------------------------------------------
# the shortest round-trip formatter and the row writer
# ---------------------------------------------------------------------------

# Four doubles a row, between two ints, with a literal around each value.
_VALUES = "<%d|%r|%r|%r|%r|%d>"


def _not_repr(values):
    """The rows where the row writer's text of ``values`` (four to a row,
    flattened) is not ``repr``'s, as (kernel text, ``%`` text) pairs."""
    v = np.asarray(values, np.float64).reshape(-1)
    v = np.concatenate([v, np.zeros(-len(v) % 4)]).reshape(-1, 4)
    steps = np.arange(len(v), dtype=np.int64)
    sector = (steps % 256 - 128).astype(np.int8)
    got = kernel.rows_run(_VALUES, "\n", steps, v[:, :3], v[:, 3], sector).split("\n")
    want = [_VALUES % row for row in zip(steps.tolist(), *v.T.tolist(), sector.tolist())]
    assert len(got) == len(want)
    return [(g, w) for g, w in zip(got, want) if g != w]


def test_the_formatter_is_repr_on_random_bit_patterns(compiled):
    bits = np.random.default_rng(17).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert _not_repr(values[np.isfinite(values)]) == []


def _ulps(x, n):
    """x and its n neighbours on each side."""
    out = [x]
    for toward in (0.0, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def test_the_formatter_is_repr_on_edge_values(compiled):
    values = [v for k in range(-1074, 1024) for v in _ulps(math.ldexp(1.0, k), 1)]
    values += [v for k in range(-323, 309) for v in _ulps(float(f"1e{k}"), 4)]
    values += [i * 5e-324 for i in range(2000)]  # the least subnormals, from 0.0
    values += [1e16, 9999999999999998.0, 1e-4, math.nextafter(1e-4, 0.0), 1e-5,
               2.2250738585072014e-308, 1.7976931348623157e308]
    # two shortest candidates equally near v: the even one
    values += [math.ldexp(c, -2) for c in range(2**52 + 1, 2**52 + 400, 2)]
    values += [math.ldexp(c, -3) for c in range(2**52 + 2, 2**52 + 800, 4)]
    # integral values: every integer to 1e5 and 1e5 random ones below 2^53
    whole = np.concatenate([np.arange(100_001),
                            np.random.default_rng(53).integers(0, 2**53, size=10**5)])
    values = np.concatenate([[v for v in values if math.isfinite(v)], whole, whole / 2])
    assert _not_repr(np.concatenate([values, -values])) == []


def _digits_and_point(x):
    """``repr(x)``'s shortest digits d1 d2 ... dn and the point p in
    x = 0.d1 d2 ... dn 10^p."""
    sign, digits, exponent = Decimal(repr(x)).normalize().as_tuple()
    return "".join(map(str, digits)), len(digits) + exponent


def test_the_formatter_is_repr_in_every_layout(compiled):
    # every shortest digit count at every decimal point from 0.000000d to
    # d...d00.0 and d.de+17, across both edges of fixed notation (-4, 16)
    rng = random.Random(26)
    values = []
    for n in range(1, 18):
        for point in range(-6, 19):
            while True:  # a 16- or 17-digit text may not be the shortest of its double
                digits = str(rng.randrange(10 ** (n - 1), 10 ** n))
                x = float(f"0.{digits}e{point}")
                if digits[-1] != "0" and _digits_and_point(x) == (digits, point):
                    break
            values.append(x)
    assert len(values) == 17 * 25
    # trailing zeros that end inside or across the 8-digit blocks of the digits
    values += [1.00000001, 1.0000001, 123456780000000.0, 12345678900000.0, 1e16 - 2, 1e15 + 1,
               100000001.0, 10000000000000001e-32, 0.1, 0.5, 1.0, 10.0, 1e8, 1e-5, 1e22]
    assert _not_repr(values + [-x for x in values]) == []


def test_the_row_writer_fills_its_bound_on_the_widest_row(compiled):
    n = 3
    steps = np.full(n, -(2**63), np.int64)
    sector = np.full(n, -128, np.int8)
    coords = np.full((n, 3), -2.2250738585072014e-308)
    text = kernel.rows_run(_VALUES, ", ", steps, coords, coords[:, 0], sector)
    # the bound, less the 16 bytes an int8 leaves of its INT_WIDTH
    row = len(_VALUES) - 12 + 4 * kernel.FLOAT_WIDTH + 2 * kernel.INT_WIDTH - 16
    assert len(text) == n * row + (n - 1) * 2
    assert text == ", ".join([_VALUES % (-(2**63), *[-2.2250738585072014e-308] * 4, -128)] * n)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_the_row_writer_declines_non_finite_values(compiled, bad):
    coords = np.full((2, 3), 0.5)
    coords[1, 2] = bad
    zeros = np.zeros(2, np.int64)
    assert kernel.rows_run(_VALUES, "", zeros, coords, coords[:, 0], zeros.astype(np.int8)) is None
    # in each column, from the first row on (a NaN there has the bits a
    # column holds before its first value) or repeated from the second
    zeros = np.zeros(3, np.int64)
    for column, first, template in itertools.product(range(4), (0, 1), (_VALUES, "%d%r%r%r%r%d")):
        rows = np.full((3, 4), 0.5)
        rows[first:, column] = bad
        assert kernel.rows_run(template, "", zeros, rows[:, :3], rows[:, 3],
                               zeros.astype(np.int8)) is None


# A text the row writer reuses: values that repeat the row above, by column.
_A, _B = 0.30000000000000004, -2.2250738585072014e-308


def _rows_are_percent(template, sep, rows):
    """The row writer's text of ``rows`` (four doubles each) against
    ``template % row`` joined by ``sep``."""
    v = np.asarray(rows, np.float64).reshape(-1, 4)
    steps = np.arange(len(v), dtype=np.int64)
    sector = (steps % 7).astype(np.int8)
    got = kernel.rows_run(template, sep, steps, v[:, :3], v[:, 3], sector)
    want = sep.join([template % row for row in zip(steps.tolist(), *v.T.tolist(),
                                                   sector.tolist())])
    return got == want


# the literal around the values: none, short rows (a reused text lies less
# than a copy block before the text it becomes), and pieces longer than two
# blocks
_TEMPLATES = ["%d%r%r%r%r%d", "%d,%r,%r,%r,%r,%d\n", _VALUES,
              "%d" + "+" * 70 + "%r%r" + "-" * 33 + "%r%r" + "." * 64 + "%d" + "~" * 65]


@pytest.mark.parametrize("template", _TEMPLATES)
def test_the_row_writer_repeats_identical_rows(compiled, template):
    for row in ([0.0, 0.0, 0.0, 0.0], [_A, 1e16, 5e-324, 1.0], [_B, _B, -0.0, 1e-5]):
        assert _rows_are_percent(template, ", ", [row] * 40)
        assert _rows_are_percent(template, "", [row] * 40)


@pytest.mark.parametrize("column", range(4))
def test_the_row_writer_tells_zero_from_minus_zero(compiled, column):
    rows = np.full((12, 4), 0.5)
    rows[:, column] = [0.0, -0.0] * 3 + [0.0, 0.0, -0.0, -0.0, 0.0, -0.0]
    assert _not_repr(rows) == []
    rows[:, (column + 1) % 4] = -rows[:, column]  # the other sign in the next column
    assert _not_repr(rows) == []


def test_the_row_writer_reuses_by_column(compiled):
    # A, A, B, A down each column, a column at a time and all at once, and
    # the same double in two columns of a row
    for column in range(4):
        rows = np.full((4, 4), 0.25)
        rows[:, column] = [_A, _A, _B, _A]
        assert _not_repr(rows) == []
    assert _not_repr([[_A] * 4, [_A] * 4, [_B] * 4, [_A] * 4]) == []
    assert _not_repr([[_A, _A, _B, _B], [_B, _A, _A, _B], [_B, _B, _A, _A], [_A, _B, _B, _A]]) == []
    # texts of every length, drawn with repeats from a few values per column
    pool = np.array([_A, _B, 0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, 1.7976931348623157e308, 3.0])
    draws = np.random.default_rng(34).integers(0, len(pool), size=(3000, 4))
    draws[1::3] = draws[::3][:len(draws[1::3])]  # whole rows repeated
    assert _not_repr(pool[draws]) == []


@pytest.mark.parametrize("template", ["%d,%r,%r,%r,%d", "%d,%r,%r,%r,%r,%d%%", "%d,%r,%s,%r,%r,%d"])
def test_the_row_writer_takes_only_the_sample_conversions(compiled, template):
    zeros = np.zeros(1, np.int64)
    with pytest.raises(ValueError):
        kernel.rows_run(template, "", zeros, np.zeros((1, 3)), np.zeros(1), zeros.astype(np.int8))


# Every sign regime, --stride 7, and the README's auto run (the first), which
# switches to the log domain at step 74.
_SIMULATE = [
    ["--a", "1", "--b", "1", "--c", "1", "--f-const", "1", "--x0", "0.5,0.3,0.2", "--steps",
     "2000"],
    ["--a=-1", "--b=-0.5", "--c=-0.25", "--f-const", "0.5", "--x0", "0.2,0.3,0.5", "--steps",
     "2000", "--stride", "7"],
    ["--a", "1", "--b=-1", "--c", "1", "--f-const", "0.5", "--x0", "0.3,0.3,0.4", "--steps",
     "3000", "--stride", "7", "--log-domain", "off"],
    ["--a=-0.5", "--b", "0.7", "--c=-0.3", "--f-const", "0.8", "--x0", "0.6,0.3,0.1", "--steps",
     "1500", "--log-domain", "on"],
    # reaches the fixed point as an exact state at step 1027, so that each
    # later row repeats the one above but for its step
    ["--a=-0.6", "--b=-0.3", "--c=-0.9", "--f-const", "0.4", "--x0", "0.1,0.6,0.3", "--steps",
     "1500", "--stride", "1"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", _SIMULATE, ids=["cycling-auto", "interior", "vertex-linear",
                                                 "mixed-log", "interior-converged"])
def test_simulate_writes_the_same_bytes_with_and_without_the_row_writer(compiled, capfd, fmt,
                                                                        args):
    def simulate():
        assert cli.main(["simulate", *args, "--format", fmt]) == 0
        captured = capfd.readouterr()
        assert captured.err == ""
        return captured.out

    # by lines: a failure names the first differing one, where pytest would
    # spend minutes diffing two long texts
    assert simulate().split("\n") == python_loops(simulate).split("\n")


# ---------------------------------------------------------------------------
# build and fallback
# ---------------------------------------------------------------------------

# The README's simulate example (shortened), an auto run that switches at
# step 74; a log run whose split has three terms; an ode-compare; and the
# README's analyze example (shortened) at the top Cesaro order. They run
# every compiled loop.
_ARGVS = [
    ["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1", "--x0", "0.5,0.3,0.2",
     "--steps", "2000", "--stride", "10", "--format", "csv"],
    ["simulate", "--a=-1", "--b", "1", "--c=-1", "--f-const", "0.8", "--x0", "0.3,0.3,0.4",
     "--steps", "1000", "--stride", "7", "--log-domain", "on", "--format", "csv"],
    ["ode-compare", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1", "--x0", "0.5,0.3,0.2",
     "--T", "0.5", "--n-list", "10,100,1000,10000"],
    ["analyze", "--a", "-1", "--b", "-1", "--c=-0.125", "--f-const", "0.3", "--x0", "0.3,0.4,0.3",
     "--steps", "2000", "--cesaro-orders", "32"],
]


def _outputs(capfd):
    out = []
    for argv in _ARGVS:
        assert cli.main(argv) == 0
        captured = capfd.readouterr()
        assert captured.err == ""
        out.append(captured.out)
    return out


def test_the_cli_writes_the_same_bytes_with_and_without_the_kernel(capfd):
    assert _outputs(capfd) == python_loops(_outputs, capfd)


@pytest.mark.parametrize("broken", ["no compiler", "unwritable cache", "source does not compile"])
def test_a_kernel_that_cannot_be_built_leaves_the_python_loops(monkeypatch, tmp_path, capfd, broken):
    want = python_loops(_outputs, capfd)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if broken == "no compiler":
        (tmp_path / "bin").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    elif broken == "unwritable cache":
        (tmp_path / "cache").write_text("a file where the cache directory would be\n")
    else:
        source = tmp_path / "kernel.c"
        source.write_text("this is not C\n")
        monkeypatch.setattr(kernel, "_SOURCE", source)
    monkeypatch.setattr(kernel, "_lib", kernel._UNTRIED)
    assert _outputs(capfd) == want
    assert kernel._lib is None


def test_threads_that_make_the_first_call_together_load_the_kernel_once(monkeypatch):
    loads = []
    both_waiting = threading.Barrier(2)

    def slow_load():
        loads.append(threading.get_ident())
        time.sleep(0.2)  # the other thread calls handle() meanwhile
        return None

    monkeypatch.setattr(kernel, "_load", slow_load)
    monkeypatch.setattr(kernel, "_lib", kernel._UNTRIED)
    got = []

    def first_call():
        both_waiting.wait(timeout=30)
        got.append(kernel.handle())

    threads = [threading.Thread(target=first_call) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert len(loads) == 1 and got == [None, None]
    assert kernel.handle() is None and len(loads) == 1


def test_a_cached_kernel_loads_without_a_compiler(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernel, "_lib", kernel._UNTRIED)
    if kernel.handle() is None:
        pytest.skip("the kernel cannot be built here")
    # the build left one file, under a name keyed by the source and flags
    (built,) = (tmp_path / "simplexflow").iterdir()
    assert built == kernel._cache_path(kernel._SOURCE.read_bytes())
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setattr(kernel, "_lib", kernel._UNTRIED)
    lib = kernel.handle()
    assert lib is not None
    assert _fsum3(lib, 1.0, 2.0**-53, 2.0**-106) == math.fsum((1.0, 2.0**-53, 2.0**-106))
