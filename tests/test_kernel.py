"""The compiled loops against the Python loops, and the build's fallbacks."""
import ctypes
import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from simplexflow import (
    AffineSpeed,
    ConstantSpeed,
    Parameters,
    SimplexPoint,
    cli,
    kernel,
    make_point,
    reference_path,
    vertex_point,
)

from oracles import python_loops

# ---------------------------------------------------------------------------
# fsum
# ---------------------------------------------------------------------------

def _fsum3(lib, *v):
    """The kernel's port of ``math.fsum`` on three values; None where it
    declines, as it does where ``math.fsum`` would not return a finite sum."""
    out = ctypes.c_double()
    if lib.sf_fsum3((ctypes.c_double * 3)(*v), ctypes.byref(out)) != 0:
        return None
    return out.value


_HALF_WAY = [
    (1.0, 2.0**-53, 2.0**-106),     # the half-even correction rounds up
    (1.0, 2.0**-53, -(2.0**-106)),  # ... and here it must not
    (1e16, 1.0, 1e-16),             # CPython's own example for the correction
    (1.0, -(2.0**-54), -(2.0**-107)),
    (2.0**53, 1.0, 2.0**-60),
    (0.1, 0.2, -0.3),
    (1e308, -1e308, 5e-324),
    (0.0, -0.0, 0.0),
]


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


def test_fsum3_declines_what_math_fsum_cannot_sum_finitely(compiled):
    for p in ((math.inf, 1.0, 0.0), (math.nan, 0.0, 0.0), (math.inf, -math.inf, 0.0),
              (1e308, 1e308, 0.0)):
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


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(args=_reference_inputs())
def test_the_compiled_reference_loop_matches_the_python_loop_bit_for_bit(compiled, args):
    assert _endpoint_hex(*args) == python_loops(_endpoint_hex, *args)


# ---------------------------------------------------------------------------
# the shortest round-trip formatter and the row writer
# ---------------------------------------------------------------------------

# Four doubles a row, between two ints, with a literal around each value.
_VALUES = "<%d|%r|%r|%r|%r|%d>"


def _not_repr(values):
    """The rows where the row writer's text of ``values`` (four to a row) is
    not ``repr``'s, as (kernel text, ``%`` text) pairs."""
    v = np.asarray(values, np.float64)
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
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", _SIMULATE, ids=["cycling-auto", "interior", "vertex-linear",
                                                 "mixed-log"])
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
