"""The compiled loops against the Python loops, and the build's fallbacks."""
import ctypes
import math
import random

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
# build and fallback
# ---------------------------------------------------------------------------

# The README's simulate example (shortened), an auto run that switches at
# step 74; a log run whose split has three terms; and an ode-compare. They
# run every compiled loop.
_ARGVS = [
    ["simulate", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1", "--x0", "0.5,0.3,0.2",
     "--steps", "2000", "--stride", "10", "--format", "csv"],
    ["simulate", "--a=-1", "--b", "1", "--c=-1", "--f-const", "0.8", "--x0", "0.3,0.3,0.4",
     "--steps", "1000", "--stride", "7", "--log-domain", "on", "--format", "csv"],
    ["ode-compare", "--a", "1", "--b", "1", "--c", "1", "--f-const", "1", "--x0", "0.5,0.3,0.2",
     "--T", "0.5", "--n-list", "10,100,1000,10000"],
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
