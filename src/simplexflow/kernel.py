"""The compiled copies of ``iterate``'s loop, the RK4 reference loop and the
Cesàro push, and the compiled row writer of ``simulate``.

``kernel.c`` transliterates three Python loops: ``dynamics.iterate``'s loop
with its linear and log branches and the auto switch between them, the loop
of ``ode.reference_path`` and ``analysis.CesaroState.push``, with the same
operations in the same order, so a run gives the same bits either way.
The switch and the log steps call ``log``, ``exp`` and ``log1p`` from the
libm that the ``math`` module calls. Its row writer fills a sample template
with a shortest round-trip formatter (Schubfach) that writes ``repr``'s
text of each float; the formatter's powers of ten are computed here, with
exact integers, when the library loads. It is compiled with the system C
compiler on first use into ``$XDG_CACHE_HOME/simplexflow`` (or
``~/.cache/simplexflow``), under a name keyed by the source and the flags,
and loaded with ``ctypes``; later processes load the cached file without
starting a compiler. Without a compiler, a writable cache or a successful
build, ``handle()`` is None and the callers run their Python loops, which
stay the reference.
"""
from __future__ import annotations

import ctypes
import itertools
import os
import re
import shutil
import tempfile
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("kernel.c")
# Contracting a*b + c into a fused multiply-add or reassociating a sum moves
# bits, and so would code tuned for the building CPU (no -march=native).
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
LIBS = ("-lm",)

_UNTRIED = object()
_lib = _UNTRIED  # the loaded library, None when unavailable


def handle():
    """The loaded kernel, or None. Built or loaded on the first call only."""
    global _lib
    if _lib is _UNTRIED:
        _lib = _load()
    return _lib


def _cache_path(source: bytes) -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    # zlib is loaded already; hashlib would map OpenSSL into the process
    keyed = source + "\0".join(FLAGS + LIBS).encode()
    return Path(base) / "simplexflow" / f"kernel-{zlib.crc32(keyed):08x}{zlib.adler32(keyed):08x}.so"


def _build(path: Path) -> None:
    """Compile the source to ``path`` through a temporary file in its
    directory, so a concurrent build never exposes a partial file."""
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler on the path")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        try:
            subprocess.run([cc, *FLAGS, "-o", tmp, str(_SOURCE), *LIBS], capture_output=True,
                           stdin=subprocess.DEVNULL, timeout=120, check=True)
        except subprocess.SubprocessError as exc:
            raise OSError(f"cannot build {_SOURCE.name}: {exc}") from exc
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_D, _I64, _P = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
# (restype, argtypes) of each symbol the callers use; sample arrays go as
# c_int64 and c_double views of their buffers, which cost less to make than a
# numpy array's ctypes address
_SIGNATURES = {
    "sf_iterate": (None, (_D, _D, _D, _P, _D, ctypes.c_int, _P, ctypes.c_int, _I64, _I64,
                          ctypes.POINTER(_I64), ctypes.POINTER(_D), ctypes.POINTER(_D), _P)),
    "sf_rk4": (_I64, (_D, _D, _D, _P, _D, _P, _I64)),
    "sf_cesaro": (_I64, (_I64, ctypes.c_int, _P, _P, _I64, _P, _I64, _P)),
    "sf_set_pow10": (None, (_P,)),
    "sf_rows": (_I64, (ctypes.c_char_p, _P, ctypes.c_char_p, _I64, _I64, _P, _P, _P, _P, _P)),
}


def _load():
    try:
        path = _cache_path(_SOURCE.read_bytes())
        if not path.is_file():
            _build(path)
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _SIGNATURES.items():
            symbol = getattr(lib, name)
            symbol.restype, symbol.argtypes = restype, argtypes
        lib.sf_set_pow10(_pow10_table())
    # no compiler, no writable cache, a failed build, a file that does not
    # load or lacks a symbol: the Python loops run
    except (OSError, AttributeError):
        return None
    return lib


POW10_KMIN, POW10_KMAX = -324, 292  # floor(log10(2^q)) at the least and largest double


def _pow10_table():
    """``kernel.c``'s g(k) for k = POW10_KMIN..POW10_KMAX, each as its high and
    low 63 bits: ``floor(10^-k 2^(125 - floor(log2 10^-k))) + 1``, the first
    integer above 10^-k scaled into [2^125, 2^126), from exact integers."""
    halves = []
    for k in range(POW10_KMIN, POW10_KMAX + 1):
        if k <= 0:
            p = 10 ** -k
            shift = 125 - (p.bit_length() - 1)
            g = (p << shift if shift >= 0 else p >> -shift) + 1
        else:  # 10^k is not a power of two, so floor(log2 10^-k) = -bit_length
            d = 10 ** k
            g = (1 << (125 + d.bit_length())) // d + 1
        halves += (g >> 63, g & ((1 << 63) - 1))
    return (ctypes.c_uint64 * len(halves))(*halves)


def iterate_run(a, b, c, speed, tiny, log_ok, state, log_start, n_steps, stride, steps, coords,
                logs):
    """``dynamics.iterate``'s loop from the start ``state = (x1, x2, x3, l1,
    l2, l3)``, in the log domain from step 0 when ``log_start`` is true,
    writing the samples after sample 0 (the start, the caller's) into the
    int64 array ``steps``, the float64 array ``coords`` and, in the log
    domain, the float64 array ``logs`` (None for a linear run).

    ``speed`` is ``(a0, a1, a2, a3)`` from ``dynamics``, or None for a speed
    the kernel does not evaluate; ``tiny`` is the auto threshold, 0 outside
    auto mode; the log steps run only when ``log_ok`` is true. Returns the
    new ``(state, (steps done, samples recorded, next sample step,
    log_domain_from or -1))``, where fewer steps done than ``n_steps`` leave
    the next step to the Python loop; or None when the kernel does not run.
    """
    lib = None if speed is None else handle()
    if lib is None:
        return None
    st = (ctypes.c_double * 6)(*state)
    rec = (ctypes.c_int64 * 4)()
    lib.sf_iterate(a, b, c, (ctypes.c_double * 4)(*speed), tiny, log_ok, st, log_start, n_steps,
                   stride, ctypes.c_int64.from_buffer(steps), ctypes.c_double.from_buffer(coords),
                   None if logs is None else ctypes.c_double.from_buffer(logs), rec)
    return tuple(st), tuple(rec)


def rk4_run(a, b, c, speed, h, x, n_steps):
    """``ode.reference_path``'s loop from the state ``x`` for up to
    ``n_steps`` steps. Returns ``(x, steps done)``, where fewer than
    ``n_steps`` leave the rest to the Python loop; or None as for
    :func:`iterate_run`."""
    lib = None if speed is None else handle()
    if lib is None:
        return None
    xs = (ctypes.c_double * 3)(*x)
    done = lib.sf_rk4(a, b, c, (ctypes.c_double * 4)(*speed), h, xs, n_steps)
    return tuple(xs), done


def cesaro_run(n, values, coords, at, out):
    """``analysis.CesaroState.push`` over the rows of the C-contiguous float64
    array ``coords`` (shape ``(m, 3)``) from the state after push ``n`` with
    the order-k values in ``values[k]``. After the push of row ``at[j]``
    (an ascending C-contiguous int64 array) every order's values go to
    ``out[j]``, a C-contiguous float64 array of shape ``(len(at), K+1, 3)``.
    Returns the new ``(n, values)``, or None when the kernel does not run."""
    lib = handle()
    if lib is None:
        return None
    flat = [v for row in values for v in row]
    vs = (ctypes.c_double * len(flat))(*flat)
    n = lib.sf_cesaro(n, len(values) - 1, vs, coords.ctypes.data, len(coords), at.ctypes.data,
                      len(at), out.ctypes.data)
    return n, [vs[i:i + 3] for i in range(0, len(flat), 3)]


FLOAT_WIDTH = 24  # the longest repr of a finite double, -2.2250738585072014e-308
INT_WIDTH = 20    # the longest int64, -9223372036854775808
_CONVERSIONS = ["%d", "%r", "%r", "%r", "%r", "%d"]


def rows_run(template, sep, steps, coords, phi, sector):
    """``sep.join([template % row for row in rows])`` over the samples' rows
    ``(steps[i], *coords[i], phi[i], sector[i])``, written in one call:
    ``template`` holds the conversions ``%d %r %r %r %r %d`` in that order
    and no other ``%``, and the text around them is copied as it stands. Returns None when the
    kernel does not run or a value is not finite."""
    lib = handle()
    if lib is None:
        return None
    pieces = re.split("(%.)", template)
    if pieces[1::2] != _CONVERSIONS:
        raise ValueError(f"a sample template needs the conversions {' '.join(_CONVERSIONS)}")
    literal = "".join(pieces[0::2]).encode("ascii")
    offsets = (ctypes.c_int64 * 8)(0, *itertools.accumulate(len(p) for p in pieces[0::2]))
    n = len(steps)
    steps = np.ascontiguousarray(steps, np.int64)
    coords = np.ascontiguousarray(coords, np.float64)
    phi = np.ascontiguousarray(phi, np.float64)
    sector = np.ascontiguousarray(sector, np.int8)
    if coords.shape != (n, 3) or phi.shape != (n,) or sector.shape != (n,):
        raise ValueError("the sample arrays differ in length")
    row = len(literal) + 4 * FLOAT_WIDTH + 2 * INT_WIDTH
    buf = np.empty(n * row + max(n - 1, 0) * len(sep), np.uint8)
    size = lib.sf_rows(literal, offsets, sep.encode("ascii"), len(sep), n, steps.ctypes.data,
                       coords.ctypes.data, phi.ctypes.data, sector.ctypes.data, buf.ctypes.data)
    if size < 0:
        return None
    return str(memoryview(buf)[:size], "ascii")
