"""The compiled copies of ``iterate``'s loop, with its summary mode for sweep
rows run on threads of the library's own, the RK4 reference loop and the
Cesàro push, and the compiled row writer of ``simulate``.

``kernel.c`` transliterates three Python loops: ``dynamics.iterate``'s loop
with its linear and log branches and the auto switch between them, the loop
of ``ode.reference_path`` and ``analysis.CesaroState.push``, with the same
operations in the same order, so a run gives the same bits either way.
Their ``math.fsum`` of three values is ``sf_fsum3``, a sum correctly
rounded by rounding to odd, whose bits are ``math.fsum``'s.
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
import threading
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("kernel.c")
# Contracting a*b + c into a fused multiply-add or reassociating a sum moves
# bits, and so would code tuned for the building CPU (no -march=native).
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-pthread", "-shared", "-fPIC")
LIBS = ("-lm",)

_UNTRIED = object()
_lib = _UNTRIED  # the loaded library, None when unavailable
_loading = threading.Lock()


def handle():
    """The loaded kernel, or None. Built or loaded once, on the first call."""
    global _lib
    if _lib is _UNTRIED:
        with _loading:  # threads that make the first call together load it once
            if _lib is _UNTRIED:
                _lib = _load()
    return _lib


def _cache_path(source: bytes) -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    # zlib is loaded already; hashlib would map OpenSSL into the process
    keyed = source + "\0".join(FLAGS + LIBS).encode()
    return Path(base) / "simplexflow" / f"kernel-{zlib.crc32(keyed):08x}{zlib.adler32(keyed):08x}.so"


def _build(path: Path, source: Path | None = None) -> None:
    """Compile ``source`` (this package's ``kernel.c`` when None) to ``path``
    through a temporary file in its directory, so a concurrent build never
    exposes a partial file."""
    import subprocess

    source = _SOURCE if source is None else source
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler on the path")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        try:
            subprocess.run([cc, *FLAGS, "-o", tmp, str(source), *LIBS], capture_output=True,
                           stdin=subprocess.DEVNULL, timeout=120, check=True)
        except subprocess.SubprocessError as exc:
            raise OSError(f"cannot build {source.name}: {exc}") from exc
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_D, _I8, _I64, _P = ctypes.c_double, ctypes.c_int8, ctypes.c_int64, ctypes.c_void_p


class Row(ctypes.Structure):
    """``kernel.c``'s ``struct sf_row``: one compiled run of :func:`iterate_run`,
    :func:`rk4_run` or :func:`iterate_rows`, filled by ``dynamics._kernel_row``
    with the parameters ``a, b, c``, the speed ``sp``, the start in
    ``coords[:3]`` (and ``logs[:3]`` for a log start) and
    ``Parameters.lambdas`` and ``Parameters.log_lambdas`` in ``lam``. An
    iterate run writes its record ``rec``, ``(steps done, log_domain_from or
    -1)``; an RK4 run's end state and a row's final state go to
    ``coords[3:]`` (and ``logs[3:]``). A row also takes the window's first
    state ``tail_from`` and gets what it reads of its run (``entries``,
    ``failed``, and each coordinate's least (``lo``) and greatest (``hi``)
    value from state ``tail_from`` on). It holds no address."""

    _fields_ = [("a", _D), ("b", _D), ("c", _D), ("sp", _D * 4), ("coords", _D * 6),
                ("logs", _D * 6), ("lam", _D * 6),
                ("tail_from", _I64), ("lo", _D * 3), ("hi", _D * 3), ("entries", _I64 * 7),
                ("sector", _I64), ("failed", _I64), ("rec", _I64 * 2)]


# (restype, argtypes) of each symbol the callers use; sample arrays go as
# c_int64 and c_double views of their buffers, which cost less to make than a
# numpy array's ctypes address
_SIGNATURES = {
    "sf_iterate": (None, (ctypes.POINTER(Row), _D, ctypes.c_int, ctypes.POINTER(_I64), _I64,
                          ctypes.POINTER(_D), ctypes.POINTER(_D), ctypes.POINTER(_I8))),
    "sf_iterate_rows": (None, (ctypes.POINTER(Row), _I64, _I64, _D, ctypes.POINTER(_I64), _I64)),
    "sf_rk4": (_I64, (ctypes.POINTER(Row), _D, _I64)),
    "sf_cesaro": (_I64, (_I64, ctypes.c_int, _P, _P, _I64, _P, _I64, _P)),
    "sf_set_pow10": (None, (_P,)),
    "sf_rows": (_I64, (ctypes.c_char_p, _P, ctypes.c_char_p, _I64, _I64, _P, _P, _P, _P, _P)),
}


def _load():
    try:
        path = _cache_path(_SOURCE.read_bytes())
        if not path.is_file():
            _build(path)
        return open_library(path)
    # no compiler, no writable cache, a failed build, a bad library file: the Python loops run
    except (OSError, AttributeError):
        return None


def open_library(path):
    """The built kernel at ``path``, loaded with the callers' signatures."""
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        symbol = getattr(lib, name)
        symbol.restype, symbol.argtypes = restype, argtypes
    lib.sf_set_pow10(_pow10_table())
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


def iterate_run(row, tiny, log_start, steps, coords, logs, sectors):
    """``dynamics.iterate``'s loop of the run ``row``, a :class:`Row`, from
    its start, in the log domain from step 0 when ``log_start`` is true. The
    state after step ``steps[k]`` (``steps`` from ``dynamics._sample_steps``)
    goes to row k >= 1 of the float64 arrays ``coords`` and, in the log
    domain, ``logs`` (None for a linear run); row 0, the start, is the caller's.
    Every sample's sector, the start's included, goes to the int8 array
    ``sectors``: ``analysis.sector_array``'s rule on the row's ``lam``, 0 for
    a sample with a NaN.

    ``row`` is None for a speed the kernel does not evaluate; ``tiny`` is the
    auto threshold, 0 outside auto mode. Returns the row's record ``rec``,
    ``(steps done, log_domain_from or -1)``, where fewer steps done than
    ``steps[-1]`` mean that the loop stopped at a step it does not copy and
    the whole request goes to the Python loop; or None when the kernel does
    not run.
    """
    lib = None if row is None else handle()
    if lib is None:
        return None
    lib.sf_iterate(row, tiny, log_start, _I64.from_buffer(steps), len(steps),
                   _D.from_buffer(coords), None if logs is None else _D.from_buffer(logs),
                   _I8.from_buffer(sectors))
    return tuple(row.rec)


def iterate_rows(rows, workers, tiny, steps):
    """:func:`iterate_run` in auto mode (threshold ``tiny``) from the linear
    start of each :class:`Row` of the ctypes array ``rows``, on a schedule
    ``steps`` of at most two samples, each run also summarized, on the
    calling thread and up to ``workers - 1`` helper threads of the library's
    own, which take the rows in index order from one counter. A row's
    summary counts the start and every step after it: ``failed`` is set once
    a state fails a check of ``cli._validate_samples``, ``entries[k]`` counts
    the entries into sector k as ``analysis.sector_entries`` does (a
    log-domain state's sector from its logs, a linear one's from its
    coordinates), and ``lo`` and ``hi`` take each coordinate's least and
    greatest value over the states from ``tail_from`` on. The GIL is
    released for the whole call, and it returns once every row has run; a
    helper that has taken no row may still be leaving. Call it only where
    :func:`handle` is not None."""
    handle().sf_iterate_rows(rows, len(rows), workers, tiny, _I64.from_buffer(steps), len(steps))


def rk4_run(row, h, n_steps):
    """``ode.reference_path``'s loop of the run ``row`` from its start
    ``coords[:3]`` for up to ``n_steps`` steps. Returns ``(end state, steps
    done)``, the end state as the run leaves it in ``coords[3:]``, where
    fewer than ``n_steps`` send the whole request to the Python loop; or
    None as for :func:`iterate_run`."""
    lib = None if row is None else handle()
    if lib is None:
        return None
    done = lib.sf_rk4(row, h, n_steps)
    return tuple(row.coords[3:]), done


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
BLOCK = 32        # kernel.c's BLOCK: the width of the writer's copies
_CONVERSIONS = ["%d", "%r", "%r", "%r", "%r", "%d"]


def rows_run(template, sep, steps, coords, phi, sector):
    """``sep.join([template % row for row in rows])`` over the samples' rows
    ``(steps[i], *coords[i], phi[i], sector[i])``, written in one call:
    ``template`` holds the conversions ``%d %r %r %r %r %d`` in that order
    and no other ``%``, and the text around them is copied as it stands. Returns None when the
    kernel does not run or a value is not finite.

    The writer copies fixed blocks of ``BLOCK`` bytes, up to ``BLOCK - 1``
    past the end of a run, so the literal text goes with ``BLOCK`` NUL
    bytes after it, and the output buffer has ``BLOCK`` bytes past the
    rows' bound."""
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
    buf = np.empty(n * row + max(n - 1, 0) * len(sep) + BLOCK, np.uint8)
    size = lib.sf_rows(literal + bytes(BLOCK), offsets, sep.encode("ascii"), len(sep), n,
                       steps.ctypes.data, coords.ctypes.data, phi.ctypes.data, sector.ctypes.data,
                       buf.ctypes.data)
    if size < 0:
        return None
    return str(memoryview(buf)[:size], "ascii")
