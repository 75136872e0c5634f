"""The compiled copies of the two steppers and of the RK4 reference loop.

``kernel.c`` transliterates the linear and the log branch of
``dynamics.iterate``'s loop and the loop of ``ode.reference_path``, with the
same operations in the same order, so a run gives the same bits either way.
The log loop calls ``exp``, ``log`` and ``log1p`` from the libm that the
``math`` module calls. It is compiled with the system C compiler on first
use into ``$XDG_CACHE_HOME/simplexflow`` (or ``~/.cache/simplexflow``),
under a name keyed by the source and the flags, and loaded with ``ctypes``;
later processes load the cached file without starting a compiler. Without a
compiler, a writable cache or a successful build, ``handle()`` is None and
the callers run their Python loops, which stay the reference.
"""
from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import zlib
from pathlib import Path

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


def _load():
    try:
        path = _cache_path(_SOURCE.read_bytes())
        if not path.is_file():
            _build(path)
        lib = ctypes.CDLL(str(path))
        double, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
        # sample arrays go as c_int64 and c_double views of their buffers,
        # which cost less to make than a numpy array's ctypes address
        lib.sf_iterate_linear.argtypes = (double, double, double, ptr, ctypes.c_int, double,
                                          ptr, ptr, i64, i64, ctypes.POINTER(i64),
                                          ctypes.POINTER(double))
        lib.sf_iterate_linear.restype = None
        lib.sf_iterate_log.argtypes = (double, double, double, ptr, ctypes.c_int, ptr, ptr, i64,
                                       i64, ctypes.POINTER(i64), ctypes.POINTER(double),
                                       ctypes.POINTER(double))
        lib.sf_iterate_log.restype = None
        lib.sf_rk4.argtypes = (double, double, double, ptr, ctypes.c_int, double, ptr, i64)
        lib.sf_rk4.restype = i64
    # no compiler, no writable cache, a failed build, a file that does not
    # load or lacks a symbol: the Python loops run
    except (OSError, AttributeError):
        return None
    return lib


def linear_run(a, b, c, speed, tiny, x, pos, n_steps, stride, steps, coords):
    """``dynamics.iterate``'s linear loop from the state ``x`` and
    ``pos = (steps done, samples recorded, next sample step)``, writing the
    samples into the int64 array ``steps`` and the float64 array ``coords``.

    ``speed`` is ``(a0, a1, a2, a3, affine)`` from ``dynamics``, or None for
    a speed the kernel does not evaluate; ``tiny`` is the auto threshold, 0
    outside auto mode. Returns the new ``(x, pos)``, where fewer steps done
    than ``n_steps`` leave the next step to the Python loop; or None when
    the kernel does not run.
    """
    lib = None if speed is None else handle()
    if lib is None:
        return None
    xs = (ctypes.c_double * 3)(*x)
    ps = (ctypes.c_int64 * 3)(*pos)
    lib.sf_iterate_linear(a, b, c, (ctypes.c_double * 4)(*speed[:4]), speed[4], tiny, xs, ps,
                          n_steps, stride, ctypes.c_int64.from_buffer(steps),
                          ctypes.c_double.from_buffer(coords))
    return tuple(xs), tuple(ps)


def log_run(a, b, c, speed, x, logs, pos, n_steps, stride, steps, coords, log_rows):
    """``dynamics.iterate``'s log loop from the coordinates ``x`` and their
    logs ``logs``, with ``pos`` as for :func:`linear_run`; samples also
    write their logs into the float64 array ``log_rows``. Returns the new
    ``(x, logs, pos)``, or None as for :func:`linear_run`."""
    lib = None if speed is None else handle()
    if lib is None:
        return None
    state = (ctypes.c_double * 6)(*x, *logs)
    ps = (ctypes.c_int64 * 3)(*pos)
    lib.sf_iterate_log(a, b, c, (ctypes.c_double * 4)(*speed[:4]), speed[4], state, ps, n_steps,
                       stride, ctypes.c_int64.from_buffer(steps),
                       ctypes.c_double.from_buffer(coords), ctypes.c_double.from_buffer(log_rows))
    return tuple(state[:3]), tuple(state[3:]), tuple(ps)


def rk4_run(a, b, c, speed, h, x, n_steps):
    """``ode.reference_path``'s loop from the state ``x`` for up to
    ``n_steps`` steps. Returns ``(x, steps done)``, where fewer than
    ``n_steps`` leave the rest to the Python loop; or None as for
    :func:`linear_run`."""
    lib = None if speed is None else handle()
    if lib is None:
        return None
    xs = (ctypes.c_double * 3)(*x)
    done = lib.sf_rk4(a, b, c, (ctypes.c_double * 4)(*speed[:4]), speed[4], h, xs, n_steps)
    return tuple(xs), done

