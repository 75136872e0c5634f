"""Time the compiled steps: the README table's compiled ns/step rows, the
RK4 row and a linear row whose sums are seldom 1.0.

Usage, from the root of a source checkout:

    python3 tools/step_times.py                          # this checkout's kernel
    python3 tools/step_times.py --against ../parent      # and that one's, interleaved
    python3 tools/step_times.py --steps 2000 --repeats 3

Each row runs ``--steps`` steps (2e5) from (0.5, 0.3, 0.2), endpoint only,
``--repeats`` times (15), and prints one JSON line: the row, its fastest run
in ns per step and its end state. A linear or log row is one
``kernel.iterate_run`` call, on the schedule ``iterate`` builds for a stride
of the whole run, and the RK4 row one ``kernel.rk4_run`` call at h = 1e-3,
each on a ``kernel.Row`` that ``dynamics._kernel_row`` fills. This
checkout's kernel is the one ``kernel.handle()`` loads.

With ``--against CHECKOUT`` the script also builds that checkout's
``kernel.c`` with this checkout's ``kernel._build`` (its ``FLAGS`` and
``LIBS``) into a temporary directory and loads it into the same process with
``kernel.open_library``, with this checkout's signatures, so the other
checkout's compiled functions must take the same arguments as this one's
(the same ABI). Each repeat then runs the row on both kernels,
the first kernel alternating from one repeat to the next, and the line adds
the other kernel's fastest run, the median of the per-repeat ratios (this
over other), the repeats this kernel won and whether the two end states have
the same bits.

The script exits 2 when no C compiler is on the path, or when this
checkout's kernel does not load.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402

from simplexflow import dynamics, kernel  # noqa: E402

START = (0.5, 0.3, 0.2)
H = 1e-3
# (name, kind, (a, b, c), f): the README table's rows, the RK4 row, then a
# linear run whose sums are 1.0 at only 62% of 2e5 steps from START, the
# outcome changing at 43% of them: the fewest in a search of random linear
# runs, where the kernel's unit-sum branch is predicted worst
ROWS = (
    ("linear, (-1, -1, -1), f = 0.5", "linear", (-1.0, -1.0, -1.0), 0.5),
    ("linear, (-1, -1, -1), f = 1e-5", "linear", (-1.0, -1.0, -1.0), 1e-5),
    ("log, (-1, 1, -1), f = 0.5", "log", (-1.0, 1.0, -1.0), 0.5),
    ("log, (1, 1, 1), f = 0.1", "log", (1.0, 1.0, 1.0), 0.1),
    ("log, (1, 1, 1), f = 1", "log", (1.0, 1.0, 1.0), 1.0),
    ("rk4, (-1, -1, -1), f = 0.5, h = 1e-3", "rk4", (-1.0, -1.0, -1.0), 0.5),
    ("linear, (0.49, 0.18, -0.93), f = 0.0057", "linear", (0.49, 0.18, -0.93), 0.0057),
)


def build(checkout: Path, out_dir: Path):
    """The checkout's ``kernel.c`` built as ``kernel._build`` builds this
    checkout's, loaded with this checkout's signatures."""
    path = out_dir / "kernel.so"
    kernel._build(path, checkout / "src" / "simplexflow" / "kernel.c")
    return kernel.open_library(path)


def step_run(lib, kind, abc, f, n_steps):
    """One endpoint-only run through ``kernel.iterate_run`` or
    ``kernel.rk4_run`` with ``lib`` as the loaded kernel: (seconds, end
    state as float.hex)."""
    row = dynamics._kernel_row(kernel.Row(), dynamics.Parameters(*abc), dynamics.ConstantSpeed(f),
                               START, tuple(map(math.log, START)))
    saved, kernel._lib = kernel._lib, lib
    try:
        if kind == "rk4":
            t0 = time.perf_counter()
            end, done = kernel.rk4_run(row, H, n_steps)
            elapsed = time.perf_counter() - t0
        else:
            log_start = kind == "log"
            steps = dynamics._sample_steps(n_steps, n_steps)
            coords = np.zeros((len(steps), 3))
            logs = np.zeros_like(coords) if log_start else None
            t0 = time.perf_counter()
            done, _ = kernel.iterate_run(row, 0.0, log_start, steps, coords, logs,
                                         np.zeros(len(steps), np.int8))
            elapsed = time.perf_counter() - t0
            end = [*coords[-1], *([] if logs is None else logs[-1])]
    finally:
        kernel._lib = saved
    if done != n_steps:
        raise RuntimeError(f"the kernel stopped at step {done} of {n_steps}")
    return elapsed, [float(v).hex() for v in end]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="a checkout whose kernel to compare")
    parser.add_argument("--steps", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if shutil.which("cc") is None:
        print("no C compiler on the path", file=sys.stderr)
        return 2
    this = kernel.handle()
    if this is None:
        print("this checkout's kernel does not load", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        other = None if args.against is None else build(args.against.resolve(), Path(tmp))
        for name, kind, abc, f in ROWS:
            mine, theirs, ends = [], [], {}
            for r in range(args.repeats):
                sides = [("this", this)] if other is None else [("this", this), ("other", other)]
                for side, lib in sides if r % 2 else sides[::-1]:
                    elapsed, ends[side] = step_run(lib, kind, abc, f, args.steps)
                    (mine if side == "this" else theirs).append(elapsed)
            line = {"run": name, "steps": args.steps, "repeats": args.repeats,
                    "ns_per_step": round(min(mine) / args.steps * 1e9, 2), "end": ends["this"]}
            if other is not None:
                line.update(
                    against_ns_per_step=round(min(theirs) / args.steps * 1e9, 2),
                    median_pair_ratio=round(statistics.median(m / t for m, t in zip(mine, theirs)),
                                            3),
                    wins=sum(m < t for m, t in zip(mine, theirs)),
                    bits_agree=ends["this"] == ends["other"])
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
