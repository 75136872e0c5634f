"""End-to-end benchmark of the simplexflow CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

One client drives ``simplexflow.cli.main(argv)`` in this process as a
closed loop: the next invocation starts when the previous one returned.
The argument vectors come from the seed (see ``workloads.py``); every
output is checked, and a non-zero exit or a failed check counts as a
failed invocation. The only threads are the sweep's worker pool.

On a shared virtual machine the speed of the cores can drift by 2x over
minutes, because other tenants' work shares them. So every timed call is
bracketed by a fixed calibration loop that is part of the benchmark, not of
the program, and each time is scaled by CAL_NOMINAL_S / (calibration time
nearby): the reported seconds are seconds at the calibration loop's
nominal speed. The unscaled median is printed on an info line.

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` runs one untraced and one traced pass over the seed's inputs
and prints the per-layer metrics plus the tracing overhead. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it describe the
machine, the inputs and the output digests.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
TAIL_BEYOND = 10

from calib import CAL_NOMINAL_S, calibration_s  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402

# Times the import of simplexflow.cli and the parser build, and scales it by
# the median of three calibrations before and three after, taken in the
# child itself: a fresh process's speed follows the core it lands on.
_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from calib import CAL_NOMINAL_S, calibration_s
before = sorted(calibration_s() for _ in range(3))[1]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import simplexflow.cli as cli
cli.build_parser()
dt = time.perf_counter() - t0
after = sorted(calibration_s() for _ in range(3))[1]
print(repr(dt * 2.0 * CAL_NOMINAL_S / (before + after)))
"""


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_cli():
    if not (SRC / "simplexflow" / "cli.py").is_file():
        fail(f"no simplexflow sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from simplexflow import cli

    if Path(cli.__file__).resolve().parent != SRC / "simplexflow":
        fail(f"imported simplexflow from {cli.__file__}, not from {SRC}")
    return cli


def machine_info(seed: int, workload, why: str) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": git_sha(),
        "seed": seed,
        "workload": workload.name,
        "why": why,
        "ranges": workload.ranges,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


class Clock:
    """Times calls and scales each by the host speed measured around it.

    A calibration runs before the first call and after every call; each call
    is scaled by the mean of the two calibrations that bracket it.
    """

    def __init__(self):
        self.cal = [calibration_s()]
        self.raw: list[float] = []

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.raw.append(time.perf_counter() - t0)
        self.cal.append(calibration_s())
        return result

    def factors(self) -> list[float]:
        return [2.0 * CAL_NOMINAL_S / (before + after)
                for before, after in zip(self.cal, self.cal[1:])]

    def scaled(self) -> list[float]:
        return [dt * f for dt, f in zip(self.raw, self.factors())]


def _setup_child() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def measure_setup() -> float:
    """Median scaled seconds for a fresh interpreter to import simplexflow.cli and build its parser."""
    _setup_child()  # also writes the bytecode cache
    return statistics.median(_setup_child() for _ in range(SETUP_RUNS))


class Client:
    """Calls cli.main in-process, captures its output and checks it."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}

    def call(self, argv) -> tuple[int | str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed invocation, not a crash of the run
                rc = f"uncaught {exc!r}"
        if err.getvalue():
            print(f"stderr: {err.getvalue().strip()[:300]}", file=sys.stderr)
        return rc, out.getvalue()

    def record(self, index: int, inv: Invocation, rc, out: str) -> bool:
        """Check one output; a byte difference from an earlier run of the same input also fails."""
        self.attempted += 1
        problems = self.workload.check(inv, rc, out) if isinstance(rc, int) else [rc]
        digest = hashlib.sha256(out.encode()).hexdigest()
        first = self.digests.setdefault(index, digest)
        if first != digest:
            problems.append("output differs from an earlier run of the same input")
        if problems:
            self.failed += 1
            print(f"FAILED input {index}: {'; '.join(problems[:5])}", file=sys.stderr)
        return not problems

    def run(self, clock: Clock, index: int, inv: Invocation, argv=None) -> str:
        rc, out = clock.time(self.call, inv.argv if argv is None else argv)
        self.record(index, inv, rc, out)
        return out

    def warm_up(self, inv: Invocation) -> None:
        """One checked call that fills lazy imports and caches; not counted."""
        self.record(0, inv, *self.call(inv.argv))
        self.attempted = self.failed = 0

    def pool_digest(self, pool) -> str:
        h = hashlib.sha256()
        for k in range(len(pool)):
            if k in self.digests:
                h.update(self.digests[k].encode())
        return h.hexdigest()


def tail(times: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least TAIL_BEYOND samples above it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 0
    ordered = sorted(times)
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = math.ceil(pct * n / 100)
    return ordered[max(rank, 1) - 1], pct


def run_untraced(client: Client, pool, seconds: float) -> dict:
    client.warm_up(pool[0])
    clock = Clock()
    steps = 0
    start = time.perf_counter()
    # At least one pass, so the output digest always covers the whole pool.
    while time.perf_counter() - start < seconds or len(clock.raw) < len(pool):
        i = len(clock.raw) % len(pool)
        client.run(clock, i, pool[i])
        steps += pool[i].steps
    times = clock.scaled()
    tail_s, pct = tail(times)
    print(f"invocations {len(times)}; op_tail_s is p{pct} of {len(times)}; "
          f"error_rate {client.failed / max(1, client.attempted)!r} "
          f"({client.failed}/{client.attempted}); unscaled op_p50_s "
          f"{statistics.median(clock.raw)!r}; median speed factor "
          f"{statistics.median(clock.factors())!r}")
    return {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "steps_per_s": steps / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(client: Client, pool) -> dict:
    from tracer import Tracer

    client.warm_up(pool[0])
    sweep = client.workload.name == "sweep"
    plain, single = Clock(), Clock()
    for i, inv in enumerate(pool):
        client.run(plain, i, inv)
        if sweep:  # same grid and seed on one thread; its output must be byte-identical
            argv = [a for a in inv.argv if not a.startswith("--threads=")] + ["--threads=1"]
            client.run(single, i, inv, argv)

    tracer = Tracer()

    def traced_call(i, argv):
        span = tracer.invocation(i)
        try:
            return client.call(argv)
        finally:
            tracer.end(span)

    traced = Clock()
    out_bytes = rows = error_tokens = 0
    tracer.install()
    try:
        for i, inv in enumerate(pool):
            rc, out = traced.time(traced_call, i, inv.argv)
            client.record(i, inv, rc, out)
            out_bytes += len(out.encode())
            if sweep:
                lines = out.splitlines()[1:]
                rows += len(lines)
                error_tokens += sum(1 for line in lines if not line.endswith(","))
    finally:
        tracer.uninstall()
    factor = statistics.median(traced.factors())
    m = {k: v * factor if k.endswith("_s") or ".ns_per_" in k else v
         for k, v in tracer.metrics().items()}
    m["cli.output_bytes"] = out_bytes
    m["cli.output_mb_per_s"] = out_bytes / 1e6 / m["cli.self_s"]
    m["cli.sweep_rows"] = rows
    m["cli.sweep_error_tokens"] = error_tokens
    m["cli.sweep_thread_speedup"] = sum(single.scaled()) / sum(plain.scaled()) if sweep else 0.0
    m["trace.overhead"] = sum(traced.scaled()) / sum(plain.scaled())
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = load_cli()
    os.environ.pop("SIMPLEXFLOW_THREADS", None)
    workload = WORKLOADS[args.workload](quick=args.quick)
    pool = workload.pool(args.seed)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print("meta " + json.dumps(machine_info(args.seed, workload, why)))

    client = Client(cli, workload)
    if args.trace:
        values = run_traced(client, pool)
        wanted = spec["per_layer"]
    else:
        setup_s = measure_setup()
        values = run_untraced(client, pool, args.seconds)
        values["setup_s"] = setup_s
        wanted = spec["end_to_end"]
    print(f"outputs sha256 {client.pool_digest(pool)} over {len(client.digests)} "
          f"of {len(pool)} inputs, seed {args.seed}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
