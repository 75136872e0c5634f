"""Rerun the mutation checks: apply one known fault to a copy of the checkout
and see whether the tests named for it fail.

Usage, from the root of a source checkout:

    python3 tools/mutants.py                        # every mutant in MUTANTS
    python3 tools/mutants.py fsum3-plain-sum ...    # the named mutants

The script first copies the checkout (everything but ``.git`` and caches, so
``README.md`` and ``bench/`` come along) and runs the union of the named
tests on the unmutated copy; if any fails, it stops with exit status 2,
because a failure there would be read as a kill. Then, for each mutant, it
makes a fresh copy, replaces each ``old`` text of the mutant's edits (which
must occur exactly once in its file) by the ``new`` one, and runs the
mutant's tests with ``XDG_CACHE_HOME`` pointing at an empty directory, so
that a mutated ``kernel.c`` or ``kernel.FLAGS`` builds a new kernel. It
prints one JSON line per mutant: its id, ``killed`` or ``survived``, the
number of failing tests and what was expected (``survived`` for an
equivalent mutant). A mutant whose kernel does not build while a C compiler
is on the path reads ``broken``: its tests would fail for that alone. The
exit status is 1 when any result differs from the expected one.

``tests/test_mutants.py`` checks in tier-1 that every ``old`` text occurs
exactly once in the current source, so a change that rewrites mutated code
has to update this table.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_C = "src/simplexflow/kernel.c"
CRITERION_05 = "tests/test_acceptance.py::test_criterion_05_vertex_convergence_reproduction"
POOL_TEST = "tests/test_cli.py::test_sweep_forks_only_from_pool_min_steps"


@dataclass(frozen=True)
class Mutant:
    id: str
    origin: str  # the change whose mutation check first ran it (CHANGES.md)
    file: str
    edits: tuple[tuple[str, str], ...]  # (old, new); each old occurs once in file
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can kill it; expected to survive


FACTOR = "u = 1.0 + (alpha * xp * xq - beta * xr * xr) * fval;"
SWITCH_LOGS = """\
            l1 = x1 > 0.0 ? log(x1) : -INFINITY;
            l2 = x2 > 0.0 ? log(x2) : -INFINITY;
            l3 = x3 > 0.0 ? log(x3) : -INFINITY;"""
LOG_START = "    int64_t log_from = log_start ? 0 : -1;\n"
HEAD_COUNT = "head = np.searchsorted(steps_arr[:k], log_domain_from)"
CESARO_UPDATE = """\
            vk[0] = ((double)n * vk[0] + vk[-3]) * inv;
            vk[1] = ((double)n * vk[1] + vk[-2]) * inv;
            vk[2] = ((double)n * vk[2] + vk[-1]) * inv;"""
# The changes that first ran these mutants, as CHANGES.md names them.
LINEAR_KERNEL = "compiled linear stepper and RK4 reference"
LOG_KERNEL = "compiled log-domain stepper"
CESARO_KERNEL = "compiled Cesaro scan"
ONE_LOOP = "one compiled loop for iterate"
CRITERION_05_MEND = "acceptance criteria 05, 07 and 08 mended"
POOL_THRESHOLD = "sweep pool from POOL_MIN_STEPS requested steps"
ROW_WRITER = "compiled shortest round-trip row writer"
SWEEP_ROW_MEND = "failed sweep rows of 20 fields"
ONE_COPY = "one copy of each formula in kernel.c"

FORMATTER = ("tests/test_kernel.py",)
G_ENTRY = "        halves += (g >> 63, g & ((1 << 63) - 1))"

LINEAR = ("tests/test_dynamics.py", "tests/test_kernel.py")
LOG = ("tests/test_dynamics.py", "tests/test_kernel.py", "tests/test_log_domain_highprec.py")

MUTANTS = (
    # the compiled linear stepper and RK4 reference
    Mutant("linear-regrouped-product", LINEAR_KERNEL, KERNEL_C,
           ((FACTOR, FACTOR.replace("alpha * xp * xq", "alpha * (xp * xq)")),), LINEAR),
    Mutant("fsum3-plain-sum", LINEAR_KERNEL, KERNEL_C,
           (("    int i, j, m, n = 0;\n",
             "    int i, j, m, n = 0;\n\n    *out = v[0] + v[1] + v[2];\n"
             "    return isfinite(*out) ? 0 : -1;\n"),), LINEAR),
    Mutant("fsum3-no-half-even-correction", LINEAR_KERNEL, KERNEL_C,
           (("if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {",
             "if (0) {"),), LINEAR),
    Mutant("fma-build", LINEAR_KERNEL, "src/simplexflow/kernel.py",
           (('"-ffp-contract=off", "-fno-fast-math"', '"-mfma", "-ffp-contract=fast"'),), LOG),
    # the compiled log stepper
    Mutant("log1p-as-log", LOG_KERNEL, KERNEL_C,
           (("        u = log1p(t);", "        u = log(1 + t);"),), LOG),
    Mutant("log-sums-plain", LOG_KERNEL, KERNEL_C,
           (("    if (sf_fsum3(e, &s) != 0)\n        return NAN;", "    s = e[0] + e[1] + e[2];"),
            ("    if (sf_fsum3(e, &acc) != 0 || acc <= 0.0)",
             "    acc = e[0] + e[1] + e[2];\n    if (acc <= 0.0)")),
           LOG),
    Mutant("log-steps-compiled-under-a-replaced-log-sum-exp", LOG_KERNEL,
           "src/simplexflow/dynamics.py",
           (("log_sum_exp is simplex.log_sum_exp, (x1,", "True, (x1,"),),
           ("tests/test_dynamics.py", "tests/test_bench_tracer.py")),
    Mutant("log-maxima-right-to-left", LOG_KERNEL, KERNEL_C,
           (("    double m = u, e[3], s;\n\n    if (v > m)\n        m = v;\n    if (w > m)\n"
             "        m = w;",
             "    double m = w, e[3], s;\n\n    if (v > m)\n        m = v;\n    if (u > m)\n"
             "        m = u;"),
            ("    m = t1;\n    if (t2 > m)\n        m = t2;\n    if (t3 > m)\n        m = t3;",
             "    m = t3;\n    if (t2 > m)\n        m = t2;\n    if (t1 > m)\n        m = t1;")),
           LOG,
           equivalent="the order only decides which of two equal values is kept; equal values "
                      "differ at most in the sign of zero, and a zero m gives the same t - m, "
                      "exp(t - m) and m + log(acc); a NaN is handed back before any maximum"),
    # the compiled Cesaro scan
    Mutant("cesaro-divide-in-place-of-inv", CESARO_KERNEL, KERNEL_C,
           ((CESARO_UPDATE, CESARO_UPDATE.replace("* inv;", "/ (double)(n + 1);")),),
           ("tests/test_cesaro.py", "tests/test_cli.py", "tests/test_kernel.py")),
    Mutant("cesaro-one-copy-per-repeated-mark", CESARO_KERNEL, KERNEL_C,
           (("        for (; j < n_at && at[j] == i; j++)\n"
             "            memcpy(out + width * j, v,",
             "        if (j < n_at && at[j] == i)\n"
             "            memcpy(out + width * j++, v,"),),
           ("tests/test_cesaro.py",)),
    Mutant("scan-fallback-one-copy-per-repeated-mark", CESARO_KERNEL, "src/simplexflow/analysis.py",
           (("            while j < len(marks) and marks[j] == i:",
             "            if j < len(marks) and marks[j] == i:"),),
           ("tests/test_cesaro.py",)),
    # one compiled loop with the auto switch
    Mutant("switch-recorded-one-step-early", ONE_LOOP, KERNEL_C,
           (("            log_from = n;", "            log_from = n - 1;"),), LOG),
    Mutant("first-log-sample-one-late", ONE_LOOP, "src/simplexflow/dynamics.py",
           ((HEAD_COUNT, HEAD_COUNT[:-1] + ', side="right")'),), LOG),
    Mutant("switch-logs-by-log1p", ONE_LOOP, KERNEL_C,
           ((SWITCH_LOGS, re.sub(r"log\((x\d)\)", r"log1p(\1 - 1.0)", SWITCH_LOGS)),), LOG),
    Mutant("switch-sample-without-its-logs", ONE_LOOP, KERNEL_C,
           (("    if (log_from >= 0) {", "    if (log_from >= 0 && n != log_from) {"),), LOG),
    # the stepper faults criterion 05 was mended against
    Mutant("slow-species-self-term-at-half-strength", CRITERION_05_MEND, KERNEL_C,
           ((FACTOR, FACTOR.replace("alpha * xp * xq", "0.5 * alpha * xp * xq")),),
           (CRITERION_05,)),
    Mutant("fast-species-decay-at-a-thousandth", CRITERION_05_MEND, KERNEL_C,
           ((FACTOR, FACTOR.replace("beta * xr * xr", "0.001 * beta * xr * xr")),),
           (CRITERION_05,)),
    Mutant("a-and-c-swapped", CRITERION_05_MEND, KERNEL_C,
           ((LOG_START, LOG_START + "    double swap = a;\n\n    a = c;\n    c = swap;\n"),),
           (CRITERION_05,)),
    # the sweep's pool threshold
    Mutant("sweep-pool-at-any-size", POOL_THRESHOLD, "src/simplexflow/cli.py",
           (('    workers = (min(cfg["threads"], _usable_cpus(), len(tasks))\n'
             '               if len(tasks) * cfg["steps"] >= POOL_MIN_STEPS else 1)',
             '    workers = min(cfg["threads"], _usable_cpus(), len(tasks))'),),
           (POOL_TEST,)),
    Mutant("sweep-pool-threshold-reversed", POOL_THRESHOLD, "src/simplexflow/cli.py",
           (('>= POOL_MIN_STEPS else 1)', '< POOL_MIN_STEPS else 1)'),), (POOL_TEST,)),
    # the compiled row writer and its shortest round-trip formatter
    Mutant("formatter-ties-up", ROW_WRITER, KERNEL_C,
           (("vb < 4 * s + 2 || (vb == 4 * s + 2 && !(s & 1)) ? s : s + 1",
             "vb < 4 * s + 2 ? s : s + 1"),), FORMATTER),
    Mutant("formatter-fixed-up-to-exponent-16", ROW_WRITER, KERNEL_C,
           (("if (-4 < point && point <= 16) {", "if (-4 < point && point <= 17) {"),),
           FORMATTER),
    Mutant("pow10-entry-high-bits", ROW_WRITER, "src/simplexflow/kernel.py",
           ((G_ENTRY, "        g += (k == -17) << 64\n" + G_ENTRY),), FORMATTER),
    Mutant("pow10-entry-low-bit", ROW_WRITER, "src/simplexflow/kernel.py",
           ((G_ENTRY, "        g += k == -17\n" + G_ENTRY),), FORMATTER,
           equivalent="g already lies up to one unit above 10^-k 2^-r; a second unit moves "
                      "g cp / 2^127 by less than 2^-67, below the 63 fraction bits that "
                      "round_to_odd keeps, so no comparison changes (no mismatch with repr on "
                      "1e7 random bit patterns, the edge values or 1e6 values of k = -17)"),
    # the kernel's shared helpers
    Mutant("linear-dead-species-updated", ONE_COPY, KERNEL_C,
           (("    if (xp == 0.0) {\n        *out = 0.0;\n        return 1;\n    }\n    u = 1.0",
             "    u = 1.0"),), ("tests/test_dynamics.py",)),
    Mutant("two-value-sum-with-a-live-third-term", ONE_COPY, KERNEL_C,
           (("log_sum_exp(lp, lq, -INFINITY)", "log_sum_exp(lp, lq, lr)"),), LOG),
    Mutant("dead-third-term-through-exp", ONE_COPY, KERNEL_C,
           (("    e[2] = w == -INFINITY ? 0.0 : exp(w - m);", "    e[2] = exp(w - m);"),), LOG,
           equivalent="exp(-inf - m) is +0.0 for every m above -inf, the value the shortcut "
                      "stores; the mutant only spends a libm call on each two-value sum and "
                      "on each log step with a dead species"),
    # the failed sweep row
    Mutant("sweep-failed-row-of-19-fields", SWEEP_ROW_MEND, "src/simplexflow/cli.py",
           (('_SWEEP_START + "," * 11 + "%s"', '_SWEEP_START + "," * 10 + "%s"'),),
           ("tests/test_cli.py::test_sweep_zero_parameter_row_tolerated",
            "tests/test_cli.py::test_sweep_with_an_underflowing_weight_writes_no_warning")),
)

_NOT_COPIED = shutil.ignore_patterns(".git", ".cache", "__pycache__", ".pytest_cache",
                                     ".hypothesis", ".benchmarks", ".bench_work", "*.egg-info",
                                     "build")


def apply(mutant: Mutant, root: Path) -> None:
    """Apply the mutant's edits to the checkout at root."""
    path = root / mutant.file
    text = path.read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise ValueError(f"{mutant.id}: an old text occurs {text.count(old)} times "
                             f"in {mutant.file}")
        text = text.replace(old, new)
    path.write_text(text)


def _python(root: Path, *args) -> subprocess.CompletedProcess:
    """Python in the checkout at root, with its own kernel cache."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), XDG_CACHE_HOME=str(root / ".cache"))
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          text=True)


def kernel_builds(root: Path) -> bool:
    """Whether the checkout's kernel builds and loads, or no compiler is on the path."""
    code = "import shutil, sys; from simplexflow import kernel; " \
           "sys.exit(kernel.handle() is None and shutil.which('cc') is not None)"
    return _python(root, "-c", code).returncode == 0


def run_tests(root: Path, tests) -> tuple[int, int]:
    """pytest's exit code and the number of failed or erroring tests."""
    done = _python(root, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests)
    tail = done.stdout.strip().splitlines()[-1:] or [""]
    failing = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", tail[0]))
    return done.returncode, failing


def main(ids) -> int:
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "unmutated"
        shutil.copytree(ROOT, base, ignore=_NOT_COPIED)
        tests = sorted({t for m in chosen for t in m.tests})
        code, failing = run_tests(base, tests)
        if code != 0:
            print(f"the unmutated copy fails {failing} of the named tests (pytest exit {code})",
                  file=sys.stderr)
            return 2
        status = 0
        for mutant in chosen:
            copy = Path(tmp) / mutant.id
            shutil.copytree(base, copy, ignore=_NOT_COPIED)  # no kernel cache either
            apply(mutant, copy)
            t0 = time.perf_counter()
            if not kernel_builds(copy):
                code, failing, result = None, None, "broken"  # a kill would say nothing
            else:
                code, failing = run_tests(copy, mutant.tests)
                result = "killed" if code != 0 else "survived"
            expected = "survived" if mutant.equivalent else "killed"
            status |= result != expected
            print(json.dumps({"id": mutant.id, "origin": mutant.origin, "result": result,
                              "failing": failing, "expected": expected,
                              "seconds": round(time.perf_counter() - t0, 1)}), flush=True)
            shutil.rmtree(copy)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
