"""Rerun the mutation checks: apply one known fault to a copy of the checkout
and see whether the tests named for it fail.

Usage, from the root of a source checkout:

    python3 tools/mutants.py                                 # every mutant in MUTANTS
    python3 tools/mutants.py fsum3-round-to-odd-dropped ...   # the named mutants

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
is on the path reads ``broken``: its tests would fail for that alone. Each
mutant's build and test runs are stopped after ``TIMEOUT_FACTOR`` times the
unmutated copy's test time; such a mutant reads ``timeout`` and counts as
killed, since a test that hangs does not pass. The exit status is 1 when
any result differs from the expected one.

``tests/test_mutants.py`` checks in tier-1 that every ``old`` text occurs
exactly once in the current source and that every named test is defined,
so a change that rewrites mutated code or renames a named test has to
update this table.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_C = "src/simplexflow/kernel.c"
CRITERION_05 = "tests/test_acceptance.py::test_criterion_05_vertex_convergence_reproduction"
POOL_TEST = "tests/test_cli.py::test_sweep_workers_are_threads_capped_by_cpus_and_rows_that_run"
TIMEOUT_FACTOR = 10  # a mutant's runs may take this many times the unmutated copy's tests


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
HEAD_COUNT = "head = np.searchsorted(steps_arr, log_domain_from)"
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
ROW_WRITER = "compiled shortest round-trip row writer"
SWEEP_ROW_MEND = "failed sweep rows of 20 fields"
ONE_COPY = "one copy of each formula in kernel.c"
ONE_SCHEDULE = "one sample schedule"
ONE_SCHEDULE_2 = "one schedule, part 2"
SUMMARY = "sweep rows summarized inside sf_iterate"
WHOLE_RUNS = "compiled loops run a whole request or none of it"
THREADS = "sweep rows on worker threads"
COLUMN_PASSES = "analyze's diagnostics in column passes"
SPREAD = "a sweep row keeps its window's spread"
TWO_DIGITS = "128-bit products and two-digit emission in the compiled formatter"
HELD_COORDS = "log steps read the coordinates they hold"
JSON_WRITER = "one JSON writer for the CLI's documents"
ONE_RECORD = "a sweep row is one record"
NO_THRESHOLD = "sweep threads without a size threshold"
ROUND_TO_ODD = "a branch-free round-to-odd sum for math.fsum"
SPECULATED_SUM = "the three-term sum's rounding correction off the critical path"
FIXED_CALLS = "log steps skip the libm calls whose results are fixed"
SECTOR_SWITCH = "iterate's samples take their sectors in the compiled loop"
REUSED_TEXT = "the row writer reuses the text of a value that repeats the row above"
ORDERING_RULE = "the sector rule as SECTOR_ORDERINGS states it"
RECORDS = "the seven plain result records become NamedTuples"
UNIT_SUM = "a linear or RK4 step whose sum is exactly 1.0 skips its divisions"

FORMATTER = ("tests/test_kernel.py",)
G_ENTRY = "        halves += (g >> 63, g & ((1 << 63) - 1))"
TWO_DIGITS_ROW = '"25262728293031323334353637383940414243444546474849"'  # "25" to "49"

# the body of analysis._require_consecutive_steps, which the audit and gamma0 share
AUDIT_GAP_CHECK = """\
    if np.any(np.diff(traj.steps) != 1):
        raise StrideTooCoarse("audit needs samples at consecutive steps")
"""
AUDIT_TESTS = "tests/test_analysis.py::test_audit_requires_consecutive_steps"
GAMMA0_TESTS = ("tests/test_analysis.py::test_gamma0_and_omega_match_their_earlier_forms",)
OMEGA_TESTS = GAMMA0_TESTS + (
    "tests/test_analysis.py::test_omega_is_the_per_sample_set_on_a_return_and_at_the_smallest_grid",)

SECTOR_OF = """\
    if (y1 >= y2 && y2 >= y3)
        return 1;
    if (y1 >= y3 && y3 >= y2)
        return 2;
    if (y3 >= y1 && y1 >= y2)
        return 3;
    if (y3 >= y2 && y2 >= y1)
        return 4;
    if (y2 >= y3 && y3 >= y1)
        return 5;
    if (y2 >= y1 && y1 >= y3)
        return 6;
"""
LINEAR_SECTOR = "return sector_of(x1 / lam[0], x2 / lam[1], x3 / lam[2]);"
SECTOR_TIE_TESTS = (
    "tests/test_analysis.py::test_sector_table_gives_the_first_ordering_on_every_tie_pattern",
    "tests/test_dynamics.py::test_iterate_hands_back_each_samples_sector_in_its_own_domain")
SUMMARY_TESTS = ("tests/test_summary.py",)

LINEAR = ("tests/test_dynamics.py", "tests/test_kernel.py")
LOG = ("tests/test_dynamics.py", "tests/test_kernel.py", "tests/test_log_domain_highprec.py")
JSON_TESTS = ("tests/test_cli.py::test_json_text_is_json_dumps_of_the_jsonable_value",
              "tests/test_cli.py::test_json_documents_are_the_plain_way_bytes")
TO_ODD = "    bits -= inexact & (bits ^ d_bits) >> 63;\n    bits |= inexact;\n"
ODD_CHECK = "    if (UNLIKELY(odd != *out))\n        *out = odd;\n"
FSUM3_TESTS = ("tests/test_kernel.py::test_fsum3_is_math_fsum_on_half_way_triples",
               "tests/test_kernel.py::test_fsum3_is_math_fsum_over_the_whole_double_range",
               "tests/test_kernel.py::test_fsum3_declines_what_math_fsum_cannot_sum_finitely")
M1_UPDATE = "log_update(&m1, &kept[0], fval, a, l1, l2, b, x1, x2, x3)"
EXP_BELOW = "    return t == m ? 1.0 : t == -INFINITY ? 0.0 : exp(t - m);"

MUTANTS = (
    # the compiled linear stepper and RK4 reference
    Mutant("linear-regrouped-product", LINEAR_KERNEL, KERNEL_C,
           ((FACTOR, FACTOR.replace("alpha * xp * xq", "alpha * (xp * xq)")),), LINEAR),
    Mutant("fma-build", LINEAR_KERNEL, "src/simplexflow/kernel.py",
           (('"-ffp-contract=off", "-fno-fast-math"', '"-mfma", "-ffp-contract=fast"'),), LOG),
    # the three-term sum
    Mutant("fsum3-round-to-odd-dropped", ROUND_TO_ODD, KERNEL_C,
           ((TO_ODD, ""),), FSUM3_TESTS),
    Mutant("fsum3-round-to-odd-away-from-zero", ROUND_TO_ODD, KERNEL_C,
           ((TO_ODD, TO_ODD.replace("bits -=", "bits +=")),), FSUM3_TESTS),
    Mutant("fsum3-overflow-guard-dropped", ROUND_TO_ODD, KERNEL_C,
           (("!(fabs(t) < 0x1p1022) || ", ""),), FSUM3_TESTS),
    Mutant("fsum3-speculation-unchecked", SPECULATED_SUM, KERNEL_C, ((ODD_CHECK, ""),), FSUM3_TESTS),
    # the divisions a unit sum skips: only an exact 1.0 leaves y as it is
    Mutant("unit-sum-within-an-ulp", UNIT_SUM, KERNEL_C,
           (("if (LIKELY(sum == 1.0))", "if (LIKELY(fabs(sum - 1.0) <= 0x1p-52))"),),
           ("tests/test_kernel.py", "tests/test_dynamics.py", "tests/test_summary.py",
            "tests/test_ode.py")),
    Mutant("rk4-unit-sum-within-an-ulp", UNIT_SUM, KERNEL_C,
           (("if (LIKELY(s == 1.0))", "if (LIKELY(fabs(s - 1.0) <= 0x1p-52))"),),
           ("tests/test_kernel.py::"
            "test_the_compiled_reference_loop_matches_the_python_loop_bit_for_bit",
            "tests/test_kernel.py::test_the_cli_writes_the_same_bytes_with_and_without_the_kernel",
            "tests/test_ode.py::"
            "test_vector_field_and_reference_endpoint_match_the_growth_term_form")),
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
           (("or log_sum_exp is simplex.log_sum_exp", "or True"),),
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
    # the sweep's worker count
    Mutant("sweep-workers-capped-by-the-cells", ONE_RECORD, "src/simplexflow/cli.py",
           (('_usable_cpus(), len(valid))', '_usable_cpus(), len(cells))'),),
           (POOL_TEST,)),
    Mutant("sweep-workers-not-capped-by-the-cpus", NO_THRESHOLD, "src/simplexflow/cli.py",
           (('min(cfg["threads"], _usable_cpus(), len(valid))',
             'min(cfg["threads"], len(valid))'),), (POOL_TEST,)),
    # the sweep's rows on the kernel's threads
    Mutant("sweep-runs-misaligned-past-a-failed-row", THREADS, "src/simplexflow/cli.py",
           (("runs.update(zip(valid, dynamics.summarize_rows(",
             "runs.update(enumerate(dynamics.summarize_rows("),),
           ("tests/test_cli.py::test_sweep_rows_are_stored_at_their_grid_index",)),
    Mutant("team-caller-leaves-before-its-helpers-rows", THREADS, KERNEL_C,
           (("    while (t->busy > 0)\n        pthread_cond_wait(&t->idle, &t->mu);\n", ""),),
           ("tests/test_summary.py::test_runs_on_threads_are_the_runs_one_at_a_time",)),
    Mutant("kernel-first-load-unlocked", THREADS, "src/simplexflow/kernel.py",
           (("        with _loading:", "        if True:"),),
           ("tests/test_kernel.py::test_threads_that_make_the_first_call_together_load_the_kernel_once",)),
    Mutant("reference-sum-check-dropped", THREADS, "src/simplexflow/ode.py",
           (("if not 0.0 < abs(s) < math.inf:", "if False:"),),
           ("tests/test_ode.py::test_a_reference_run_off_the_simplex_raises_non_positive_factor",)),
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
    Mutant("formatter-product-shifted-by-63", TWO_DIGITS, KERNEL_C,
           (("(unsigned __int128)a * b >> 64", "(unsigned __int128)a * b >> 63"),), FORMATTER),
    Mutant("formatter-two-digit-entry-46-swapped", TWO_DIGITS, KERNEL_C,
           ((TWO_DIGITS_ROW, TWO_DIGITS_ROW.replace("444546", "444564")),), FORMATTER),
    Mutant("formatter-digit-count-one-short-at-17-digits", TWO_DIGITS, KERNEL_C,
           (("for (s = d; *s == '0'; s++)", "for (s = d + 1; *s == '0'; s++)"),), FORMATTER),
    Mutant("row-reuse-keyed-on-equality", REUSED_TEXT, KERNEL_C,
           (("if (bits == last[j].bits) {",
             "if (x[j] == (union { uint64_t u; double d; }){last[j].bits}.d) {"),), FORMATTER),
    Mutant("row-reuse-slot-bits-without-its-text", REUSED_TEXT, KERNEL_C,
           (("                last[j].at = p - out;\n", ""),), FORMATTER),
    Mutant("row-reuse-ahead-of-the-finite-check", REUSED_TEXT, KERNEL_C,
           (("if (!isfinite(x[j]))\n                return -1;",
             "if (!isfinite(x[j]) && memcmp(&x[j], &last[j].bits, sizeof bits))\n"
             "                return -1;"),), FORMATTER),
    # the kernel's shared helpers
    Mutant("linear-dead-species-updated", ONE_COPY, KERNEL_C,
           (("    if (xp == 0.0) {\n        *out = 0.0;\n        return 1;\n    }\n    u = 1.0",
             "    u = 1.0"),), ("tests/test_dynamics.py",)),
    Mutant("two-value-sum-with-a-live-third-term", ONE_COPY, KERNEL_C,
           (("log_sum_exp(lp, lq, -INFINITY)", "log_sum_exp(lp, lq, log(xr))"),), LOG),
    Mutant("dead-third-term-through-exp", ONE_COPY, KERNEL_C,
           ((EXP_BELOW, EXP_BELOW.replace("t == -INFINITY ? 0.0 : ", "")),), LOG,
           equivalent="exp(-inf - m) is +0.0 for every finite m, the value the shortcut "
                      "stores; the mutant only spends a libm call on each two-value sum and "
                      "on each log step with a dead species"),
    # the log step's direct form on the coordinates it holds, and exp(0) stored
    Mutant("log-update-x2-and-x3-swapped", HELD_COORDS, KERNEL_C,
           ((M1_UPDATE, M1_UPDATE.replace("x1, x2, x3", "x1, x3, x2")),), LOG),
    Mutant("log-update-product-through-exp", HELD_COORDS, KERNEL_C,
           ((M1_UPDATE, M1_UPDATE.replace("x1, x2, x3", "exp(l1 + l2), 1.0, x3")),), LOG),
    Mutant("log-sum-shortcut-below-the-maximum", HELD_COORDS, KERNEL_C,
           ((EXP_BELOW, EXP_BELOW.replace("t == m ?", "t >= m - 1.0 ?")),), LOG),
    Mutant("log-sum-shortcut-removed", HELD_COORDS, KERNEL_C,
           ((EXP_BELOW, EXP_BELOW.replace("t == m ? 1.0 : ", "")),), LOG,
           equivalent="t == m makes t - m a zero for a finite m, and exp(+-0) is 1.0 (C99 "
                      "Annex F), the value the shortcut stores; the mutant only spends a libm "
                      "call on each term at its maximum"),
    # the libm calls a log step skips, and the sectors the compiled loop records
    Mutant("log-sum-skip-margin-20", FIXED_CALLS, KERNEL_C,
           (("#define SUM_IS_ONE_BELOW 40.0", "#define SUM_IS_ONE_BELOW 20.0"),), LOG),
    Mutant("kept-logs-one-slot-for-three-sites", FIXED_CALLS, KERNEL_C,
           (("&kept[1]", "&kept[0]"), ("&kept[2]", "&kept[0]")), LOG),
    Mutant("log-factor-guard-takes-a-zero-f-beta", ORDERING_RULE, KERNEL_C,
           (("if (!(fb > 0.0) ||", "if (!(fb >= 0.0) ||"),), LOG,
           equivalent="fb is +-0 only where f*beta underflows, and Parameters refuses a "
                      "|parameter| below 2^-538 (a weight's product underflows to 0), so only "
                      "at f <= 2^-537; the loop stops at a positive log, so each x_i <= 1 and "
                      "|f*(alpha*x_p*x_q - beta*x_r^2)| <= 2f, never the t <= -0.5 of a "
                      "rebuilt factor (on the simplex x_p*x_q <= 1/4 gives f*beta >= 0.25 "
                      "there); the guard stays, as Python's math.log raises"),
    Mutant("log-factor-python-guard-dropped", RECORDS, "src/simplexflow/dynamics.py",
           (("    if fb <= 0.0 or fval * abs(alpha) <= 0.0:\n", "    if False:\n"),),
           ("tests/test_dynamics.py::"
            "test_a_rebuilt_factor_with_an_underflowed_f_beta_raises_non_positive_factor",)),
    Mutant("switch-sample-sector-from-its-coordinates", SECTOR_SWITCH, KERNEL_C,
           (("state_sector(lam, log_from >= 0, x1, x2, x3, l1, l2, l3);\n    ++*k;",
             "state_sector(lam, log_from >= 0 && n != log_from, x1, x2, x3, l1, l2, l3);\n"
             "    ++*k;"),), LOG),
    # the failed sweep row
    Mutant("sweep-failed-row-of-19-fields", SWEEP_ROW_MEND, "src/simplexflow/cli.py",
           (('_SWEEP_START.count(",")) + "%s"', '_SWEEP_START.count(",") - 1) + "%s"'),),
           ("tests/test_cli.py::test_sweep_zero_parameter_row_tolerated",
            "tests/test_cli.py::test_sweep_with_an_underflowing_weight_writes_no_warning")),
    # the sample schedule both loops record at
    Mutant("schedule-without-its-last-step", ONE_SCHEDULE, "src/simplexflow/dynamics.py",
           (("    steps[-1] = n_steps\n", ""),), ("tests/test_dynamics.py",)),
    Mutant("schedule-stride-unclamped", ONE_SCHEDULE, "src/simplexflow/dynamics.py",
           (("    stride = min(stride, n_steps or 1)\n", ""),),
           ("tests/test_dynamics.py::test_iterate_matches_the_one_step_loop_on_pinned_runs",)),
    Mutant("sample-in-the-row-before", ONE_SCHEDULE, KERNEL_C,
           (("    int64_t j = 3 * *k;\n\n    if (n != steps[*k])",
             "    int64_t j = 3 * (*k - 1);\n\n    if (n != steps[*k])"),), LINEAR),
    # the audit reads the steps it judges
    Mutant("audit-gap-check-dropped", ONE_SCHEDULE_2, "src/simplexflow/analysis.py",
           ((AUDIT_GAP_CHECK, ""),), (AUDIT_TESTS,)),
    Mutant("audit-gap-check-on-the-first-pair-only", ONE_SCHEDULE_2,
           "src/simplexflow/analysis.py",
           ((AUDIT_GAP_CHECK, AUDIT_GAP_CHECK.replace("traj.steps", "traj.steps[:2]")),),
           (AUDIT_TESTS,)),
    Mutant("tail-mass-inf-keeps-the-last-index", ONE_SCHEDULE_2, "src/simplexflow/analysis.py",
           (("math.floor(min(eps, 2.0) * n)", "math.floor(min(eps, 1.0) * n)"),),
           ("tests/test_cesaro.py::test_tail_mass_at_the_ends_of_eps",)),
    Mutant("audit-takes-a-nan-gamma", ONE_SCHEDULE_2, "src/simplexflow/analysis.py",
           (("    if not gamma > 0.0:\n", "    if gamma <= 0.0:\n"),),
           ("tests/test_analysis.py::test_audit_constant_fixed_point",)),
    # the compiled summary of a sweep row, and the sector rule it shares
    Mutant("summary-sector-ties-to-the-highest-index", SUMMARY, KERNEL_C,
           ((SECTOR_OF, "".join(reversed(re.findall(r"    if .*\n        return \d;\n",
                                                     SECTOR_OF)))),), SUMMARY_TESTS),
    Mutant("summary-window-one-state-late", SPREAD, "src/simplexflow/dynamics.py",
           (("tail_from = n_steps + 1 - window", "tail_from = n_steps + 2 - window"),),
           SUMMARY_TESTS),
    Mutant("summary-row-sum-check-dropped", SUMMARY, KERNEL_C,
           (("    if (fabs(x1 + x2 + x3 - 1.0) > 1e-9)\n        sm->failed = 1;\n", ""),),
           SUMMARY_TESTS),
    Mutant("summary-pre-switch-sectors-by-logs", SUMMARY, KERNEL_C,
           ((LINEAR_SECTOR, "return sector_of(log(x1) - lam[3], log(x2) - lam[4], log(x3) - lam[5]);"),),
           SUMMARY_TESTS),
    Mutant("summary-handed-back-row-not-rerun", SUMMARY, "src/simplexflow/dynamics.py",
           (("if not _whole_run(ran, n_steps) or row.failed:",
             "if ran is None or row.failed:"),), SUMMARY_TESTS),
    Mutant("sector-array-pre-switch-rows-by-logs", SUMMARY, "src/simplexflow/analysis.py",
           (("head = int(np.searchsorted(traj.steps, traj.log_domain_from))", "head = 0"),),
           ("tests/test_analysis.py",)),
    # the diagnostics' column passes and the scans they replace
    Mutant("sector-table-ties-to-the-highest-index", COLUMN_PASSES, "src/simplexflow/analysis.py",
           (("in reversed(SECTOR_ORDERINGS.items()):", "in SECTOR_ORDERINGS.items():"),),
           SECTOR_TIE_TESTS),
    Mutant("sector-rule-strict-for-ordering-4", ORDERING_RULE, "src/simplexflow/analysis.py",
           (("(y[hi - 1] >= y[mid - 1])",
             "(y[hi - 1] > y[mid - 1] if k == 4 else y[hi - 1] >= y[mid - 1])"),),
           SECTOR_TIE_TESTS),
    Mutant("omega-change-points-from-the-x1-cell-only", COLUMN_PASSES,
           "src/simplexflow/analysis.py",
           ((" | (c2[1:] != c2[:-1])", ""),), OMEGA_TESTS),
    Mutant("gamma0-threshold-from-the-lower-log-phi", COLUMN_PASSES,
           "src/simplexflow/analysis.py",
           (("np.maximum(lp[illegal], lp[illegal + 1])", "np.minimum(lp[illegal], lp[illegal + 1])"),),
           GAMMA0_TESTS),
    Mutant("audit-wrap-from-six-to-one-illegal", COLUMN_PASSES, "src/simplexflow/analysis.py",
           ((" & (step != -5)", ""),),
           ("tests/test_analysis.py::"
            "test_audit_takes_every_cyclic_advance_the_wrap_from_six_to_one_included",)),
    # the JSON writer
    Mutant("json-non-finite-float-unquoted", JSON_WRITER, "src/simplexflow/cli.py",
           (("""repr(value) if value - value == 0.0 else f'"{value!r}"'""", "repr(value)"),),
           JSON_TESTS),
    Mutant("json-keys-without-str", JSON_WRITER, "src/simplexflow/cli.py",
           (("_quote(str(k))", "_quote(k)"),), JSON_TESTS),
    Mutant("json-item-separator-comma-space", JSON_WRITER, "src/simplexflow/cli.py",
           (("(',' + inner).join(items)}{nl}}}", "(', ' + inner).join(items)}{nl}}}"),
            ("(',' + inner).join(items)}{nl}]", "(', ' + inner).join(items)}{nl}]")),
           JSON_TESTS),
    # a compiled result is used only when it covers the whole request
    Mutant("partial-compiled-run-accepted", WHOLE_RUNS, "src/simplexflow/dynamics.py",
           (("if ran is None or ran[0] < n_steps:", "if ran is None:"),),
           ("tests/test_dynamics.py",)),
    Mutant("partial-compiled-rk4-run-accepted", WHOLE_RUNS, "src/simplexflow/ode.py",
           (("if ran is not None and ran[1] == steps:", "if ran is not None:"),),
           ("tests/test_kernel.py",)),
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


def _python(root: Path, *args, timeout=None) -> subprocess.CompletedProcess | None:
    """Python in the checkout at root, with its own kernel cache; None when
    it runs past ``timeout`` seconds, after its process group is killed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), XDG_CACHE_HOME=str(root / ".cache"))
    with subprocess.Popen([sys.executable, *args], cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the tests' own subprocesses too
            proc.communicate()
            return None
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def kernel_builds(root: Path, timeout=None) -> bool | None:
    """Whether the checkout's kernel builds and loads, or no compiler is on
    the path; None when that runs past ``timeout`` seconds."""
    code = "import shutil, sys; from simplexflow import kernel; " \
           "sys.exit(kernel.handle() is None and shutil.which('cc') is not None)"
    done = _python(root, "-c", code, timeout=timeout)
    return None if done is None else done.returncode == 0


def run_tests(root: Path, tests, timeout=None) -> tuple[int, int] | None:
    """pytest's exit code and the number of failed or erroring tests; None
    when the run goes past ``timeout`` seconds."""
    done = _python(root, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests, timeout=timeout)
    if done is None:
        return None
    tail = done.stdout.strip().splitlines()[-1:] or [""]
    failing = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", tail[0]))
    return done.returncode, failing


def run_mutant(root: Path, tests, timeout) -> tuple[str, int | None]:
    """A mutated checkout's result and its number of failing tests."""
    built = kernel_builds(root, timeout)
    if built is False:
        return "broken", None  # its tests would fail for that alone
    done = None if built is None else run_tests(root, tests, timeout)
    if done is None:
        return "timeout", None
    return "killed" if done[0] != 0 else "survived", done[1]


def as_expected(result: str, expected: str) -> bool:
    """Whether a mutant's result is the expected one; a timeout counts as killed."""
    return ("killed" if result == "timeout" else result) == expected


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
        t0 = time.perf_counter()
        code, failing = run_tests(base, tests)
        if code != 0:
            print(f"the unmutated copy fails {failing} of the named tests (pytest exit {code})",
                  file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - t0)
        status = 0
        for mutant in chosen:
            copy = Path(tmp) / mutant.id
            shutil.copytree(base, copy, ignore=_NOT_COPIED)  # no kernel cache either
            apply(mutant, copy)
            t0 = time.perf_counter()
            result, failing = run_mutant(copy, mutant.tests, timeout)
            expected = "survived" if mutant.equivalent else "killed"
            status |= not as_expected(result, expected)
            print(json.dumps({"id": mutant.id, "origin": mutant.origin, "result": result,
                              "failing": failing, "expected": expected,
                              "seconds": round(time.perf_counter() - t0, 1)}), flush=True)
            shutil.rmtree(copy)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
