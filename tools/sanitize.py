"""Run the compiled kernel under the compiler's sanitizers.

Usage, from the root of a source checkout:

    python3 tools/sanitize.py                             # the checkout as it is
    python3 tools/sanitize.py --fault team-freed-uncounted   # with a seeded fault

The script copies the checkout (everything but ``.git`` and caches), applies
the named seeded fault to the copy's ``kernel.c`` if one is given, and runs
three checks on the copy:

1. ``tools/sanitize_team.c``, a stress driver of ``sf_iterate_rows``'s
   thread team, built with ``-fsanitize=thread``;
2. the same driver built with ``-fsanitize=address,undefined``;
3. the test files that call the kernel, with the kernel built with
   ``-fsanitize=address,undefined`` (``kernel.FLAGS`` extended before the
   first ``handle()``) into an empty ``XDG_CACHE_HOME``. The interpreter is
   not instrumented, so libasan and libubsan are loaded with ``LD_PRELOAD``,
   and ``ASAN_OPTIONS=detect_leaks=0`` keeps the interpreter's own
   allocations out of the report.

A ThreadSanitizer runtime preloaded into the interpreter does not run, so the
team is checked through the C driver alone. The first error stops the
process. ThreadSanitizer and AddressSanitizer write their reports to files;
UndefinedBehaviorSanitizer, which runs inside AddressSanitizer's runtime in
these builds, writes to standard error, which pytest leaves alone (``-s``)
outside the tests that capture it. A check fails when its process exits
non-zero, leaves a report or runs past ``TIMEOUT`` (a fault in the team can
deadlock it). The script prints one line per check and the head of each
report, or of the output of a check that failed without one. It exits 1 when
any check fails and 2 when no C compiler is on the path. Each seeded fault
in ``FAULTS``, written as a mutant of ``tools/mutants.py``, must make it
exit 1; ``tests/test_mutants.py`` checks that each fault's text still occurs
once in ``kernel.c``.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from mutants import _NOT_COPIED, KERNEL_C, ROOT, Mutant, apply  # noqa: E402

DRIVER = "tools/sanitize_team.c"
ADDRESS = ("-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
           "-fno-omit-frame-pointer", "-g")
TIMEOUT = 180  # seconds a check may take; a clean one took under 30 s
TESTS = ("tests/test_kernel.py", "tests/test_summary.py", "tests/test_dynamics.py",
         "tests/test_cesaro.py", "tests/test_ode.py")

SANITIZERS = "the compiled kernel under sanitizers"
FAULTS = (
    # each sample goes one row down, so the last one lands past the schedule
    Mutant("sample-one-row-past-the-schedule", SANITIZERS, KERNEL_C,
           (("    int64_t j = 3 * *k;\n", "    int64_t j = 3 * (*k + 1);\n"),), ()),
    # the caller's team_leave frees the team while its helpers still use it
    Mutant("team-freed-uncounted", SANITIZERS, KERNEL_C,
           (("            t->refs++;\n", "            ;\n"),), ()),
)


def reports(logs: Path) -> list[str]:
    """The sanitizer reports written under logs, each file's first lines."""
    return ["".join(p.read_text(errors="replace").splitlines(keepends=True)[:12])
            for p in sorted(logs.iterdir())]


def check(name: str, argv, cwd: Path, env: dict, logs: Path) -> bool:
    """Run argv; print whether it passed, and the head of any report."""
    logs.mkdir()
    env = dict(env, ASAN_OPTIONS=f"detect_leaks=0:log_path={logs}/asan",
               UBSAN_OPTIONS="print_stacktrace=1",
               TSAN_OPTIONS=f"halt_on_error=1:log_path={logs}/tsan")
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:  # a fault can leave the team deadlocked
        done = subprocess.CompletedProcess(argv, "timeout", "", f"no exit in {TIMEOUT} s")
    found = reports(logs)
    ok = done.returncode == 0 and not found
    last = done.stdout.strip().splitlines()[-1:]  # pytest's counts
    print(f"{name}: {'clean' if ok else 'FAILED'} (exit {done.returncode}, {len(found)} "
          f"reports, {time.perf_counter() - t0:.1f} s){': ' + last[0] if last else ''}",
          flush=True)
    for report in found:
        print("  " + report.replace("\n", "\n  ").rstrip())
    if not ok and not found:  # from UndefinedBehaviorSanitizer's report, or the output's end
        lines = (done.stdout + done.stderr).splitlines()
        at = next((i for i, line in enumerate(lines) if "runtime error:" in line),
                  max(len(lines) - 12, 0))
        print("  " + "\n  ".join(lines[at:at + 12]))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    faults = {fault.id: fault for fault in FAULTS}
    ap.add_argument("--fault", choices=sorted(faults), help="seed this fault into kernel.c")
    args = ap.parse_args(argv)
    cc = shutil.which("cc")
    if cc is None:
        print("no C compiler on the path", file=sys.stderr)
        return 2
    runtimes = [subprocess.run([cc, f"-print-file-name={lib}"], capture_output=True, text=True,
                               check=True).stdout.strip() for lib in ("libasan.so", "libubsan.so")]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        root = scratch / "checkout"
        shutil.copytree(ROOT, root, ignore=_NOT_COPIED)
        if args.fault:
            apply(faults[args.fault], root)
        kernel_c = f'-DKERNEL_C="{root / KERNEL_C}"'
        ok = True
        for kind, flags in (("thread", ("-fsanitize=thread", "-g", "-O1")),
                            ("address+undefined", ADDRESS + ("-O1",))):
            exe = scratch / f"team-{kind}"
            subprocess.run([cc, *flags, kernel_c, str(root / DRIVER), "-o", str(exe), "-lm",
                            "-pthread"], check=True)
            ok &= check(f"team driver, {kind}", [str(exe)], root, dict(os.environ),
                        scratch / f"logs-{kind}")
        cache = scratch / "cache"
        cache.mkdir()
        env = dict(os.environ, PYTHONPATH=str(root / "src"), XDG_CACHE_HOME=str(cache),
                   LD_PRELOAD=" ".join(runtimes))
        code = ("import sys, pytest\n"
                "from simplexflow import kernel\n"
                f"kernel.FLAGS += {ADDRESS!r}\n"
                "sys.exit(pytest.main(['-q', '-s', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n")
        # where the sanitized kernel does not build, the tests' compiled fixture fails
        ok &= check("kernel tests, address+undefined", [sys.executable, "-c", code, *TESTS],
                    root, env, scratch / "logs-tests")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
