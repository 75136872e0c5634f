"""Run the tier-1 tests twice: with the environment as it is, and with no C
compiler, so that every compiled loop falls back to its Python copy.

Usage, from the root of a source checkout:

    python3 tools/tier1.py                  # the whole tier-1 suite
    python3 tools/tier1.py tests/test_kernel.py ...   # pytest arguments

The second run takes ``cc`` off ``PATH`` (each directory that holds one is
replaced by a temporary directory of links to its other entries) and points
``XDG_CACHE_HOME`` at an empty directory, so no cached kernel loads either;
there the tests that need the kernel (the ``compiled`` fixture) skip, and
every other test must pass as in the first run. For each run the script
prints the pass, skip and fail counts, the reasons of the skips and the
wall time. The exit status is 1 when either run does not pass.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("passed", "skipped", "failed", "errors")


def path_without_cc(path: str, scratch: Path) -> str:
    """``path`` with each directory that holds a ``cc`` replaced by a
    directory in ``scratch`` of links to its other entries."""
    dirs = []
    for i, d in enumerate(path.split(os.pathsep)):
        if d and shutil.which("cc", path=d) is not None:
            shadow = scratch / f"bin{i}"
            shadow.mkdir()
            for entry in os.scandir(d):
                if entry.name != "cc":
                    (shadow / entry.name).symlink_to(entry.path)
            d = str(shadow)
        dirs.append(d)
    return os.pathsep.join(dirs)


def run(name: str, env: dict, args) -> int:
    """One pytest run of tier-1; prints its counts and returns pytest's exit code."""
    src = str(ROOT / "src")
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rs",
                           "--continue-on-collection-errors", "-p", "no:cacheprovider", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    counts = dict.fromkeys(COUNTS, 0)
    summary = lines[-1] if lines else ""
    for n, key in re.findall(r"(\d+) (passed|skipped|failed|errors?)\b", summary):
        counts["errors" if key.startswith("error") else key] += int(n)
    print(f"{name}: " + ", ".join(f"{n} {key}" for key, n in counts.items())
          + f" in {wall:.1f} s (pytest exit {done.returncode})", flush=True)
    for reason in sorted({re.sub(r"^SKIPPED \[\d+\] [^:]+:\d+: ", "", line)
                          for line in lines if line.startswith("SKIPPED")}):
        print(f"  skipped: {reason}")
    if done.returncode != 0 and not any(counts.values()):  # pytest itself failed
        print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
    return done.returncode


def main(args) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / "cache").mkdir()
        no_cc = dict(os.environ, PATH=path_without_cc(os.environ.get("PATH", ""), scratch),
                     XDG_CACHE_HOME=str(scratch / "cache"))
        if shutil.which("cc", path=no_cc["PATH"]) is not None:
            print("cannot take cc off PATH", file=sys.stderr)
            return 2
        codes = [run("as is", dict(os.environ), args), run("without cc", no_cc, args)]
    return int(any(codes))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
