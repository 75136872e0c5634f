"""Run the end-to-end benchmark on one or more checkouts and record it as JSON.

Usage, from the root of a source checkout:

    python3 tools/bench_record.py --checkout parent=../base --checkout change=. \
        --workloads trajectory report sweep ode-order --seeds 1 2 \
        --seconds 20 --out BENCH_7.json

    python3 tools/bench_record.py --checkout parent=../base --checkout change=. \
        --workloads sweep --seeds 1 2 --held-out sweep:11,12,13 --out BENCH_21.json

For each workload and seed, every checkout runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` from
its own root, one after another. The order of the checkouts alternates
from one (workload, seed) pair to the next, so that a drift in the host's
speed does not always favour the same side. From each run's standard
output the script keeps the ``meta`` line (machine, git SHA, inputs), the
``outputs sha256`` line and the final result line (``correct``,
``attempted``, ``failed`` and the metrics). The output file holds every
run plus, per workload, the median of each metric for each checkout. Each
checkout is named by the git SHA its runs report (``unknown`` for an
extract without ``.git``) and by ``source_sha256``, a digest of the files
under its ``src/`` (:func:`source_sha256`), which names an extract too.

``--held-out W:S1,S2,...`` adds pairs of workload W at seeds kept apart
from ``--seeds``, run the same way after them. For each such workload and
each end-to-end metric of ``BENCHMARK.json``, ``held_out`` gives each
checkout's median over those pairs, the quartiles of the first checkout's
runs, and the number of pairs in which the second checkout did better.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(stdout: str) -> dict:
    """The meta, output digest and result lines of one ``bench/run.py`` run."""
    meta = digest = result = None
    for line in stdout.splitlines():
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        elif line.startswith("outputs sha256 "):
            digest = line.split()[2]
            digest_line = line
        elif line.startswith("{"):
            result = json.loads(line)
    if meta is None or digest is None or result is None:
        raise ValueError("bench/run.py output lacks its meta, digest or result line")
    return {"meta": meta, "outputs_sha256": digest, "outputs_line": digest_line, **result}


def source_sha256(root: Path) -> str:
    """sha256 over the files under ``root/src`` in the order of their sorted
    relative paths: each path's POSIX text, a NUL, the file's byte count,
    a NUL and its bytes. What ``.gitignore`` leaves out there (``__pycache__``
    and ``*.egg-info``) is left out."""
    digest = hashlib.sha256()
    src = root / "src"
    files = sorted(p.relative_to(src) for p in src.rglob("*") if p.is_file())
    for rel in files:
        if any(part == "__pycache__" or part.endswith(".egg-info") for part in rel.parts):
            continue
        data = (src / rel).read_bytes()
        digest.update(b"%s\0%d\0" % (rel.as_posix().encode(), len(data)))
        digest.update(data)
    return digest.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def summarize(runs: list[dict]) -> dict:
    """Per workload and checkout: the median of each metric over the seeds."""
    out: dict = {}
    for run in runs:
        side = out.setdefault(run["workload"], {}).setdefault(run["checkout"], {})
        for name, metric in run["metrics"].items():
            side.setdefault(name, []).append(metric["value"])
        side.setdefault("failed", []).append(run["failed"])
    return {w: {c: {name: statistics.median(v) if name != "failed" else sum(v)
                    for name, v in metrics.items()}
                for c, metrics in sides.items()}
            for w, sides in out.items()}


def compare_pairs(runs: list[dict], first: str, second: str, better: dict) -> dict:
    """Per workload and metric of the held-out runs: each side's median,
    the first side's quartiles and the pairs the second side won."""
    out: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["checkout"]] = r["metrics"]
        metrics = {}
        for name, direction in better.items():
            a = [p[first][name]["value"] for p in pairs.values()]
            b = [p[second][name]["value"] for p in pairs.values()]
            won = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
            q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
            metrics[name] = {first: statistics.median(a), second: statistics.median(b),
                             f"{first}_quartiles": [q1, q3], f"{second}_better_in": won,
                             "pairs": len(a)}
        out[workload] = metrics
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                    help="a source checkout to run, with a label for it; repeatable")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--held-out", action="append", default=[], metavar="W:S1,S2,...",
                    help="alternating pairs of workload W at held-out seeds; repeatable")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    held_out = []
    for item in args.held_out:
        workload, sep, seeds = item.partition(":")
        try:
            held_out += [(workload, int(seed)) for seed in seeds.split(",")]
        except ValueError:
            ap.error(f"--held-out needs W:S1,S2,..., got {item!r}")
        if not sep or not workload:
            ap.error(f"--held-out needs W:S1,S2,..., got {item!r}")

    checkouts = []
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label:
            ap.error(f"--checkout needs LABEL=PATH, got {item!r}")
        root = Path(path).resolve()
        if not (root / "bench" / "run.py").is_file():
            ap.error(f"no bench/run.py under {root}")
        checkouts.append((label, root))

    runs = []
    cases = [(w, s, False) for w in args.workloads for s in args.seeds]
    for pair, (workload, seed, held) in enumerate(cases + [(w, s, True) for w, s in held_out]):
        order = checkouts if pair % 2 == 0 else checkouts[::-1]
        for label, root in order:
            print(f"{workload} seed {seed}: {label}", file=sys.stderr, flush=True)
            result = run_once(root, workload, seed, args.seconds)
            runs.append({"checkout": label, "workload": workload, "seed": seed,
                         "pair": pair, "held_out": held, **result})
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    doc = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "checkouts": {label: {"git_sha": next(r["meta"]["git_sha"] for r in runs
                                              if r["checkout"] == label),
                              "source_sha256": source_sha256(root)}
                      for label, root in checkouts},
        "summary": summarize([r for r in runs if not r["held_out"]]),
        "held_out": compare_pairs([r for r in runs if r["held_out"]], checkouts[0][0],
                                  checkouts[-1][0], better),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
