"""Run the end-to-end benchmark on one or more checkouts and record it as JSON.

Usage, from the root of a source checkout:

    python3 tools/bench_record.py --checkout parent=../base --checkout change=. \
        --workloads trajectory report sweep ode-order --seeds 1 2 \
        --seconds 20 --out BENCH_7.json

For each workload and seed, every checkout runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` from
its own root, one after another. The order of the checkouts alternates
from one (workload, seed) pair to the next, so that a drift in the host's
speed does not always favour the same side. From each run's standard
output the script keeps the ``meta`` line (machine, git SHA, inputs), the
``outputs sha256`` line and the final result line (``correct``,
``attempted``, ``failed`` and the metrics). The output file holds every
run plus, per workload, the median of each metric for each checkout.
"""
from __future__ import annotations

import argparse
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                    help="a source checkout to run, with a label for it; repeatable")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

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
    pair = 0
    for workload in args.workloads:
        for seed in args.seeds:
            order = checkouts if pair % 2 == 0 else checkouts[::-1]
            for label, root in order:
                print(f"{workload} seed {seed}: {label}", file=sys.stderr, flush=True)
                result = run_once(root, workload, seed, args.seconds)
                runs.append({"checkout": label, "workload": workload, "seed": seed,
                             "pair": pair, **result})
            pair += 1

    doc = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "checkouts": {label: {"git_sha": next(r["meta"]["git_sha"] for r in runs
                                              if r["checkout"] == label)}
                      for label, _ in checkouts},
        "summary": summarize(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
