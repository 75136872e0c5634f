"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 10 [--first-seed 1]

Runs the benchmark once per seed on every workload in BENCHMARK.json with
``--trace 0`` and prints, per metric, the median and the distance between
the first and the third quartile (``statistics.quantiles(values, n=4)``) as
a share of the median, next to the bound in BENCHMARK.json and a third of
it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in (w["name"] for w in spec["workloads"]):
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: rc {proc.returncode}, {result['failed']} failed",
                      file=sys.stderr)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"\n{name} ({args.seeds} seeds from {args.first_seed})")
        print(f"{'metric':<14}{'median':>14}{'IQR/median':>12}{'bound':>8}{'bound/3':>9}")
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[m] / 3 else "  WIDE"
            print(f"{m:<14}{med:>14.6g}{spread:>12.4f}{bounds[m]:>8}{bounds[m] / 3:>9.4f}{flag}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
