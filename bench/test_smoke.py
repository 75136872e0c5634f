"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q -p no:cacheprovider bench/test_smoke.py

Runs every workload with and without tracing and checks that each metric
named in BENCHMARK.json is printed with its unit. Also checks that
corrupted outputs are counted as failures, and that the benchmark refuses
to run without the program's sources.
"""
from __future__ import annotations

import io
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from simplexflow import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + list(args), cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _output(workload):
    inv = workload.pool(5)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(inv.argv)) == 0
    return inv, out.getvalue()


def _corrupt_trajectory(text):
    doc = json.loads(text)
    doc["samples"][7]["x1"] += 1e-6
    return json.dumps(doc)


def _corrupt_report(text):
    doc = json.loads(text)
    doc["report"]["cesaro"]["snapshots"][-1]["values"]["c1"][0] += 1e-6
    return json.dumps(doc)


def _corrupt_sweep_regime(text):
    lines = text.splitlines()
    lines[5] = lines[5].replace("vertex_convergence", "interior_convergence")
    return "\n".join(lines) + "\n"


def _corrupt_sweep_token(text):
    lines = text.splitlines()
    lines[3] = lines[3] + "numeric_failure"
    return "\n".join(lines) + "\n"


def _corrupt_ode(text):
    doc = json.loads(text)
    doc["result"]["slope"] = 1.25
    doc["result"]["degenerate"] = False
    return json.dumps(doc)


@pytest.mark.parametrize("name,corrupt", [
    ("trajectory", _corrupt_trajectory),
    ("report", _corrupt_report),
    ("sweep", _corrupt_sweep_regime),
    ("sweep", _corrupt_sweep_token),
    ("ode-order", _corrupt_ode),
])
def test_corrupted_output_counts_as_a_failure(name, corrupt):
    workload = WORKLOADS[name](quick=True)
    inv, text = _output(workload)
    assert workload.check(inv, 0, text) == []
    bad = corrupt(text)
    assert bad != text
    assert workload.check(inv, 0, bad)
    client = run.Client(cli, workload)
    with contextlib.redirect_stderr(io.StringIO()):
        assert client.record(0, inv, 0, text)
        assert not client.record(1, inv, 0, bad)
        assert not client.record(0, inv, 0, text + " ")  # differs from the first run of input 0
        assert not client.record(2, inv, 3, text)  # non-zero exit
    assert (client.attempted, client.failed) == (4, 3)


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "--workload", WORKLOAD_NAMES[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)


def test_a_call_that_raises_is_still_summed():
    from tracer import Tracer

    def broken(*args, **kwargs):
        raise FloatingPointError("orbit left the simplex")

    tracer = Tracer()
    wrapped = tracer._spanned("dynamics.iterate", broken, lambda a, k, r: (1, 0))
    span = tracer.invocation(0)
    with pytest.raises(FloatingPointError):
        wrapped()
    tracer.end(span)
    m = tracer.metrics()
    assert (m["dynamics.iterate_calls"], m["dynamics.steps_linear"]) == (1, 0)
