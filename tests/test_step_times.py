"""``tools/step_times.py`` times every row on the kernel of the checkout and on
the one it is compared with, and the two give the same end states."""
import json
import runpy
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = runpy.run_path(str(ROOT / "tools" / "step_times.py"), run_name="step_times")


def test_the_kernel_against_its_own_checkout_keeps_every_end_state(compiled, capsys):
    assert TOOL["main"](["--against", str(ROOT), "--steps", "2000", "--repeats", "2"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["run"] for line in lines] == [row[0] for row in TOOL["ROWS"]]
    for line in lines:
        assert line["bits_agree"] and 0 <= line["wins"] <= 2
        assert line["ns_per_step"] > 0 and line["against_ns_per_step"] > 0
        assert len(line["end"]) == (6 if line["run"].startswith("log") else 3)


def test_without_a_compiler_it_exits_2(monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert TOOL["main"](["--steps", "10"]) == 2
