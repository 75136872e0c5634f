"""The mutant table of ``tools/mutants.py`` still fits the source: every
edit's old text occurs exactly once in its file, and every named test file
exists and, for a ``file::name``, defines that test; so does every seeded
fault of ``tools/sanitize.py`` in ``kernel.c``. The mutants and the faults
themselves run only from those tools; the runner's timeout is checked here
on a process that sleeps."""
import runpy
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNNER = runpy.run_path(str(ROOT / "tools" / "mutants.py"), run_name="mutants")
MUTANTS = RUNNER["MUTANTS"]
FAULTS = runpy.run_path(str(ROOT / "tools" / "sanitize.py"), run_name="sanitize")["FAULTS"]


def test_mutant_ids_are_unique():
    ids = [m.id for m in MUTANTS + FAULTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS + FAULTS, ids=lambda m: m.id)
def test_every_edit_finds_its_old_text_once(mutant):
    text = (ROOT / mutant.file).read_text()
    for old, new in mutant.edits:
        assert old != new
        assert text.count(old) == 1, old
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        assert not name or f"def {name}(" in (ROOT / path).read_text(), test


def test_a_run_past_its_timeout_is_stopped_and_reads_as_killed(tmp_path):
    t0 = time.perf_counter()
    assert RUNNER["_python"](tmp_path, "-c", "import time; time.sleep(60)", timeout=0.5) is None
    assert time.perf_counter() - t0 < 30
    assert RUNNER["run_tests"](tmp_path, ["--version"], timeout=0.001) is None
    as_expected = RUNNER["as_expected"]
    assert as_expected("timeout", "killed") and not as_expected("timeout", "survived")
    assert as_expected("killed", "killed") and as_expected("survived", "survived")
    assert not as_expected("broken", "killed") and not as_expected("survived", "killed")
