"""Fixtures shared by the test modules."""
import shutil

import pytest

from simplexflow import cli, kernel


@pytest.fixture(scope="module")
def compiled():
    """The loaded kernel. The test is skipped where no C compiler is on the
    path, and fails where one is but the kernel does not load: a stale
    ``argtypes`` line would otherwise switch every compiled loop off."""
    lib = kernel.handle()
    if lib is None:
        if shutil.which("cc") is not None:
            pytest.fail("a C compiler is on the path, but the kernel did not build or load")
        pytest.skip("no C compiler on the path; only the Python loops run")
    return lib


@pytest.fixture
def sweep_workers(monkeypatch):
    """The list of the worker counts that ``cli._sweep_rows`` is called with,
    one per sweep."""
    asked = []
    sweep_rows = cli._sweep_rows

    def spy(tasks, workers):
        asked.append(workers)
        return sweep_rows(tasks, workers)

    monkeypatch.setattr(cli, "_sweep_rows", spy)
    return asked


@pytest.fixture
def sweep_threads(monkeypatch, sweep_workers):
    """Every sweep runs its rows on two threads at most: the thread threshold
    is 0 and two CPUs are usable. Returns ``sweep_workers``."""
    monkeypatch.setattr(cli, "POOL_MIN_STEPS", 0)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return sweep_workers
