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
def forked_pools(monkeypatch):
    """Every sweep forks a real worker pool, on two workers at most: the
    pool's step threshold is 0 and two CPUs are usable. Returns the list of
    the pools ``cli._fork_pool`` built (None where fork is not available)."""
    built = []
    fork_pool = cli._fork_pool

    def spy(workers):
        built.append(fork_pool(workers))
        return built[-1]

    monkeypatch.setattr(cli, "POOL_MIN_STEPS", 0)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_fork_pool", spy)
    return built
