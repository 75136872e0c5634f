"""Fixtures shared by the test modules."""
import shutil

import pytest

from simplexflow import cli, dynamics, kernel, ode
from simplexflow.simplex import SimplexPoint


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
    """The list of the worker counts that ``dynamics.summarize_rows`` is
    called with, one per sweep that runs a row. A test that replaces
    ``summarize_rows`` after this fixture calls the spy it finds there to
    keep the count."""
    asked = []
    summarize_rows = dynamics.summarize_rows

    def spy(runs, n_steps, window, workers):
        asked.append(workers)
        return summarize_rows(runs, n_steps, window, workers)

    monkeypatch.setattr(dynamics, "summarize_rows", spy)
    return asked


@pytest.fixture
def sweep_threads(monkeypatch, sweep_workers):
    """Every sweep runs its rows on two threads at most: two CPUs are usable.
    Returns ``sweep_workers``."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return sweep_workers


@pytest.fixture
def half_step_reference_moved(monkeypatch):
    """``move(shift, ref_h)`` makes ``ode.reference_path`` move the end of its
    ``ref_h / 2`` run by ``shift`` in x1 and ``-shift`` in x2, so that
    ``ode.convergence_order`` reads a step-halving self-error of about
    ``shift``: no start found makes the two runs disagree by more than the
    bound of 1e-8 (the worst read 3.9e-11)."""
    reference_path = ode.reference_path

    def move(shift, ref_h):
        def moved(start, params, speed, horizon, h):
            end = reference_path(start, params, speed, horizon, h)
            if h != ref_h / 2.0:
                return end
            x1, x2, x3 = end.coords
            return SimplexPoint((x1 + shift, x2 - shift, x3))

        monkeypatch.setattr(ode, "reference_path", moved)

    return move
