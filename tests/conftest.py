"""Fixtures shared by the test modules."""
import shutil

import pytest

from simplexflow import kernel


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
