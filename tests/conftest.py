"""Fixtures shared by the test modules."""
import pytest

from simplexflow import kernel


@pytest.fixture(scope="module")
def compiled():
    """The loaded kernel; the test is skipped where no C compiler builds it."""
    lib = kernel.handle()
    if lib is None:
        pytest.skip("the kernel cannot be built here; only the Python loops run")
    return lib
