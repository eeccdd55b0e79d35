"""Fixtures shared by the test modules."""

import pytest

from crcgeo import scalars


@pytest.fixture
def fresh_generation():
    """The test runs in a new generation of the kernel's tables and leaves
    none of its entries, patched constructions among them, to later tests:
    ``clear_caches()`` before and after it."""
    scalars.clear_caches()
    yield
    scalars.clear_caches()
