"""Settings and fixtures shared by the test session.

Every Hypothesis property runs under one profile:

* ``deadline=None``: exact-arithmetic examples run slowly while the memo
  tables are cold and fast once they are warm, so a per-example deadline
  would flag the same example as "unreliable timing" on a slow machine.
* ``print_blob=True``: a failure prints the blob that reproduces it with
  ``@reproduce_failure``.

``serial_pool`` stands in for every process pool a test opens;
``cold_tables`` empties every memo table before and after a test.
"""

import concurrent.futures
import types

import pytest
from hypothesis import settings

from kapparing import ring

settings.register_profile("kapparing", deadline=None, print_blob=True)
settings.load_profile("kapparing")


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace ``ProcessPoolExecutor`` with a pool that runs its work serially
    in this process, where a spy sees every call and a memo limit set here
    holds; returns the size of each pool opened and each ``map``'s chunk size."""
    pools = types.SimpleNamespace(sizes=[], chunks=[])

    class SerialPool:
        def __init__(self, max_workers):
            pools.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables, chunksize=1):
            pools.chunks.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return pools


@pytest.fixture
def cold_tables():
    ring.clear_coeff_caches()
    yield
    ring.clear_coeff_caches()
