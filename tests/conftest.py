"""Settings and fixtures shared by the test session.

Every Hypothesis property runs under one profile:

* ``deadline=None``: exact-arithmetic examples run slowly while the memo
  tables are cold and fast once they are warm, so a per-example deadline
  would flag the same example as "unreliable timing" on a slow machine.
* ``print_blob=True``: a failure prints the blob that reproduces it with
  ``@reproduce_failure``.

``serial_fork`` stands in for the children that ``run_ordered`` forks;
``cold_tables`` empties every memo table before and after a test.
"""

import pytest
from hypothesis import settings

from kapparing import ring, verification

settings.register_profile("kapparing", deadline=None, print_blob=True)
settings.load_profile("kapparing")


@pytest.fixture
def serial_fork(monkeypatch):
    """Replace ``verification._forked`` with a stand-in that computes each
    child's share of the cases serially in this process, where a spy sees
    every call and a memo limit set here holds; returns the worker count
    of each fan-out, in order."""
    fan_outs = []

    def serial(worker, shares):
        fan_outs.append(len(shares))
        return [[worker(*case) for case in share] for share in shares]

    monkeypatch.setattr(verification, "_forked", serial)
    return fan_outs


@pytest.fixture
def cold_tables():
    ring.clear_coeff_caches()
    yield
    ring.clear_coeff_caches()
