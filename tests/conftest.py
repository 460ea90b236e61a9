"""Test-session settings shared by every Hypothesis property.

* ``deadline=None``: exact-arithmetic examples run slowly while the memo
  tables are cold and fast once they are warm, so a per-example deadline
  would flag the same example as "unreliable timing" on a slow machine.
* ``print_blob=True``: a failure prints the blob that reproduces it with
  ``@reproduce_failure``.
"""

from hypothesis import settings

settings.register_profile("kapparing", deadline=None, print_blob=True)
settings.load_profile("kapparing")
