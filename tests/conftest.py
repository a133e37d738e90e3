"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
each test's own definition (derandomize), not from a random seed or a
saved example database, so every run draws the same inputs; there is no
per-example deadline, and the example count is bounded so that the suite
stays fast.
"""

from hypothesis import settings

settings.register_profile("mfglab", derandomize=True, database=None,
                          deadline=None, max_examples=25,
                          print_blob=False)
settings.load_profile("mfglab")
