"""Shared test settings.

Property tests run under a derandomized hypothesis profile, so every run
draws the same examples and the suite stays deterministic.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")
