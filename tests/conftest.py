"""Hypothesis draws the same examples on every run: each property test's
examples come from a fixed derivation of its own source, not from fresh
entropy, and no example database carries failures from one run to the next,
so two checkouts run the same suite."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
