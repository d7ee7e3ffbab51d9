"""Tier-1 runs the same Hypothesis examples on every run.

Each property test draws its examples from a seed derived from the test
itself, not from the clock or the example database, so a failure repeats
and a pass is the same pass everywhere.  A test's own @settings still
set its example count.
"""
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
