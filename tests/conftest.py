"""Test-suite settings: Hypothesis draws the same examples on every run.

With derandomize=True each property's examples follow from the test
itself, and with database=None no failing example is replayed from an
earlier run, so the suite's time and coverage do not change between runs.
Each test keeps its own max_examples and deadline.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
