"""Every Hypothesis test draws the same examples on every run and keeps no
example database; each test's own max_examples and deadline still apply."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
