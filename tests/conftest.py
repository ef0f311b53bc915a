"""Hypothesis runs the same examples on every machine, with no deadline.

A fixed example sequence makes a failure reproducible anywhere, and a
loaded host cannot fail a test for being slow.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
