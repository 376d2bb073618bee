"""Shared test settings."""

from hypothesis import settings

# Property tests are reproducible runs, not searches: the same examples
# every time, no time limit per example and no saved failures.
settings.register_profile("sprayjets", deadline=None, derandomize=True, database=None)
settings.load_profile("sprayjets")
