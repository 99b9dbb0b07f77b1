"""Test-suite settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
