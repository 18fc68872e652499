"""Shared test settings: Hypothesis draws the same examples on every run, so
property tests cannot turn a rerun red by chance."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
