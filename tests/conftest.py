"""Shared pytest configuration for the test suite."""

from hypothesis import settings

# Property tests exercise whole simulations; wall-clock deadlines make them
# flaky on loaded machines without adding signal.
settings.register_profile("repro", deadline=None, max_examples=50)
# CI's larger budget for one differential test at a time:
# ``pytest -k <test> --hypothesis-profile=thorough --hypothesis-seed=0``.
settings.register_profile("thorough", deadline=None, max_examples=500)
settings.load_profile("repro")
