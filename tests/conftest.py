"""Hypothesis profiles for the suite.

``ci`` derives every example from the test itself instead of a random seed
and prints the reproduction blob of a failure, so a property that fails in
CI fails the same way under ``pytest --hypothesis-profile=ci`` anywhere.
Without the flag the default profile applies.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
