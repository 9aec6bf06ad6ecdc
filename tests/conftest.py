"""Test-suite settings shared by every test file.

Hypothesis draws its examples from a seed fixed per test (derandomize, which
also turns the example database off), so every run of the suite, on any
checkout with the same test code, tests the same inputs; and no deadline
applies, since wall time on a shared host is not a property of the code.
Each test's own max_examples still sets how many examples it draws.
"""

from hypothesis import settings

settings.register_profile("coastsim", derandomize=True, deadline=None)
settings.load_profile("coastsim")
