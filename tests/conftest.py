"""Test-suite settings and fixtures shared by the test files.

Hypothesis draws its examples from a seed fixed per test (derandomize, which
also turns the example database off), so every run of the suite, on any
checkout with the same test code, tests the same inputs; and no deadline
applies, since wall time on a shared host is not a property of the code.
Each test's own max_examples still sets how many examples it draws.
"""

import pytest
import yaml
from hypothesis import settings

settings.register_profile("coastsim", derandomize=True, deadline=None)
settings.load_profile("coastsim")


@pytest.fixture
def yaml_loaders_built(monkeypatch):
    """The YAML loader classes built during the test, in order."""
    built = []
    for cls in {yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)}:
        def spy(self, stream, _init=cls.__init__, _cls=cls):
            built.append(_cls)
            _init(self, stream)
        monkeypatch.setattr(cls, "__init__", spy)
    return built
