"""Test configuration shared by every test module.

Hypothesis draws are derandomized: each property test sees the same examples
on every run, so a failure reproduces on rerun.  Example counts and deadlines
are the library's defaults or each test's own settings.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
