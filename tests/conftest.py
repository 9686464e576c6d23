"""Settings shared by every test module.

Hypothesis draws the same examples on every run (derandomize) and has no
per-example deadline, so a slow machine cannot fail a property test.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
