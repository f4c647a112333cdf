"""Hypothesis profiles.

``pytest --hypothesis-profile=ci`` draws the same examples on every run and
reads no example database, so a CI result depends only on the code.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, deadline=None)
