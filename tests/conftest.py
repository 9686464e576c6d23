"""Settings shared by every test module.

Hypothesis draws the same examples on every run (derandomize) and has no
per-example deadline, so a slow machine cannot fail a property test.
The spectral fixture pins geom.spectrum_pays, the rule that sends a plane
count through one transform of the planes, off or on.
"""

import pytest
from hypothesis import settings

from fqincidence import geom

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(params=[False, True], ids=["spectral-off", "spectral-on"])
def spectral(request, monkeypatch):
    """geom.spectrum_pays pinned off, so the pairwise sides count every plane,
    or on, so the transform does."""
    monkeypatch.setattr(geom, "spectrum_pays", lambda fs, points, flats: request.param)
    return request.param
