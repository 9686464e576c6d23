"""Desk-scale incidence geometry over finite fields.

Submodules:
    ffield      exact GF(p^n) arithmetic with canonical element indexing
    geom        points/lines/planes, exact incidence counting, collinearity
    setsys      set systems, shattering, VC dimension, shatter function
    bounds      closed-form bound evaluators and regime comparison
    reductions  the point-line to point-plane energy reduction
    apps        distance sets, dot-product sets, regular subsets, trace pairs
    harness     seeded generators, verification suites, CSV emission
    fileio      flat-file formats for points, lines, planes, set systems
    cli         the fqincidence command line
"""

from . import apps, bounds, ffield, fileio, geom, harness, reductions, setsys
from .ffield import FieldSpec, make_field

__all__ = [
    "FieldSpec",
    "make_field",
    "apps",
    "bounds",
    "ffield",
    "fileio",
    "geom",
    "harness",
    "reductions",
    "setsys",
]
