"""Refusals no other test reaches: each raises its exception type with a
message that names what was refused."""

from fractions import Fraction

import pytest

from fqincidence import apps, bounds, geom, harness, reductions, setsys
from fqincidence.errors import BudgetExceeded, DegreeOutOfRange, Unrealizable
from fqincidence.ffield import make_field

F7 = make_field(7, 1)


def plane_system():
    planes = [geom.plane_through_one((1, 0, 0)), geom.plane_through_one((0, 1, 0))]
    return setsys.neighborhood_system(F7, [(1, 0, 0), (0, 1, 0)], planes, "by_point")


REFUSALS = {
    # a Mersenne prime past the cap: refused before any trial division
    "order past the cap": (lambda: harness.split_prime_power(2**61 - 1),
                           DegreeOutOfRange, "exceeds the cap"),
    "unknown preset": (lambda: harness.preset("heavy-9", 7), ValueError, "unknown preset"),
    "sphere scan past its q": (
        lambda: harness.run_suite(harness.ExperimentConfig(17, 1, "q3mod4-geometry")),
        BudgetExceeded, "sphere scan capped at q <= 13"),
    "member outside the ground set": (lambda: setsys.SetSystem(3, [0b1000]),
                                      ValueError, "family member outside the ground set"),
    "unknown side": (lambda: setsys.neighborhood_system(F7, [], [], "by_line"),
                     ValueError, "side must be by_point or by_plane"),
    "shattered element outside": (lambda: setsys.is_shattered(plane_system(), [5]),
                                  ValueError, "element 5 outside ground set"),
    "d_max below 1": (lambda: setsys.vc_dimension(plane_system(), 0),
                      ValueError, "d_max must be in [1, 6]"),
    "d_max above 6": (lambda: setsys.vc_dimension(plane_system(), 7),
                      ValueError, "d_max must be in [1, 6]"),
    "z past the ground set": (lambda: setsys.shatter_function(plane_system(), 3),
                              ValueError, "z = 3 outside [0, 2]"),
    "negative z": (lambda: setsys.shatter_function(plane_system(), -1),
                   ValueError, "z = -1 outside [0, 2]"),
    "negative Sauer-Shelah level": (lambda: setsys.sauer_shelah(3, -1),
                                    ValueError, "z and d must be nonnegative"),
    "zero plane normal": (lambda: geom.plane_through_one((0, 0, 0)),
                          ValueError, "plane normal must be nonzero"),
    "unknown count method": (lambda: geom.count_incidences(F7, [], [], method="matrix"),
                             ValueError, "unknown method 'matrix'"),
    "collinearity of no points": (lambda: geom.max_collinear(F7, []),
                                  ValueError, "need at least one point"),
    "unknown energy method": (
        lambda: reductions.count_solutions(F7, geom.slope_lines(F7, [1], [0]), [2], "matrix"),
        ValueError, "unknown method 'matrix'"),
    "exponent denominator": (lambda: bounds.floor_scale(1, 7, Fraction(1, 1001)),
                             ValueError, "has a denominator over 1000"),
    "params without sizes": (lambda: bounds.regime_report(bounds.RegimeParams(7, 0.5)),
                             ValueError, "neither line nor plane sizes"),
    "negative prime-field power": (lambda: F7.pow(2, -1),
                                   ValueError, "negative exponent; invert explicitly"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal_names_its_fault(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_preset_refuses_when_no_draw_meets_the_collinearity_cap(monkeypatch):
    monkeypatch.setattr(harness, "_CAP_ATTEMPTS", 0)
    with pytest.raises(Unrealizable, match="no point set met the collinearity cap k = 1"):
        harness.preset("light-1", 7)


def test_bisector_scan_refuses_past_its_pair_budget(monkeypatch):
    monkeypatch.setattr(apps, "BISECTOR_PAIR_BUDGET", 5)
    E = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]  # 6 pairs against one point
    with pytest.raises(BudgetExceeded, match="bisector pair scan over budget"):
        apps.bisector_collinear_k(F7, E, [(2, 2, 2)])
