import random
from itertools import combinations
from math import comb

import pytest

from fqincidence.errors import BudgetExceeded, SubsetTooLarge
from fqincidence.ffield import make_field
from fqincidence.geom import all_planes_through_one, count_incidences, plane_through_one
from fqincidence.setsys import (
    SetSystem,
    is_shattered,
    neighborhood_system,
    sauer_shelah,
    shatter_function,
    vc_dimension,
)


def powerset_system(n):
    return SetSystem(n, list(range(1 << n)))


def singleton_system(n):
    return SetSystem(n, [1 << i for i in range(n)])


def all_points3(q):
    return [(i % q, (i // q) % q, i // (q * q)) for i in range(q**3)]


def test_from_sets_roundtrip_and_sizes():
    s = SetSystem.from_sets(5, [[0, 2], [], [4, 1, 2]])
    assert s.member_elements(0) == (0, 2)
    assert s.member_elements(1) == ()
    assert s.family[2].bit_count() == 3
    with pytest.raises(ValueError):
        SetSystem.from_sets(3, [[3]])


def test_neighborhood_sizes_gf3():
    fs = make_field(3, 1)
    planes = all_planes_through_one(fs)
    sys_bp = neighborhood_system(fs, [(1, 0, 0)], planes, "by_point")
    assert sys_bp.ground_size == 26
    assert sys_bp.family[0].bit_count() == 9  # planes with first normal coordinate 1


def test_neighborhood_empty_points():
    fs = make_field(3, 1)
    planes = all_planes_through_one(fs)
    s = neighborhood_system(fs, [], planes, "by_point")
    assert s.family == []


def test_neighborhood_sizes_match_incidence_oracle():
    fs = make_field(5, 1)
    rng = random.Random(21)
    pts = random.Random(21).sample(all_points3(5), 10)
    planes = [
        plane_through_one((i % 5, (i // 5) % 5, i // 25))
        for i in rng.sample(range(1, 125), 10)
    ]
    s = neighborhood_system(fs, pts, planes, "by_point")
    for i, pt in enumerate(pts):
        expected = count_incidences(fs, [pt], planes, "oracle").count
        assert s.family[i].bit_count() == expected
    dual = neighborhood_system(fs, pts, planes, "by_plane")
    for j, pl in enumerate(planes):
        expected = count_incidences(fs, pts, [pl], "oracle").count
        assert dual.family[j].bit_count() == expected


def test_is_shattered_power_set_and_singletons():
    assert is_shattered(powerset_system(3), [0, 1, 2]) is True
    assert is_shattered(singleton_system(3), [0, 1]) is False


def test_is_shattered_rejects_large_subset():
    with pytest.raises(SubsetTooLarge):
        is_shattered(powerset_system(3), list(range(21)))


def test_no_four_points_shattered_by_planes_gf3():
    fs = make_field(3, 1)
    planes = all_planes_through_one(fs)
    rng = random.Random(3)
    pts = rng.sample(all_points3(3), 8)
    system = neighborhood_system(fs, pts, planes, "by_plane")
    for four in combinations(range(len(pts)), 4):
        assert is_shattered(system, four) is False


def test_vc_dimension_singletons_and_powerset():
    assert vc_dimension(singleton_system(3), 3) == (1, False)
    assert vc_dimension(powerset_system(3), 3) == (3, True)
    assert vc_dimension(powerset_system(3), 4) == (3, False)


def test_vc_dimension_degenerate_families():
    assert vc_dimension(SetSystem(4, []), 2) == (0, False)
    assert vc_dimension(SetSystem(4, [0b1111]), 2) == (0, False)


def test_vc_dimension_budget():
    with pytest.raises(BudgetExceeded):
        vc_dimension(SetSystem(4000, [1]), 4)


def brute_vc_dimension(system, d_max):
    best = 0
    for d in range(1, d_max + 1):
        hit = False
        for s in combinations(range(system.ground_size), d):
            if is_shattered(system, s):
                hit = True
                break
        if not hit:
            break
        best = d
    return best


def test_vc_dimension_matches_brute_force_random_systems():
    rng = random.Random(77)
    for _ in range(30):
        ground = rng.randint(1, 9)
        fam = [rng.randrange(1 << ground) for _ in range(rng.randint(0, 12))]
        system = SetSystem(ground, fam)
        expect = brute_vc_dimension(system, 4)
        got = vc_dimension(system, 4)
        assert got.dimension == expect
        assert got.saturated == (expect == 4)


@pytest.mark.parametrize("q,p,n", [(3, 3, 1), (5, 5, 1)])
def test_plane_system_vc_at_most_three(q, p, n):
    fs = make_field(p, n)
    planes = all_planes_through_one(fs)
    rng = random.Random(q)
    pts = rng.sample(all_points3(q), min(q**3, 30))
    for side in ("by_point", "by_plane"):
        system = neighborhood_system(fs, pts, planes[: min(len(planes), 30)], side)
        assert vc_dimension(system, 4).dimension <= 3


def test_shatter_function_values():
    assert shatter_function(powerset_system(3), 0) == (1,)
    assert shatter_function(powerset_system(3), 2) == (4,)
    fs = make_field(3, 1)
    system = neighborhood_system(
        fs, all_points3(3), all_planes_through_one(fs), "by_point"
    )
    val = shatter_function(system, 4)
    assert val.value <= sauer_shelah(4, 3) == 15


def test_shatter_function_budget():
    with pytest.raises(BudgetExceeded):
        shatter_function(SetSystem(200, [1]), 10)


def test_sauer_shelah_values():
    assert sauer_shelah(4, 3) == 15  # 1 + 4 + 6 + 4
    assert sauer_shelah(7, 0) == 1
    assert sauer_shelah(3, 3) == 8
    assert sauer_shelah(3, 9) == 8  # d past z adds nothing


def test_sauer_shelah_bounds_every_exact_shatter_value():
    rng = random.Random(5)
    for _ in range(20):
        ground = rng.randint(1, 8)
        fam = [rng.randrange(1 << ground) for _ in range(rng.randint(1, 10))]
        system = SetSystem(ground, fam)
        d = vc_dimension(system, min(4, ground)).dimension
        for z in range(0, min(ground, 5) + 1):
            val = shatter_function(system, z).value
            assert val <= sauer_shelah(z, d) or d == min(4, ground)


def test_full_plane_system_member_sizes_gf3():
    fs = make_field(3, 1)
    system = neighborhood_system(
        fs, all_points3(3), all_planes_through_one(fs), "by_point"
    )
    sizes = [m.bit_count() for m in system.family]
    # every nonzero point lies on exactly q^2 planes a . x = 1, the origin on none
    assert sizes == [0] + [9] * 26
