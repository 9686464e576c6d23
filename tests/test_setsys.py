import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqincidence import setsys
from fqincidence.errors import BudgetExceeded, SubsetTooLarge
from fqincidence.ffield import make_field
from fqincidence.geom import (
    all_planes_through_one,
    count_incidences,
    decode_points,
    plane_through_one,
)
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


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_numpy_members_and_elements_read_as_ints(dtype):
    # 1 << np.int64(70) is 0 in numpy, so element 70 must be shifted as an int
    sets = [[70, 71], [70], [71], [], [0, 70, 99], [5, 71, 3]]
    lists = SetSystem.from_sets(100, sets)
    rows = SetSystem.from_sets(100, [np.array(s, dtype=dtype) for s in sets])
    assert rows.family == lists.family and lists.family[1] == 1 << 70
    assert {type(m) for m in rows.family} == {int}
    assert vc_dimension(rows, 3) == vc_dimension(lists, 3) == (2, False)
    assert shatter_function(rows, 2) == shatter_function(lists, 2)
    for subset in ([70, 71], [0, 70], [3, 5, 71]):
        assert is_shattered(lists, np.array(subset, dtype=dtype)) == is_shattered(lists, subset)
    assert is_shattered(lists, np.array([70, 71], dtype=dtype)) is True
    # members given as numpy integers
    members = list(np.array([0, 1, 2, 3, 5], dtype=dtype))
    masks, plain = SetSystem(4, members), SetSystem(4, [0, 1, 2, 3, 5])
    assert masks.family == plain.family and {type(m) for m in masks.family} == {int}
    assert vc_dimension(masks, 3) == vc_dimension(plain, 3)
    assert shatter_function(masks, 2) == shatter_function(plain, 2)
    assert masks.member_elements(4) == (0, 2)


def test_non_integer_members_and_elements_are_refused():
    with pytest.raises(ValueError, match="family member 1.0 is not an integer"):
        SetSystem(4, [1.0, 2])
    with pytest.raises(ValueError, match="element 1.0 is not an integer"):
        SetSystem.from_sets(4, [[1.0]])
    with pytest.raises(ValueError, match="not an integer"):
        is_shattered(powerset_system(3), [0, 1.5])


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


# Differential tests of the bit-sliced trace kernel behind vc_dimension and
# shatter_function.  The families below have more than 64 distinct members,
# so member columns span several uint64 words, and ground sets past 64, so
# member bitmasks span several machine words too.


def brute_trace_counts(system, d):
    """Distinct traces on every d-subset of the ground set, in lex order.

    Independent of the kernel: each member's trace is a d-bit code, and a
    sorted row of codes counts its distinct values.
    """
    n = system.ground_size
    inc = np.array([[m >> e & 1 for e in range(n)] for m in system.family],
                   np.uint8).reshape(-1, n)
    weights = (1 << np.arange(d)).astype(np.uint8)
    out = []
    subsets = list(combinations(range(n), d))
    for lo in range(0, len(subsets), 4096):
        chunk = np.array(subsets[lo : lo + 4096], np.intp).reshape(-1, d)
        codes = (inc[:, chunk] * weights).sum(axis=2, dtype=np.uint8).T
        codes.sort(axis=1)
        out.append((np.diff(codes, axis=1) != 0).sum(axis=1) + (codes.shape[1] > 0))
    return np.concatenate(out) if out else np.zeros(0, np.intp)


def brute_vc_by_counts(system, d_max):
    best = 0
    for d in range(1, d_max + 1):
        if not (brute_trace_counts(system, d) == 1 << d).any():
            break
        best = d
    return best


def wide_system(seed, ground, n_members, density, extras):
    rng = random.Random(seed)
    fam = [sum(1 << e for e in range(ground) if rng.random() < density)
           for _ in range(n_members)]
    if "dup" in extras:
        fam += rng.sample(fam, min(len(fam), 7))
    if "empty" in extras:
        fam.append(0)
    if "full" in extras:
        fam.append((1 << ground) - 1)
    rng.shuffle(fam)
    return SetSystem(ground, fam)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    ground=st.integers(1, 75),
    n_members=st.integers(0, 140),
    density=st.sampled_from([0.03, 0.08, 0.15, 0.3, 0.5]),
    extras=st.sets(st.sampled_from(["dup", "empty", "full"])),
)
def test_kernel_matches_brute_trace_counts_on_wide_families(
    seed, ground, n_members, density, extras
):
    system = wide_system(seed, ground, n_members, density, extras)
    d_max = min(3, ground)
    expect = brute_vc_by_counts(system, d_max)
    assert vc_dimension(system, d_max) == (expect, expect == d_max)
    for z in range(1, d_max + 1):
        counts = brute_trace_counts(system, z)
        assert shatter_function(system, z).value == int(counts.max(initial=0))


@settings(max_examples=60)
@given(
    st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=20),
        st.integers(0, n),
    ))
)
def test_shatter_function_matches_set_traces_for_every_z(args):
    n, fam, z = args
    expect = max(len({m & sum(1 << e for e in s) for m in fam})
                 for s in combinations(range(n), z))
    assert shatter_function(SetSystem(n, fam), z).value == expect


def test_shatter_function_searches_past_a_block_one_short():
    # the first lexicographic pairs (0, x) reach only 3 of the 4 members'
    # traces; the first pair with 4 is (0, 299), hundreds of pairs later
    system = SetSystem.from_sets(300, [(0, 1, 298, 299), (0, 298), (299,), ()])
    assert shatter_function(system, 2).value == 4
    assert shatter_function(system, 1).value == 2
    assert vc_dimension(system, 3) == (2, False)


@pytest.mark.parametrize("seed", range(6))
def test_vc_dimension_matches_is_shattered_past_one_word(seed):
    rng = random.Random(seed)
    system = wide_system(seed, rng.randint(65, 72), rng.randint(65, 90),
                         rng.choice([0.05, 0.1, 0.2]), {"dup", "empty"})
    assert len(set(system.family)) > 64
    expect = brute_vc_dimension(system, 2)
    assert vc_dimension(system, 2) == (expect, expect == 2)
    best = max(len({m & (1 << a | 1 << b) for m in system.family})
               for a, b in combinations(range(system.ground_size), 2))
    assert shatter_function(system, 2).value == best


def test_sauer_shelah_tight_family_spanning_words():
    # every subset of size <= 2 of twelve elements spread over a 129-element
    # ground: 79 distinct members, VC dimension 2, and on every triple of
    # those elements exactly the 1 + 3 + 3 traces Sauer-Shelah allows
    spread = [0, 7, 31, 32, 62, 63, 64, 65, 90, 100, 127, 128]
    sets = [()] + [(e,) for e in spread] + list(combinations(spread, 2))
    system = SetSystem.from_sets(129, sets + sets[:5])
    assert len(set(system.family)) == 79
    assert vc_dimension(system, 3) == (2, False)
    assert vc_dimension(system, 2) == (2, True)
    for z in (1, 2, 3):
        assert shatter_function(system, z).value == sauer_shelah(z, 2)
    assert is_shattered(system, [63, 64])
    assert not is_shattered(system, [0, 64, 128])


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2)])
def test_full_configuration_sides_share_vc_dimension(p, n):
    fs = make_field(p, n)
    points = decode_points(fs.q, range(fs.q**3))
    planes = all_planes_through_one(fs)
    dims = {
        side: vc_dimension(neighborhood_system(fs, points, planes, side), 4)
        for side in ("by_point", "by_plane")
    }
    assert dims["by_point"] == dims["by_plane"] == (3, False)


# The two phases of shatter_function: the z-subsets of members first (a
# shattered z-set realizes its full trace, so lies in a member), then the
# lexicographic scan, which may stop at 2^z - 1 once the first found none.


def brute_shatter(system, z):
    return int(brute_trace_counts(system, z).max(initial=0))


def test_shatter_function_finds_a_set_shattered_only_in_the_last_member():
    # chains of triples below 7 hold no shattered set; {7, 8, 9} is the
    # largest member by mask and among the largest by size
    sets = [(), (7,), (8,), (9,), (7, 8), (7, 9), (8, 9)]
    sets += [(i, i + 1, i + 2) for i in range(5)] + [(7, 8, 9)]
    system = SetSystem.from_sets(10, sets)
    counts = brute_trace_counts(system, 3)
    assert list(combinations(range(10), 3))[int(counts.argmax())] == (7, 8, 9)
    assert (counts == 8).sum() == 1
    assert shatter_function(system, 3).value == 8
    assert vc_dimension(system, 4) == (brute_vc_by_counts(system, 4), False) == (3, False)


@pytest.mark.parametrize("ground", [40, 150])
def test_shatter_function_one_short_outside_every_member(ground):
    # the proper subsets of T, the last triple, give it 7 = 2^3 - 1 traces,
    # and T lies in no member; the first triple {0, 1, 2} has 6
    t = tuple(range(ground - 3, ground))
    sets = [s for r in range(3) for s in combinations(t, r)]
    sets += [(0,), (1,), (2,), (0, 1), (0, 2)]
    system = SetSystem.from_sets(ground, sets)
    counts = brute_trace_counts(system, 3)
    assert int(counts[0]) == 6
    assert [s for s, c in zip(combinations(range(ground), 3), counts) if c == 7] == [t]
    assert shatter_function(system, 3).value == 7
    assert shatter_function(system, 2).value == 4 == brute_shatter(system, 2)
    assert vc_dimension(system, 3) == (2, False)


@pytest.mark.parametrize("seed", range(4))
def test_shatter_function_with_z_past_every_member(seed):
    rng = random.Random(seed)
    sets = [rng.sample(range(9), rng.randint(0, 2)) for _ in range(30)]
    system = SetSystem.from_sets(9, sets)
    for z in (3, 4, 5):
        assert shatter_function(system, z).value == brute_shatter(system, z)


@pytest.mark.parametrize("sets", [
    [(), (), (1, 2), (1, 2), (1,), (2,)],
    [(), (0, 1, 2), (0, 1, 2)],
    [(0, 3), (0, 3), (0,), (3,), (), (), (0, 1, 2, 3)],
    [(), ()],
    [(4,), (4,), (4,)],
])
def test_shatter_function_duplicate_and_empty_members(sets):
    system = SetSystem.from_sets(5, sets)
    for z in range(1, 6):
        assert shatter_function(system, z).value == brute_shatter(system, z)
    expect = brute_vc_by_counts(system, 4)
    assert vc_dimension(system, 4) == (expect, expect == 4)


@pytest.mark.parametrize("p,n", [(7, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("side", ["by_point", "by_plane"])
def test_search_matches_brute_counts_at_benchmark_shape(p, n, side):
    # 40 nonzero points and 40 planes a . x = 1, as in random VC workloads
    fs = make_field(p, n)
    for seed in range(2):
        rng = random.Random(f"{fs.q}/{side}/{seed}")
        points = decode_points(fs.q, rng.sample(range(1, fs.q**3), 40))
        planes = [plane_through_one(a)
                  for a in decode_points(fs.q, rng.sample(range(1, fs.q**3), 40))]
        system = neighborhood_system(fs, points, planes, side)
        expect = brute_vc_by_counts(system, 4)
        assert vc_dimension(system, 4) == (expect, expect == 4)
        assert shatter_function(system, 3).value == brute_shatter(system, 3)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    ground=st.integers(4, 28),
    n_members=st.integers(0, 90),
    density=st.sampled_from([0.03, 0.08, 0.15]),
    extras=st.sets(st.sampled_from(["dup", "empty", "full"])),
)
def test_search_matches_brute_counts_on_sparse_families(
    seed, ground, n_members, density, extras
):
    system = wide_system(seed, ground, n_members, density, extras)
    expect = brute_vc_by_counts(system, 4)
    assert vc_dimension(system, 4) == (expect, expect == 4)
    for z in (3, 4):
        assert shatter_function(system, z).value == brute_shatter(system, z)


def test_shatter_function_scans_nothing_past_a_member_that_shatters(monkeypatch):
    sets = [(), (30,), (31,), (32,), (30, 31), (30, 32), (31, 32), (30, 31, 32)]
    sets += [tuple(range(i, i + 5)) for i in range(0, 25, 5)]
    system = SetSystem.from_sets(40, sets)
    handed = []

    def counting(cols, ncols, cands, floor):
        handed.append(len(cands))
        return kernel(cols, ncols, cands, floor)

    kernel = setsys._max_traces
    monkeypatch.setattr(setsys, "_max_traces", counting)
    assert shatter_function(system, 3).value == 8
    assert 0 < sum(handed) <= sum(comb(len(s), 3) for s in set(sets)) < comb(40, 3)


def test_combination_tables_stay_within_the_cache_bound(monkeypatch):
    built = []

    def recording(k, d):
        t = table(k, d)
        built.append(t.nbytes)
        assert not t.flags.writeable
        assert (t == np.array(list(combinations(range(k), d)), np.intp).reshape(-1, d)).all()
        return t

    table = setsys._table
    monkeypatch.setattr(setsys, "_table", recording)
    assert table.cache_info().maxsize == 32
    shatter_function(SetSystem(30000, [1, 2, 4]), 1)  # one row of 30000 sets
    shatter_function(SetSystem(12, [5, 9, 17]), 6)
    shatter_function(SetSystem(33, [3, 5]), 32)
    for seed in range(3):
        system = wide_system(seed, 70, 140, 0.1, {"dup"})
        vc_dimension(system, 3)
        shatter_function(system, 2)
    assert built and max(built) <= 256 * 1024


def test_shatter_function_reuses_the_level_vc_dimension_searched(monkeypatch):
    # a 40 x 40 plane system over GF(7), as in the random VC workloads
    fs = make_field(7, 1)
    rng = random.Random(0)
    points = decode_points(fs.q, rng.sample(range(1, fs.q**3), 40))
    planes = [plane_through_one(a)
              for a in decode_points(fs.q, rng.sample(range(1, fs.q**3), 40))]
    system = neighborhood_system(fs, points, planes, "by_point")
    handed = []

    def counting(cols, ncols, cands, floor):
        handed.append(len(cands))
        return kernel(cols, ncols, cands, floor)

    kernel = setsys._max_traces
    monkeypatch.setattr(setsys, "_max_traces", counting)
    assert vc_dimension(system, 4) == (3, False)
    assert sum(handed) > 0
    handed.clear()
    assert shatter_function(system, 3).value == 8
    assert handed == []


def test_searches_follow_a_family_changed_in_place():
    # every proper subset of {0, 1, 2, 3}: VC 3 until the full set joins
    system = SetSystem.from_sets(6, [s for r in range(4) for s in combinations(range(4), r)])
    assert vc_dimension(system, 4) == (3, False)
    assert shatter_function(system, 4).value == 15
    system.family.append(0b1111)
    assert vc_dimension(system, 4) == (brute_vc_by_counts(system, 4), True) == (4, True)
    assert shatter_function(system, 4).value == brute_shatter(system, 4) == 16
    system.family[-1] = 0b110000
    assert vc_dimension(system, 4) == (brute_vc_by_counts(system, 4), False)
    assert shatter_function(system, 4).value == brute_shatter(system, 4)
