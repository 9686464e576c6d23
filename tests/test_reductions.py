import math
import random

import pytest

from fqincidence.errors import VerticalLinePresent
from fqincidence.ffield import make_field
from fqincidence.geom import Line2, count_incidences, grid_points, vertical
from fqincidence.reductions import (
    build_point_plane_sets,
    count_solutions,
    cs_upper,
)


def brute_six_tuples(fs, lines, a_set):
    """Independent oracle: literal enumeration of the defining 6-tuples."""
    total = 0
    for a, b in lines:
        for x in a_set:
            for ap, bp in lines:
                for xp in a_set:
                    lhs = fs.add(fs.mul(a, x), b)
                    rhs = fs.add(fs.mul(ap, xp), bp)
                    total += lhs == rhs
    return total


def random_nonvertical(rng, q, count):
    return [Line2("N", i // q, i % q) for i in rng.sample(range(q * q), count)]


def test_single_line_two_points():
    fs = make_field(5, 1)
    assert count_solutions(fs, [Line2("N", 1, 0)], [0, 1]) == 2


def test_full_family_uniform():
    for p in (3, 5):
        fs = make_field(p, 1)
        lines = [Line2("N", a, b) for a in range(p) for b in range(p)]
        count = count_solutions(fs, lines, list(range(p)), "fast")
        assert count == p**5
        assert count_solutions(fs, lines, list(range(p)), "oracle") == p**5


def test_fast_matches_oracle_and_brute_force():
    fs = make_field(7, 1)
    for trial in range(12):
        rng = random.Random(60 + trial)
        lines = random_nonvertical(rng, 7, rng.randint(1, 12))
        a_set = sorted(rng.sample(range(7), rng.randint(1, 5)))
        fast = count_solutions(fs, lines, a_set, "fast")
        oracle = count_solutions(fs, lines, a_set, "oracle")
        pairs = [(ln.a, ln.b) for ln in lines]
        assert fast == oracle == brute_six_tuples(fs, pairs, a_set)


def test_count_lower_bound_diagonal():
    fs = make_field(9 // 3, 2)  # GF(9)
    rng = random.Random(1)
    lines = random_nonvertical(rng, 9, 6)
    a_set = sorted(rng.sample(range(9), 4))
    assert count_solutions(fs, lines, a_set) >= len(lines) * len(a_set)


def test_vertical_lines_rejected():
    fs = make_field(5, 1)
    with pytest.raises(VerticalLinePresent):
        count_solutions(fs, [vertical(2)], [0])
    with pytest.raises(VerticalLinePresent):
        build_point_plane_sets(fs, [vertical(2)], [0])


def test_build_single_tuple():
    fs = make_field(5, 1)
    out = build_point_plane_sets(fs, [Line2("N", 1, 0)], [0])
    assert len(out.points3) == len(out.planes3) == 1
    assert out.solution_count == 1
    inc = count_incidences(fs, out.points3, out.planes3, "oracle").count
    assert inc == 1
    assert out.k_bound == 1


def test_build_identity_random():
    fs = make_field(5, 1)
    for trial in range(10):
        rng = random.Random(90 + trial)
        lines = random_nonvertical(rng, 5, 4)
        a_set = sorted(rng.sample(range(5), 3))
        out = build_point_plane_sets(fs, lines, a_set)
        assert len(out.points3) == len(out.planes3) == 12
        inc = count_incidences(fs, out.points3, out.planes3, "oracle").count
        assert inc == out.solution_count


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_build_identity_across_fields(p, n):
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(1000 * q)
    lines = random_nonvertical(rng, q, min(8, q * q))
    a_set = sorted(rng.sample(range(q), min(4, q)))
    out = build_point_plane_sets(fs, lines, a_set)
    inc = count_incidences(fs, out.points3, out.planes3, "oracle").count
    assert inc == out.solution_count == count_solutions(fs, lines, a_set, "oracle")


def test_k_bound_is_max():
    fs = make_field(7, 1)
    lines = [Line2("N", 1, 0), Line2("N", 1, 2), Line2("N", 2, 0)]  # two slopes
    out = build_point_plane_sets(fs, lines, [0, 1, 4])
    assert out.k_bound == 3  # max(|A| = 3, |slopes| = 2)


def test_duplicates_counted():
    fs = make_field(5, 1)
    lines = [Line2("N", 1, 0), Line2("N", 1, 0)]
    out = build_point_plane_sets(fs, lines, [0, 1])
    assert len(out.points3) == 4
    # multiset energy: each of the 2 diagonal solutions x = x' appears once
    # per ordered pair of line copies, so 2 * (2*2) = 8
    assert out.solution_count == count_solutions(fs, lines, [0, 1], "oracle") == 8


def test_cs_upper_empty_b():
    fs = make_field(5, 1)
    rep = cs_upper(fs, [Line2("N", 1, 0)], [0, 1], [])
    assert rep.value == 0
    assert rep.actual == 0
    assert rep.holds


def test_cs_upper_example():
    fs = make_field(5, 1)
    rep = cs_upper(fs, [Line2("N", 1, 0)], [0, 1], list(range(5)))
    assert rep.actual == 2
    assert rep.value == pytest.approx(math.sqrt(5) * math.sqrt(2))
    assert rep.holds


@pytest.mark.parametrize("wrap", [list, iter, lambda ls: (ln for ln in ls)],
                         ids=["list", "iterator", "generator"])
def test_cs_upper_reads_lines_once(wrap):
    # an iterator of lines must give the same report as the list: energy and
    # oracle count both come from one pass over it
    fs = make_field(5, 1)
    lines = [Line2("N", a, b) for a, b in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 3), (4, 1)]]
    a_set, b_set = [0, 1, 2], [0, 1, 2, 3]
    rep = cs_upper(fs, wrap(lines), a_set, b_set)
    assert rep.solution_count == brute_six_tuples(fs, [ln[1:] for ln in lines], a_set)
    assert rep.actual == count_incidences(fs, grid_points(a_set, b_set), lines, "oracle").count
    assert rep.value == pytest.approx(math.sqrt(len(b_set) * rep.solution_count))
    assert rep.holds


def test_cs_upper_holds_on_random_configs():
    fs = make_field(3, 2)  # GF(9)
    for trial in range(10):
        rng = random.Random(130 + trial)
        lines = random_nonvertical(rng, 9, rng.randint(1, 10))
        a_set = sorted(rng.sample(range(9), rng.randint(1, 5)))
        b_set = sorted(rng.sample(range(9), rng.randint(1, 9)))
        rep = cs_upper(fs, lines, a_set, b_set)
        assert rep.holds
        actual = count_incidences(
            fs, grid_points(a_set, b_set), lines, "oracle").count
        assert rep.actual == actual


def test_projection_collinearity_within_k_bound():
    # the Oxy shadow of the lifted points is a grid subset of A x slopes,
    # so no line can beat max(|A|, |slopes|)
    fs = make_field(7, 1)
    for trial in range(6):
        rng = random.Random(200 + trial)
        lines = random_nonvertical(rng, 7, rng.randint(2, 10))
        a_set = sorted(rng.sample(range(7), rng.randint(2, 6)))
        out = build_point_plane_sets(fs, lines, a_set)  # raises on violation
        assert out.k_bound >= max(len(a_set), len({ln.a for ln in lines}))
