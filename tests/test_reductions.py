import math
import random

import numpy as np
import pytest

from fqincidence import geom, reductions
from fqincidence.errors import FieldMismatch, SizeCap, VerticalLinePresent
from fqincidence.ffield import make_field
from fqincidence.geom import Line2, count_incidences, dot3, grid_points, max_collinear, vertical
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


def on_plane_vs_equation(fs, lines, a_set, out):
    """Per (point, plane) pair of a lift: whether the point lies on the plane,
    and whether a*x + b = a'*x' + b' for the point (x, a', b') over A x L and
    the plane of (a, b, x') over L x A."""
    pts = [(x, ap, bp) for x in a_set for _, ap, bp in lines]
    assert out.points3.tolist() == [list(pt) for pt in pts]
    params = [(a, b, xp) for _, a, b in lines for xp in a_set]
    add, mul = fs.add, fs.mul
    return [(dot3(fs, pl.normal, (x, ap, bp)) == pl.rhs,
             add(mul(a, x), b) == add(mul(ap, xp), bp))
            for x, ap, bp in pts for pl, (a, b, xp) in zip(out.planes3, params)]


def lift(fs, lines, a_set):
    """build_point_plane_sets, with the sign convention checked on every
    (point, plane) pair and the (x, a') shadow's collinearity against k_bound."""
    out = build_point_plane_sets(fs, lines, a_set)
    assert all(on == eq for on, eq in on_plane_vs_equation(fs, lines, a_set, out))
    assert max_collinear(fs, [pt[:2] for pt in out.points3])[0] <= out.k_bound
    return out


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


def test_oracle_refuses_past_its_tuple_cap(monkeypatch):
    fs = make_field(3, 1)
    lines = [Line2("N", a, b) for a in range(3) for b in range(3)]
    monkeypatch.setattr(reductions, "ORACLE_TUPLE_CAP", (9 * 3) ** 2 - 1)
    with pytest.raises(SizeCap):
        count_solutions(fs, lines, [0, 1, 2], "oracle")
    assert count_solutions(fs, lines, [0, 1, 2], "fast") == 3**5


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
    out = lift(fs, [Line2("N", 1, 0)], [0])
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
        out = lift(fs, lines, a_set)
        assert len(out.points3) == len(out.planes3) == 12
        inc = count_incidences(fs, out.points3, out.planes3, "oracle").count
        assert inc == out.solution_count


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (2, 4), (5, 4)])
def test_build_identity_across_fields(p, n):
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(1000 * q)
    lines = random_nonvertical(rng, q, min(8, q * q))
    a_set = sorted(rng.sample(range(q), min(4, q)))
    out = lift(fs, lines, a_set)
    inc = count_incidences(fs, out.points3, out.planes3, "oracle").count
    assert inc == out.solution_count == count_solutions(fs, lines, a_set, "oracle")


def test_k_bound_is_max():
    fs = make_field(7, 1)
    lines = [Line2("N", 1, 0), Line2("N", 1, 2), Line2("N", 2, 0)]  # two slopes
    out = lift(fs, lines, [0, 1, 4])
    assert out.k_bound == 3  # max(|A| = 3, |slopes| = 2)


def test_duplicates_counted():
    fs = make_field(5, 1)
    lines = [Line2("N", 1, 0), Line2("N", 1, 0)]
    out = lift(fs, lines, [0, 1])
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


@pytest.mark.parametrize("b_set", [[99], [1.5]])
def test_cs_upper_reads_b_with_an_empty_a(b_set):
    with pytest.raises(FieldMismatch, match="^element "):
        cs_upper(make_field(7, 1), [Line2("N", 1, 2)], [], b_set)


def test_cs_upper_example():
    fs = make_field(5, 1)
    rep = cs_upper(fs, [Line2("N", 1, 0)], [0, 1], list(range(5)))
    assert rep.actual == 2
    assert rep.value == pytest.approx(math.sqrt(5) * math.sqrt(2))
    assert rep.holds


def test_cs_upper_holds_at_equality():
    # y = b for every b of GF(3), A = {0}, B = GF(3): each value is met
    # once, so actual^2 = 9 = |B| energy, while sqrt(3) sqrt(3) rounds below 3
    fs = make_field(3, 1)
    rep = cs_upper(fs, [Line2("N", 0, b) for b in range(3)], [0], [0, 1, 2])
    assert (rep.actual, rep.solution_count) == (3, 3)
    assert rep.value < rep.actual
    assert rep.holds


@pytest.mark.parametrize("extra", [0, 1])
def test_cs_upper_decides_in_integers(extra, monkeypatch):
    # actual = 3k against |B| = 3 and energy = 3k^2: the float value
    # sqrt(3) sqrt(3k^2) lies more than 1e-9 below 3k, and one more
    # incidence breaks the bound
    k = 10**7
    monkeypatch.setattr(reductions, "count_solutions", lambda *args, **kw: 3 * k * k)
    monkeypatch.setattr(reductions, "count_incidences",
                        lambda *args: geom.IncidenceCount(3 * k + extra, "oracle"))
    rep = cs_upper(make_field(3, 1), [Line2("N", 0, 0)], [0], [0, 1, 2])
    assert rep.value < 3 * k - 1e-9
    assert rep.holds is (extra == 0)


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
        out = lift(fs, lines, a_set)
        shadow = [pt[:2] for pt in out.points3]
        assert max_collinear(fs, shadow)[0] <= out.k_bound
        assert out.k_bound >= max(len(a_set), len({ln.a for ln in lines}))


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_plane_sign_convention(p, n):
    # lift checks incidence against the equation on every pair; both
    # outcomes occur here, so that check is not vacuous
    fs = make_field(p, n)
    rng = random.Random(300 + fs.q)
    lines = random_nonvertical(rng, fs.q, 6)
    a_set = rng.sample(range(fs.q), 3)
    out = lift(fs, lines, a_set)
    assert {eq for _, eq in on_plane_vs_equation(fs, lines, a_set, out)} == {True, False}


def test_build_runs_no_collinearity_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("collinearity scan")

    fs = make_field(7, 1)
    rng = random.Random(5)
    lines, a_set = random_nonvertical(rng, 7, 10), [0, 2, 3, 6]
    monkeypatch.setattr(geom, "line_blocks", refuse)
    out = build_point_plane_sets(fs, lines, a_set)
    with pytest.raises(AssertionError, match="collinearity scan"):
        max_collinear(fs, [pt[:2] for pt in out.points3])
    monkeypatch.undo()
    again = lift(fs, lines, a_set)
    assert np.array_equal(again.points3, out.points3) and again.planes3 == out.planes3
    assert (again.k_bound, again.solution_count) == (out.k_bound, out.solution_count)
