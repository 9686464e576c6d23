import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqincidence.bounds import (
    BoundReport,
    RegimeParams,
    eval_cs_line,
    eval_bound,
    eval_distance_dot_lower,
    eval_ks_distance,
    eval_plane_bounds,
    eval_thm_line,
    eval_vinh_line,
    floor_scale,
    holds,
    ratio_of,
    regime_report,
)
from fqincidence.ffield import make_field
from fqincidence.geom import (
    Line2,
    all_planes_through_one,
    count_incidences,
    grid_points,
    plane_through_one,
)


def test_vinh_line_full_grid_main_term_exact():
    rep = eval_vinh_line(5, 25, 25, actual=125)
    assert rep.terms["main"] == 125
    assert abs(125 - rep.terms["main"]) <= rep.terms["deviation"]


def test_vinh_line_empty():
    rep = eval_vinh_line(5, 0, 10)
    assert rep.value == 0
    assert rep.terms == {"main": 0, "deviation": 0}


def test_vinh_line_deviation_observed():
    fs = make_field(7, 1)
    rng = random.Random(2)
    pts = [(i % 7, i // 7) for i in rng.sample(range(49), 30)]
    lines = [Line2("N", i // 7, i % 7) for i in rng.sample(range(49), 40)]
    actual = count_incidences(fs, pts, lines, "oracle").count
    rep = eval_vinh_line(7, 30, 40, actual=actual)
    assert abs(actual - rep.terms["main"]) <= rep.terms["deviation"]


def test_cs_line_symmetric_case():
    rep = eval_cs_line(16, 16)
    assert rep.value == pytest.approx(16**1.5 + 16)


def test_cs_line_single_point():
    rep = eval_cs_line(1, 10)
    assert rep.value <= 11


def test_cs_line_upper_bounds_oracle_counts():
    fs = make_field(7, 1)
    for trial in range(25):
        rng = random.Random(40 + trial)
        n_p = rng.randint(1, 49)
        n_l = rng.randint(1, 56)
        pts = [(i % 7, i // 7) for i in rng.sample(range(49), n_p)]
        lines = []
        for i in rng.sample(range(56), n_l):
            lines.append(Line2("N", i // 7, i % 7) if i < 49 else Line2("V", i - 49, 0))
        actual = count_incidences(fs, pts, lines, "oracle").count
        rep = eval_cs_line(n_p, n_l, actual=actual)
        assert actual <= rep.value * (1 + 1e-9)


@pytest.mark.parametrize("nP, nL", [(1, 10), (16, 16), (7, 40), (40, 7), (0, 5)])
def test_cs_line_reports_do_not_depend_on_q(nP, nL):
    # eval_cs_line passes a placeholder order: no cs_line term has a q factor
    point = {"sqrtP_L": math.sqrt(nP) * nL, "P": nP}
    line = {"P_sqrtL": nP * math.sqrt(nL), "L": nL}
    terms = min(point, line, key=lambda t: sum(t.values()))
    side = "point" if terms is point else "line"
    rep = eval_cs_line(nP, nL, actual=3)
    assert (rep.bound_name, rep.terms) == (f"cs_line[{side}-side]", terms)
    for q in (2, 3, 101, 2**20):
        assert eval_bound("cs_line", RegimeParams(q, 0, nP=nP, nL=nL), 3) == rep


def test_thm_line_empty_b():
    params = RegimeParams(q=9, alpha=0.5, nL=5, nA=3, nB=0, nLx=2)
    assert eval_thm_line(params).value == 0


def test_thm_line_formula_and_hypothesis():
    # the second improved-range recipe: alpha = 2/5, |L_x| = q^{4/5},
    # |L| = q, |A| = q^{4/15}, |B| = q^{3/4}
    q = 100.0
    nL, nLx = 100, round(q ** (4 / 5))
    nA, nB = round(q ** (4 / 15)), round(q ** (3 / 4))
    params = RegimeParams(q=100, alpha=2 / 5, nL=nL, nA=nA, nB=nB, nLx=nLx)
    rep = eval_thm_line(params)
    expected = nL * nA * math.sqrt(nB) / q ** 0.2 + q ** 0.4 * math.sqrt(nL * nA * nB)
    assert rep.value == pytest.approx(expected)
    assert rep.hypotheses["size_condition"] == (nL * nA > q ** 0.4 * max(nA, nLx))


def test_thm_line_hypothesis_flag_does_not_abort():
    params = RegimeParams(q=9, alpha=0.9, nL=1, nA=1, nB=2, nLx=1)
    rep = eval_thm_line(params)
    assert rep.hypotheses_ok is False
    assert rep.value > 0


def test_plane_vinh_full_configuration():
    fs = make_field(3, 1)
    pts = [(i % 3, (i // 3) % 3, i // 9) for i in range(27)]
    planes = all_planes_through_one(fs)
    actual = count_incidences(fs, pts, planes, "fast").count
    rep = eval_plane_bounds(
        RegimeParams(q=3, alpha=0.5, nP=27, nPi=26), actual=actual
    )["plane_vinh"]
    assert actual == 234
    assert rep.terms["main"] == 234
    assert rep.satisfied(1.0)


def test_plane_bounds_zero_points():
    params = RegimeParams(q=5, alpha=0.5, nP=0, nPi=10)
    reps = eval_plane_bounds(params)
    assert reps["plane_vinh"].value == 0
    assert reps["plane_cs"].value == 0
    rep = reps["thm13_by_planes"]
    assert rep.value == pytest.approx(10 * 5.0)  # only the rich term survives


def test_plane_thm_hypotheses():
    params = RegimeParams(q=4, alpha=0.5, nP=100, nPi=3)
    reps = eval_plane_bounds(params)
    assert reps["thm13_by_planes"].hypotheses["planes_at_least_2q^(1+a)"] is False
    assert reps["thm13_by_points"].hypotheses["points_at_least_2q^(1+a)"] is True
    params = RegimeParams(q=4, alpha=0.5, nP=100, nPi=3, k=3)
    rep = eval_plane_bounds(params, max_shared_collinear=2)["thm14"]
    assert rep.hypotheses["no_k_rich_shared_line"] is True
    assert rep.hypotheses["points_at_least_2kq^a"] == (100 >= 2 * 3 * 2.0)


def test_plane_cs_takes_the_minimum():
    params = RegimeParams(q=4, alpha=0.5, nP=100, nPi=2)
    rep = eval_plane_bounds(params)["plane_cs"]
    by_points = math.sqrt(4) * math.sqrt(100) * 2 + 100
    by_planes = math.sqrt(4) * 100 * math.sqrt(2) + 2
    assert rep.value == pytest.approx(min(by_points, by_planes))


def test_one_name_per_plane_bound():
    rng = random.Random(11)
    for _ in range(20):
        q = rng.choice([3, 4, 5, 9])
        k = rng.choice([None, rng.randint(1, 5)])
        params = RegimeParams(q=q, alpha=Fraction(rng.randint(10, 90), 100),
                              nP=rng.randint(0, 60), nPi=rng.randint(0, 60), k=k)
        reps = eval_plane_bounds(params, actual=7, max_shared_collinear=2)
        assert set(reps) == set(regime_report(params, actual=7).bounds)
        assert set(reps) - {"thm14"} == {
            "plane_vinh", "plane_cs", "thm13_by_planes", "thm13_by_points"}
        assert ("thm14" in reps) == (k is not None)
        for name, rep in reps.items():
            assert rep.bound_name.startswith(name)
            assert rep.actual == 7


def test_evaluators_monotone_in_each_size():
    rng = random.Random(99)
    for _ in range(50):
        q = rng.choice([3, 5, 9, 16])
        a = Fraction(rng.randint(10, 90), 100)
        sizes = [rng.randint(1, 50) for _ in range(4)]
        nL, nA, nB, nLx = sizes
        base = eval_thm_line(RegimeParams(q=q, alpha=a, nL=nL, nA=nA, nB=nB, nLx=nLx))
        for bump in ("nL", "nA", "nB"):
            kw = dict(nL=nL, nA=nA, nB=nB, nLx=nLx)
            kw[bump] += 5
            bigger = eval_thm_line(RegimeParams(q=q, alpha=a, **kw))
            assert bigger.value >= base.value
        nP, nPi = sizes[0], sizes[1]
        small = eval_plane_bounds(RegimeParams(q=q, alpha=a, nP=nP, nPi=nPi))
        grown = eval_plane_bounds(RegimeParams(q=q, alpha=a, nP=nP + 3, nPi=nPi + 2))
        for name in small:
            assert grown[name].value >= small[name].value
        assert eval_cs_line(nP + 1, nPi).value >= eval_cs_line(nP, nPi).value
        assert eval_vinh_line(q, nP + 1, nPi).value >= eval_vinh_line(q, nP, nPi).value


def test_ks_distance_branches():
    rep = eval_ks_distance(9, 5, 100)
    assert rep.bound_name == "ks[small]"
    assert rep.value == pytest.approx(min(9, 5 * 100 / 81))
    rep = eval_ks_distance(9, 20, 100)
    assert rep.bound_name == "ks[mid]"
    rep = eval_ks_distance(9, 100, 100)
    assert rep.bound_name == "ks[large]"


def test_distance_dot_lower_branches():
    rep = eval_distance_dot_lower(9, 0.5, nE=30, nF=20, k=2)
    assert rep.bound_name.endswith("[large_E]")  # 30 >= 9^1.5
    assert rep.value == pytest.approx(max(2, 3.0))
    assert rep.hypotheses["F_over_2kq^a"]  # 20 > 2 * 2 * 3
    rep = eval_distance_dot_lower(9, 0.5, nE=20, nF=20, k=6)
    assert rep.bound_name.endswith("[small_E]")
    assert rep.value == 6.0
    assert not rep.hypotheses["F_over_2kq^a"]  # 20 <= 2 * 6 * 3


def test_regime_report_line_preset_one_is_inconsistent():
    # alpha = 1/4, |L_x| = q^{1/2}, |L| = q^{5/8}, |A| = q^{1/12}, |B| = q^{2/3}:
    # |L||A| = q^{17/24} < q^{3/4} = q^alpha * |L_x|, so the size hypothesis
    # fails at every q; the report must say so rather than repair the preset.
    for q in (16, 81, 1024):
        params = RegimeParams(
            q=q, alpha=1 / 4,
            nL=round(q ** (5 / 8)), nA=round(q ** (1 / 12)),
            nB=round(q ** (2 / 3)), nLx=round(q ** (1 / 2)),
        )
        rep = regime_report(params)
        assert rep.kind == "line"
        assert rep.flags["hyp_size_condition"] is False
        assert rep.hypotheses_ok is False


def test_regime_report_plane_example_flags():
    # alpha = 1/3 with |Pi| = q^{3/2}, |P| = q^{11/10}
    q = 9
    params = RegimeParams(
        q=q, alpha=Fraction(1, 3), nP=round(q ** 1.1), nPi=round(q ** 1.5))
    rep = regime_report(params)
    assert rep.kind == "plane"
    assert set(rep.flags) >= {"case1_P_between_q3a_q1p2a", "case2_PPi_below_q4"}
    assert rep.winner in rep.bounds


def test_regime_report_winner_is_argmin():
    rng = random.Random(4)
    for _ in range(20):
        q = rng.choice([5, 9, 13])
        params = RegimeParams(
            q=q, alpha=Fraction(rng.randint(10, 90), 100),
            nP=rng.randint(1, 200), nPi=rng.randint(1, 200), k=rng.randint(1, 5))
        rep = regime_report(params)
        assert rep.bounds[rep.winner].value == min(
            r.value for r in rep.bounds.values())


def test_regime_report_degenerate_line_case():
    params = RegimeParams(q=7, alpha=0.5, nL=1, nA=1, nB=1, nLx=1)
    rep = regime_report(params)
    assert rep.winner == "cs_line"


def test_bound_report_consistency_checks():
    with pytest.raises(ValueError):
        BoundReport("bad", 10.0, {"a": 1.0})
    assert ratio_of(0, 0.0) == 0.0
    assert ratio_of(3, 0.0) == math.inf
    rep = BoundReport("ok", 4.0, {"a": 4.0}, actual=2)
    assert rep.ratio == 0.5
    assert rep.satisfied(1.0) is True


def test_regime_params_validation():
    with pytest.raises(ValueError):
        RegimeParams(q=5, alpha=0.5, nP=-1)
    params = RegimeParams(q=5, alpha=0.5)
    with pytest.raises(ValueError):
        params.require("nP")


def _integer_calls(n):
    """Every exact entry point of bounds, with q and each size made by n."""
    line = RegimeParams(q=n(1021), alpha=0.3, nL=n(500), nA=n(20), nB=n(300), nLx=n(40))
    plane = RegimeParams(q=n(101), alpha=0.5, nP=n(3000), nPi=n(3000), k=n(5))
    return [
        regime_report(line),
        regime_report(plane, max_shared_collinear=n(3)),
        eval_bound("thm13_by_points", plane),
        eval_bound("thm14", plane, max_shared_collinear=n(3)),
        eval_plane_bounds(plane, max_shared_collinear=n(3)),
        eval_vinh_line(n(101), n(3000), n(2000)),
        eval_cs_line(n(3000), n(2000)),
        eval_ks_distance(n(101), n(5), n(7)),
        eval_distance_dot_lower(n(101), 0.5, n(3000), n(40), n(5)),
        floor_scale(1, n(1021), 0.5),
    ]


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_numpy_integers_are_read_as_ints(dtype):
    # values, hypotheses, flags and winner as for Python ints, decided in
    # Python ints: a numpy comparison would return numpy booleans
    assert _integer_calls(dtype) == _integer_calls(int)
    params = RegimeParams(q=dtype(101), alpha=0.5, nP=dtype(7), nPi=dtype(9))
    assert {type(params.q), type(params.nP), type(params.nPi)} == {int}


def test_non_integer_sizes_are_refused():
    for kwargs in ({"nP": 2.5}, {"nPi": 2.5}, {"q": 101.0}, {"k": "3"}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RegimeParams(**{"q": 101, "alpha": 0.5, "nP": 3, "nPi": 3, **kwargs})
    plane = RegimeParams(q=101, alpha=0.5, nP=3000, nPi=3000, k=5)
    calls = [lambda: eval_bound("thm14", plane, max_shared_collinear=2.5),
             lambda: eval_plane_bounds(plane, max_shared_collinear=2.5),
             lambda: regime_report(plane, max_shared_collinear=2.5),
             lambda: eval_vinh_line(101, 2.5, 3), lambda: eval_vinh_line(101.0, 2, 3),
             lambda: eval_cs_line(2, 2.5), lambda: eval_ks_distance(101, 2.5, 7),
             lambda: eval_distance_dot_lower(101, 0.5, 3, 4, 2.5),
             lambda: floor_scale(1, 2.5, 0.5)]
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer"):
            call()


def test_orders_below_two_are_refused():
    calls = [lambda: eval_vinh_line(0, 3, 3), lambda: eval_ks_distance(0, 1, 1),
             lambda: eval_vinh_line(-5, 3, 3),
             lambda: regime_report(RegimeParams(q=1, alpha=0.5, nP=3, nPi=4)),
             lambda: eval_distance_dot_lower(1, 0.5, 3, 3, 1), lambda: floor_scale(1, 1, 0.5)]
    for call in calls:
        with pytest.raises(ValueError, match=r"q = -?\d is below 2"):
            call()


@pytest.mark.parametrize("alpha", [Fraction(3, 10), 0.3])
def test_size_condition_is_exact_at_q1024(alpha):
    # 1024^0.3 is 7.999999999999999 as a double; exactly, 8 * 2 > 8 * 2 is false
    params = RegimeParams(q=1024, alpha=alpha, nL=8, nA=2, nB=3, nLx=2)
    assert eval_thm_line(params).hypotheses["size_condition"] is False
    assert regime_report(params).flags["hyp_size_condition"] is False


def test_size_condition_is_exact_at_q4096():
    # 4096^(1/6) is 3.9999999999999996 as a double; exactly, 4 > 4 is false
    params = RegimeParams(q=4096, alpha=Fraction(1, 6), nL=4, nA=1, nB=1, nLx=1)
    assert eval_thm_line(params).hypotheses["size_condition"] is False


def test_alpha_is_read_exactly_and_capped():
    assert RegimeParams(q=5, alpha=0.3).alpha == Fraction(3, 10)
    assert RegimeParams(q=5, alpha=-16).alpha == -16
    for alpha in (0.1234, 1e-300, Fraction(1, 1001), 16.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            RegimeParams(q=5, alpha=alpha)
        with pytest.raises(ValueError):
            eval_distance_dot_lower(5, alpha, nE=3, nF=3, k=1)


# perfect powers, where q^alpha is often an integer that a double misses
POWERS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 27: (3, 3), 32: (2, 5), 64: (2, 6),
          81: (3, 4), 125: (5, 3), 1024: (2, 10), 4096: (2, 12)}


def _sign(x, c, q, u):
    """Oracle: the sign of x - c * q^u, by raising both sides to u's denominator."""
    lhs = Fraction(x) ** u.denominator
    rhs = Fraction(c) ** u.denominator * Fraction(q) ** u.numerator
    return (lhs > rhs) - (lhs < rhs)


@st.composite
def _cells(draw):
    q = draw(st.sampled_from(sorted(POWERS)))
    p, m = POWERS[q]
    den = draw(st.integers(1, 24))
    alpha = Fraction(draw(st.integers(-den, 2 * den)), den)
    # sizes are mostly powers of p, so that many tests land on an exact tie
    size = st.one_of(st.integers(0, 3000), st.integers(0, 3 * m).map(lambda e: p**e))
    return q, alpha, {name: draw(size) for name in ("L", "A", "B", "Lx", "P", "Pi", "k", "s")}


@settings(max_examples=400)
@given(_cells())
def test_hypotheses_and_flags_match_a_fraction_oracle(cell):
    q, a, n = cell
    L, A, B, Lx, P, Pi, k, s = (n[x] for x in ("L", "A", "B", "Lx", "P", "Pi", "k", "s"))

    def lt(x, c, u):  # x < c * q^u
        return _sign(x, c, q, Fraction(u)) < 0

    def gt(x, c, u):  # x > c * q^u
        return _sign(x, c, q, Fraction(u)) > 0

    def ge(x, c, u):
        return not lt(x, c, u)

    alpha_ok = 0 < a < 1
    size = gt(L * A, A, a) and gt(L * A, Lx, a)
    line = RegimeParams(q=q, alpha=a, nL=L, nA=A, nB=B, nLx=Lx)
    assert eval_thm_line(line).hypotheses == {"alpha_in_0_1": alpha_ok, "size_condition": size}
    assert holds("thm_line", "size_condition", line) == size
    assert regime_report(line).flags == {
        "hyp_size_condition": size,
        "case1_alpha_below_half": a < Fraction(1, 2),
        "case1_LA_below_q3a": size and lt(L * A, 1, 3 * a),
        "case1_L_above_q2a": gt(L, 1, 2 * a),
        "case1_AB_above_Lq2a": gt(A * B, L, 2 * a),
        "case2_LA_above_q3a": size and gt(L * A, 1, 3 * a),
        "case2_LA_below_q1a": lt(L * A, 1, 1 + a),
        "case2_A_below_qa": lt(A, 1, a),
        "case2_L_below_qaB": lt(L, B, a),
    }
    plane = RegimeParams(q=q, alpha=a, nP=P, nPi=Pi, k=k)
    hyps = {name: rep.hypotheses for name, rep in
            eval_plane_bounds(plane, max_shared_collinear=s).items()}
    assert hyps == {
        "plane_vinh": {}, "plane_cs": {},
        "thm13_by_planes": {"alpha_in_0_1": alpha_ok,
                            "planes_at_least_2q^(1+a)": ge(Pi, 2, 1 + a)},
        "thm13_by_points": {"alpha_in_0_1": alpha_ok,
                            "points_at_least_2q^(1+a)": ge(P, 2, 1 + a)},
        "thm14": {"alpha_in_0_1": alpha_ok, "points_at_least_2kq^a": ge(P, 2 * k, a),
                  "no_k_rich_shared_line": s < k},
    }
    assert holds("thm14", "points_at_least_2kq^a", plane) == ge(P, 2 * k, a)
    assert regime_report(plane).flags == {
        "case1_alpha_below_half": a < Fraction(1, 2),
        "case1_P_between_q3a_q1p2a": gt(P, 1, 3 * a) and lt(P, 1, 1 + 2 * a),
        "case1_Pi_between_q1pa_q1p2a": gt(Pi, 1, 1 + a) and lt(Pi, 1, 1 + 2 * a),
        "case1_PPi_below_q2p2a": lt(P * Pi, 1, 2 + 2 * a),
        "case1_PPi_below_q4": P * Pi < q**4,
        "case2_P_between_q4am1_q3a": gt(P, 1, 4 * a - 1) and lt(P, 1, 3 * a),
        "case2_Pi_above_q1pa": gt(Pi, 1, 1 + a),
        "case2_Pi_below_min": lt(Pi, P * P, 1 - 4 * a) and lt(Pi, P, 2 - 4 * a),
        "case2_PPi_below_q4": P * Pi < q**4,
    }
    low = eval_distance_dot_lower(q, a, nE=P, nF=Pi, k=k)
    branch = "large_E" if ge(P, 1, 3 * a) else "small_E"
    assert low.bound_name == f"distance_dot_lower[{branch}]"
    assert low.hypotheses == {"alpha_in_0_1": alpha_ok, "F_over_2kq^a": gt(Pi, 2 * k, a)}
