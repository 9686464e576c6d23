"""Closed-form evaluators for the incidence bounds and regime comparison.

BOUNDS declares each bound once, as sums of monomial terms with its
hypotheses as conjunctions of monomial inequalities; FLAGS declares the
regime flags so.  Values are doubles; hypotheses, flags and branch tests are
decided exactly in alpha, in integers, and recorded, never raised.  Compare
counts against values with a relative tolerance of 1e-9.  Unspecified big-O
constants default to C = 2, the only constant the source bounds make explicit.
"""

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

RELATIVE_TOL = 1e-9
# |alpha| <= 16 keeps every scale q^(c * alpha) the bounds and suites take,
# |c| <= 3, a finite nonzero double at every q <= 2^20: 2^(20 * 49) < 2^1023.
ALPHA_LIMIT = 16
ALPHA_MAX_DENOMINATOR = 1000  # past it one exact test costs over a millisecond


def exact_alpha(alpha) -> Fraction:
    """alpha as a Fraction: an int or a Fraction as it is, a float as the
    decimal it prints as (0.3 is 3/10).  ValueError for nan, inf, |alpha| >
    ALPHA_LIMIT, or a reduced denominator over ALPHA_MAX_DENOMINATOR."""
    a = alpha if type(alpha) is Fraction else Fraction(
        repr(float(alpha)) if isinstance(alpha, float) else alpha)
    if abs(a.numerator) > ALPHA_LIMIT * a.denominator or a.denominator > ALPHA_MAX_DENOMINATOR:
        raise ValueError(f"alpha = {alpha!r} needs |alpha| <= {ALPHA_LIMIT} and a "
                         f"denominator of at most {ALPHA_MAX_DENOMINATOR}")
    return a


def _integer(x, what: str) -> int:
    """x as a Python int by operator.index; else ValueError naming what."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def _order(q) -> int:
    """q as a Python int; ValueError naming q for a non-integer or q < 2."""
    if (q := _integer(q, "q")) < 2:
        raise ValueError(f"the order q = {q} is below 2")
    return q


def _sign(x: int, y: int, q: int, a: int, b: int) -> int:
    """The sign of x - y * q^(a/b) for integers x, y >= 0 and b > 0, as
    x^b against y^b * q^a, a negative power of q moved to the other side."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    x, y = (x**b, y**b * q**a) if a >= 0 else (x**b * q**-a, y**b)
    return (x > y) - (x < y)


def floor_scale(c, q: int, u) -> tuple[int, bool]:
    """floor(c * q^u) for rationals c >= 0 and u, and whether c * q^u is that
    integer, found by bisection on exact tests."""
    c, q, u = Fraction(c), _order(q), Fraction(u)
    if u.denominator > ALPHA_MAX_DENOMINATOR:
        raise ValueError(f"the exponent {u} has a denominator over {ALPHA_MAX_DENOMINATOR}")
    cd, cn, a, b = c.denominator, c.numerator, u.numerator, u.denominator
    lo, hi = 0, (math.ceil(c) << max(0, math.ceil(q.bit_length() * u))) + 1
    while hi - lo > 1:  # lo <= c * q^u < hi
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _sign(mid * cd, cn, q, a, b) <= 0 else (lo, mid)
    return lo, _sign(lo * cd, cn, q, a, b) == 0


def _mono(text: str) -> tuple:
    """'c q^s qa^t n^e ...' (qa is q^alpha; exponents like 2, -1 or 1/2, and 1
    when left out) as (c_num, c_den, (sn, tn, d), ((n, floor(e)), ...), (n, ...)),
    where s + t*alpha = (sn + tn*alpha) / d, and the last holds the sizes n
    whose exponent e, a positive whole or half, is not whole."""
    c, st, sizes = Fraction(1), {"q": Fraction(0), "qa": Fraction(0)}, []
    for base, _, e in (factor.partition("^") for factor in text.split()):
        e = Fraction(*map(int, (e or "1").split("/")))
        if base in st:
            st[base] += e
        elif base.isdigit():
            c *= int(base) ** e
        else:  # a size exponent is a positive whole or half number
            assert e > 0 and (2 * e).denominator == 1, f"{base}^{e}"
            sizes.append((base, e))
    d = math.lcm(st["q"].denominator, st["qa"].denominator)
    return (c.numerator, c.denominator, (int(st["q"] * d), int(st["qa"] * d), d),
            tuple((n, math.floor(e)) for n, e in sizes if e >= 1),
            tuple(n for n, e in sizes if e.denominator == 2))


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _conj(text: str) -> tuple:
    """Clauses joined by '&', each a chain of monomials and comparisons, as
    ((lhs, op, rhs), ...) and the set of the sizes they name."""
    ineqs = []
    for clause in text.split("&"):
        parts = re.split(r"(<=|>=|<|>)", clause)
        monos = [_mono(p) for p in parts[::2]]
        ineqs += zip(monos, map(_OPS.get, parts[1::2]), monos[1:])
    return tuple(ineqs), _sizes(*(m for lhs, _, rhs in ineqs for m in (lhs, rhs)))


def _sizes(*monos: tuple) -> set:
    return {s for m in monos for s in (*dict(m[3]), *m[4])}


def _parts(m: tuple, n: dict) -> tuple[int, int]:
    """c_num * prod n^floor(e), and the product of the sizes with half exponents."""
    x, root = m[0], 1
    for s, e in m[3]:
        x *= n[s] ** e
    for s in m[4]:
        root *= n[s]
    return x, root


def _value(m: tuple, q: int, al: tuple, n: dict) -> float:
    """m as a double at alpha = an/ad, al = (an, ad): whole powers exactly, one
    square root over the half powers, any other fractional power of q as a
    float power."""
    (sn, tn, d), (an, ad) = m[2], al
    k, r = divmod(sn * ad + tn * an, d * ad)
    num, root = _parts(m, n)
    if 2 * r == d * ad:
        root, r = root * q, 0
    num, den = (num * q**k, m[1]) if k >= 0 else (num, m[1] * q**-k)
    return num / den * math.sqrt(root) * q ** (r / (d * ad))


def _holds(ineqs: tuple, q: int, al: tuple, n: dict) -> bool:
    """Every lhs op rhs of ineqs at alpha = an/ad, decided in integers with
    both sides squared to clear the half powers."""
    an, ad = al
    for lhs, op, rhs in ineqs:
        (x, xr), (y, yr) = _parts(lhs, n), _parts(rhs, n)
        x, y = x * rhs[1], y * lhs[1]
        (s1, t1, d1), (s2, t2, d2) = lhs[2], rhs[2]
        a = 2 * ((s2 * ad + t2 * an) * d1 - (s1 * ad + t1 * an) * d2)
        if not op(_sign(x * x * xr, y * y * yr, q, a, d1 * d2 * ad), 0):
            return False
    return True


def _decide(table: dict, q: int, al: tuple, n: dict) -> dict[str, bool]:
    """Each conjunction of table whose sizes n knows, decided exactly."""
    return {name: _holds(ineqs, q, al, n)
            for name, (ineqs, names) in table.items() if None not in map(n.get, names)}


def _branch(table: dict, q: int, al: tuple, n: dict, pick) -> tuple[str, float]:
    """The first branch of table whose test holds, and pick of its terms."""
    branch, (_, terms) = next(b for b in table.items() if _holds(b[1][0][0], q, al, n))
    return branch, pick(_value(m, q, al, n) for m in terms)


ALPHA_IN_0_1 = "1 < qa < q"  # as q >= 2
SIZE_CONDITION = "nL nA > qa nA & nL nA > qa nLx"  # nL*nA > q^alpha * max(nA, nLx)
ALPHA_HYPOTHESIS = {"alpha_in_0_1": ALPHA_IN_0_1}
THM_MAIN = "nP nPi qa^-1"

# name -> ({side: {term: monomial}}, {hypothesis: conjunction}); the value is
# the sum of the terms of the side whose sum is smaller ("" when only one).
BOUNDS = {
    "vinh_line": ({"": {"main": "nP nL q^-1", "deviation": "2 q^1/2 nP^1/2 nL^1/2"}}, {}),
    "cs_line": ({"point": {"sqrtP_L": "nP^1/2 nL", "P": "nP"},
                 "line": {"P_sqrtL": "nP nL^1/2", "L": "nL"}}, {}),
    "thm_line": ({"": {"energy_main": "nL nA nB^1/2 qa^-1/2",
                       "energy_rich": "qa nL^1/2 nA^1/2 nB^1/2"}},
                 {**ALPHA_HYPOTHESIS, "size_condition": SIZE_CONDITION}),
    "plane_vinh": ({"": {"main": "nP nPi q^-1", "deviation": "2 q nP^1/2 nPi^1/2"}}, {}),
    "plane_cs": ({"point": {"sqrtqP_Pi": "q^1/2 nP^1/2 nPi", "P": "nP"},
                  "plane": {"sqrtq_P_sqrtPi": "q^1/2 nP nPi^1/2", "Pi": "nPi"}}, {}),
    "thm13_by_planes": ({"": {"main": THM_MAIN, "rich": "nPi qa^2"}},
                        {**ALPHA_HYPOTHESIS, "planes_at_least_2q^(1+a)": "nPi >= 2 q qa"}),
    "thm13_by_points": ({"": {"main": THM_MAIN, "rich": "nP qa^2"}},
                        {**ALPHA_HYPOTHESIS, "points_at_least_2q^(1+a)": "nP >= 2 q qa"}),
    "thm14": ({"": {"main": THM_MAIN, "rich": "nP qa^2"}},
              {**ALPHA_HYPOTHESIS, "points_at_least_2kq^a": "nP >= 2 k qa",
               "no_k_rich_shared_line": "shared < k"}),
}
# lower bounds: branch -> (test, terms); the first branch whose test holds
KS_DISTANCE = {"small": ("nE < q", ("q", "nE nF q^-2")), "mid": ("nE <= q^2", ("q", "nF q^-1")),
               "large": ("", ("q", "nE nF q^-3"))}
DISTANCE_DOT = {"large_E": ("nE >= qa^3", ("k", "qa")), "small_E": ("", ("k", "nE qa^-2"))}
DISTANCE_DOT_HYPOTHESES = {**ALPHA_HYPOTHESIS, "F_over_2kq^a": "nF > 2 k qa"}
FLAGS = {
    "line": {
        "hyp_size_condition": SIZE_CONDITION,
        "case1_alpha_below_half": "qa^2 < q",
        "case1_LA_below_q3a": f"{SIZE_CONDITION} & nL nA < qa^3",
        "case1_L_above_q2a": "nL > qa^2",
        "case1_AB_above_Lq2a": "nA nB > nL qa^2",
        "case2_LA_above_q3a": f"{SIZE_CONDITION} & nL nA > qa^3",
        "case2_LA_below_q1a": "nL nA < q qa",
        "case2_A_below_qa": "nA < qa",
        "case2_L_below_qaB": "nL < qa nB",
    },
    "plane": {
        "case1_alpha_below_half": "qa^2 < q",
        "case1_P_between_q3a_q1p2a": "qa^3 < nP < q qa^2",
        "case1_Pi_between_q1pa_q1p2a": "q qa < nPi < q qa^2",
        "case1_PPi_below_q2p2a": "nP nPi < q^2 qa^2",
        "case1_PPi_below_q4": "nP nPi < q^4",
        "case2_P_between_q4am1_q3a": "q^-1 qa^4 < nP < qa^3",
        "case2_Pi_above_q1pa": "nPi > q qa",
        "case2_Pi_below_min": "nPi < nP^2 q qa^-4 & nPi < nP q^2 qa^-4",
        "case2_PPi_below_q4": "nP nPi < q^4",
    },
}


def _bound(sides: dict, hyps: dict) -> tuple:
    """A BOUNDS entry parsed, with the sizes it needs; 'shared', the measured
    max_shared_collinear, is optional: its hypothesis is recorded when passed."""
    sides = {side: {t: _mono(m) for t, m in terms.items()} for side, terms in sides.items()}
    hyps = {h: _conj(c) for h, c in hyps.items()}
    needs = _sizes(*(m for terms in sides.values() for m in terms.values()))
    return sides, hyps, needs.union(*(c[1] for c in hyps.values())) - {"shared"}


# the tables above, parsed in place
BOUNDS = {name: _bound(*entry) for name, entry in BOUNDS.items()}
KS_DISTANCE, DISTANCE_DOT = ({b: (_conj(test), tuple(map(_mono, terms)))
                               for b, (test, terms) in table.items()}
                              for table in (KS_DISTANCE, DISTANCE_DOT))
DISTANCE_DOT_HYPOTHESES = {h: _conj(c) for h, c in DISTANCE_DOT_HYPOTHESES.items()}
FLAGS = {kind: {f: _conj(c) for f, c in flags.items()} for kind, flags in FLAGS.items()}


@dataclass
class BoundReport:
    bound_name: str
    value: float
    terms: dict[str, float]
    hypotheses: dict[str, bool] = field(default_factory=dict)
    actual: Optional[int] = None
    ratio: Optional[float] = None

    def __post_init__(self):
        if abs(self.value - sum(self.terms.values())) > 1e-9 * max(1.0, self.value):
            raise ValueError("value must equal the sum of its terms")
        if self.actual is not None and self.ratio is None:
            self.ratio = ratio_of(self.actual, self.value)

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    def satisfied(self, c: float = 1.0) -> Optional[bool]:
        """actual <= c * value, with the documented relative tolerance."""
        if self.actual is None:
            return None
        return self.actual <= c * self.value * (1 + RELATIVE_TOL)


def ratio_of(actual: int, value: float) -> float:
    if value > 0:
        return actual / value
    return 0.0 if actual == 0 else math.inf


@dataclass
class RegimeParams:
    """Sizes and scales a bound evaluation needs; fill what applies.  alpha
    is read by exact_alpha, so it is a Fraction once constructed, and q and
    every size by operator.index, as ints (a float: ValueError naming it);
    q < 2 and a negative size are ValueErrors too."""

    q: int
    alpha: Fraction
    nP: Optional[int] = None
    nL: Optional[int] = None
    nA: Optional[int] = None
    nB: Optional[int] = None
    nPi: Optional[int] = None
    nLx: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        self.q, self.alpha = _order(self.q), exact_alpha(self.alpha)
        for name in ("nP", "nL", "nA", "nB", "nPi", "nLx", "k"):
            if (n := getattr(self, name)) is not None:
                if (n := _integer(n, name)) < 0:
                    raise ValueError(f"{name} must be nonnegative")
                setattr(self, name, n)

    def require(self, *names) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"missing sizes: {', '.join(missing)}")


def eval_bound(name: str, params: RegimeParams, actual: Optional[int] = None,
               max_shared_collinear: Optional[int] = None) -> BoundReport:
    """BOUNDS[name] at the sizes of params, with max_shared_collinear as the
    size 'shared'."""
    params.require(*BOUNDS[name][2])
    shared = max_shared_collinear
    shared = shared if shared is None else _integer(shared, "max_shared_collinear")
    n = {**vars(params), "shared": shared}
    return _report(name, params.q, params.alpha, n, actual)


def holds(name: str, hypothesis: str, params: RegimeParams) -> bool:
    """One hypothesis of BOUNDS[name] at the sizes of params, decided exactly."""
    ineqs, names = BOUNDS[name][1][hypothesis]
    params.require(*names)
    return _holds(ineqs, params.q, (params.alpha.numerator, params.alpha.denominator),
                  vars(params))


def _report(name: str, q: int, alpha: Fraction, n: dict, actual=None) -> BoundReport:
    """BOUNDS[name] at the sizes n; of two sides the smaller sum wins, the
    first on a tie."""
    sides, hyps, _ = BOUNDS[name]
    al = alpha.numerator, alpha.denominator
    sums = {side: {t: _value(m, q, al, n) for t, m in terms.items()}
            for side, terms in sides.items()}
    side = min(sums, key=lambda s: sum(sums[s].values()))
    return BoundReport(f"{name}[{side}-side]" if side else name, sum(sums[side].values()),
                       sums[side], _decide(hyps, q, al, n), actual=actual)


def eval_vinh_line(q: int, nP: int, nL: int, actual: Optional[int] = None) -> BoundReport:
    """Main term nP*nL/q plus the deviation allowance C*sqrt(q*nP*nL), C = 2."""
    return eval_bound("vinh_line", RegimeParams(q, 0, nP=nP, nL=nL), actual)


def eval_cs_line(nP: int, nL: int, actual: Optional[int] = None) -> BoundReport:
    """min{ sqrt(nP)*nL + nP, nP*sqrt(nL) + nL }; unconditional."""
    return eval_bound("cs_line", RegimeParams(2, 0, nP=nP, nL=nL), actual)  # no q term


def eval_thm_line(params: RegimeParams, actual: Optional[int] = None) -> BoundReport:
    """The VC-route line bound for Cartesian point sets A x B,
    nL*nA*sqrt(nB)/q^(alpha/2) + q^alpha*sqrt(nL*nA*nB), derived in three steps:
    (1) energy: by Cauchy-Schwarz over B, I(A x B, L) <= sqrt(|B| * E), where E
    counts (a, b, x, a', b', x') in L x A x L x A with a*x + b = a'*x' + b';
    (2) lift (reductions.build_point_plane_sets): E = I(P', Pi') with
    |P'| = |Pi'| = |L||A| and the reduction's k_bound k = max(|A|, |L_x|);
    (3) the light-lines plane theorem (thm14, whose two terms thm13_by_points
    shares) gives E <= (nL*nA)^2/q^alpha + nL*nA*q^(2*alpha), and the square
    root of a sum is at most the sum of the square roots.  The recorded
    size_condition, nL*nA > q^alpha * max(nA, nLx), is thm14's
    nP >= 2*k*q^alpha with nP = nL*nA and k = max(nA, nLx), minus the factor 2.
    """
    return eval_bound("thm_line", params, actual)


def eval_plane_bounds(params: RegimeParams, actual: Optional[int] = None,
                      max_shared_collinear: Optional[int] = None) -> dict[str, BoundReport]:
    """Every point-plane bound that applies, keyed by its name in BOUNDS:
    plane_vinh, plane_cs, thm13_by_planes, thm13_by_points, and thm14 when
    params.k is set.  thm14 records no_k_rich_shared_line (no line in two of
    the planes holds k points) when max_shared_collinear is passed."""
    names = ["plane_vinh", "plane_cs", "thm13_by_planes", "thm13_by_points"]
    names += ["thm14"] if params.k is not None else []
    return {name: eval_bound(name, params, actual, max_shared_collinear) for name in names}


def eval_ks_distance(q: int, nE: int, nF: int) -> BoundReport:
    """The three-branch comparison lower bound for |distance set|, d = 3: the
    guaranteed size (a lower bound, not an upper bound on a count)."""
    n = {"nE": _integer(nE, "nE"), "nF": _integer(nF, "nF")}
    branch, val = _branch(KS_DISTANCE, _order(q), (0, 1), n, min)
    return BoundReport(f"ks[{branch}]", val, {"min_branch": val})


def eval_distance_dot_lower(q: int, alpha, nE: int, nF: int, k: int) -> BoundReport:
    """max{k, q^alpha} when nE >= q^(3 alpha), else max{k, nE/q^(2 alpha)}: the
    conclusion shape of the distance-set and dot-product theorems, asymptotic,
    so callers report measured ratios.  Records |F| > 2 k q^alpha."""
    q, alpha = _order(q), exact_alpha(alpha)
    n = {"nE": _integer(nE, "nE"), "nF": _integer(nF, "nF"), "k": _integer(k, "k")}
    al = alpha.numerator, alpha.denominator
    branch, val = _branch(DISTANCE_DOT, q, al, n, max)
    return BoundReport(f"distance_dot_lower[{branch}]", val, {"max_branch": val},
                       _decide(DISTANCE_DOT_HYPOTHESES, q, al, n))


@dataclass
class RegimeReport:
    kind: str  # "line" | "plane"
    bounds: dict[str, BoundReport]
    flags: dict[str, bool]
    winner: str  # name of the minimal bound

    @property
    def hypotheses_ok(self) -> bool:
        return all(r.hypotheses_ok for r in self.bounds.values())


def regime_report(params: RegimeParams, actual: Optional[int] = None,
                  max_shared_collinear: Optional[int] = None) -> RegimeReport:
    """Every applicable bound and the improvement-range flags: line sizes
    (nL/nA/nB/nLx) compare the line bounds with nP = nA*nB, plane sizes
    (nP/nPi) the plane ones.  The winner is the arg-min of the values."""
    if params.nL is not None:
        params.require("nL", "nA", "nB", "nLx")
        kind, n = "line", {**vars(params), "nP": params.nA * params.nB}
        bounds = {name: _report(name, params.q, params.alpha, n, actual)
                  for name in ("vinh_line", "cs_line", "thm_line")}
    elif params.nPi is not None:
        kind, n = "plane", vars(params)
        bounds = eval_plane_bounds(params, actual, max_shared_collinear)
    else:
        raise ValueError("params carry neither line nor plane sizes")
    flags = _decide(FLAGS[kind], params.q, (params.alpha.numerator, params.alpha.denominator), n)
    winner = min(bounds, key=lambda name: (bounds[name].value, name))
    return RegimeReport(kind, bounds, flags, winner)
