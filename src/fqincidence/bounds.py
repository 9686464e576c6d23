"""Closed-form evaluators for the incidence bounds and regime comparison.

Every evaluator returns a BoundReport (eval_plane_bounds a dict of them,
keyed by bound name): the bound value, its named addends, per-hypothesis
flags, and (when an actual count is supplied) the ratio actual/value.
Hypothesis violations never abort evaluation; exploring near-regime
behavior is a harness feature, so the flags simply record the violation.

Values are computed in double precision (the q^alpha scales are irrational
in general); comparisons of integer counts against bound values should use
the exact integer on the left and a relative tolerance of 1e-9 on the right.
Unspecified big-O constants default to C = 2, the only constant the source
bounds make explicit.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_C = 2.0
RELATIVE_TOL = 1e-9


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
    """Sizes and scales a bound evaluation needs; fill what applies."""

    q: int
    alpha: float
    nP: Optional[int] = None
    nL: Optional[int] = None
    nA: Optional[int] = None
    nB: Optional[int] = None
    nPi: Optional[int] = None
    nLx: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        for name in ("nP", "nL", "nA", "nB", "nPi", "nLx", "k"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative")

    def require(self, *names) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"missing sizes: {', '.join(missing)}")


def _alpha_ok(alpha: float) -> bool:
    return 0.0 < alpha < 1.0


# ---------------------------------------------------------------------------
# point-line bounds in the plane
# ---------------------------------------------------------------------------

def _cs_report(name: str, by_points: dict, by_flats: dict, flat_side: str,
               actual: Optional[int]) -> BoundReport:
    """The smaller of the two Cauchy-Schwarz forms, each given by its terms."""
    if sum(by_points.values()) <= sum(by_flats.values()):
        name, terms = f"{name}[point-side]", by_points
    else:
        name, terms = f"{name}[{flat_side}-side]", by_flats
    return BoundReport(name, sum(terms.values()), terms, actual=actual)


def eval_vinh_line(q: int, nP: int, nL: int, actual: Optional[int] = None) -> BoundReport:
    """Main term nP*nL/q plus the deviation allowance C*sqrt(q*nP*nL), C = 2."""
    main = nP * nL / q
    dev = DEFAULT_C * math.sqrt(q * nP * nL)
    return BoundReport("vinh_line", main + dev, {"main": main, "deviation": dev}, actual=actual)


def eval_cs_line(nP: int, nL: int, actual: Optional[int] = None) -> BoundReport:
    """min{ sqrt(nP)*nL + nP, nP*sqrt(nL) + nL }; unconditional."""
    return _cs_report("cs_line", {"sqrtP_L": math.sqrt(nP) * nL, "P": float(nP)},
                      {"P_sqrtL": nP * math.sqrt(nL), "L": float(nL)}, "line", actual)


def eval_thm_line(params: RegimeParams, actual: Optional[int] = None) -> BoundReport:
    """The VC-route line bound for Cartesian point sets A x B.

    value = nL*nA*sqrt(nB)/q^(alpha/2) + q^alpha*sqrt(nL*nA*nB), derived in
    three steps:

    1. Energy: by Cauchy-Schwarz over B, I(A x B, L) <= sqrt(|B| * E), where
       E counts (a, b, x, a', b', x') in L x A x L x A with
       a*x + b = a'*x' + b'.
    2. Lift (reductions.build_point_plane_sets): E = I(P', Pi') for point
       and plane sets with |P'| = |Pi'| = |L||A|, and the reduction's
       k_bound is k = max(|A|, |L_x|).
    3. The light-lines plane theorem (thm14 of eval_plane_bounds, whose two
       terms thm13_by_points shares), I(P', Pi') <= |P'||Pi'|/q^alpha +
       |P'|*q^(2*alpha), gives E <= (nL*nA)^2/q^alpha + nL*nA*q^(2*alpha).
       The square root of a sum is at most the sum of the square roots, so
       sqrt(nB * E) is at most the two terms of value.

    The recorded size_condition, nL*nA > q^alpha * max(nA, nLx), is thm14's
    nP >= 2*k*q^alpha with nP = nL*nA and k = max(nA, nLx), minus the
    factor 2.
    """
    params.require("nL", "nA", "nB", "nLx")
    q, a = params.q, params.alpha
    nL, nA, nB, nLx = params.nL, params.nA, params.nB, params.nLx
    t1 = nL * nA * math.sqrt(nB) / q ** (a / 2)
    t2 = q**a * math.sqrt(nL * nA * nB)
    terms = {"energy_main": t1, "energy_rich": t2}
    hyps = {
        "alpha_in_0_1": _alpha_ok(a),
        "size_condition": nL * nA > q**a * max(nA, nLx),
    }
    return BoundReport("thm_line", sum(terms.values()), terms, hyps, actual=actual)


# ---------------------------------------------------------------------------
# point-plane bounds in three-space
# ---------------------------------------------------------------------------

def eval_plane_bounds(
    params: RegimeParams,
    actual: Optional[int] = None,
    max_shared_collinear: Optional[int] = None,
) -> dict[str, BoundReport]:
    """Every point-plane bound that applies, keyed by name.

    plane_vinh:       nP*nPi/q + C*q*sqrt(nP*nPi), C = 2 (printed constant)
    plane_cs:         min of the two Cauchy-Schwarz forms
    thm13_by_planes:  nP*nPi/q^a + nPi*q^(2a),  needs nPi >= 2*q^(1+a)
    thm13_by_points:  nP*nPi/q^a + nP*q^(2a),   needs nP  >= 2*q^(1+a)
    thm14:            nP*nPi/q^a + nP*q^(2a),   needs nP  >= 2*k*q^a and no
                      line in two of the planes holding k points (pass the
                      measured max_shared_collinear to record that flag);
                      present only when params.k is set.
    """
    params.require("nP", "nPi")
    q, a = params.q, params.alpha
    nP, nPi = params.nP, params.nPi

    def theorem(name, rich_size, size_hyps):
        terms = {"main": nP * nPi / q**a, "rich": rich_size * q ** (2 * a)}
        hyps = {"alpha_in_0_1": _alpha_ok(a), **size_hyps}
        return BoundReport(name, sum(terms.values()), terms, hyps, actual=actual)

    main = nP * nPi / q
    dev = DEFAULT_C * q * math.sqrt(nP * nPi)
    reports = {
        "plane_vinh": BoundReport(
            "plane_vinh", main + dev, {"main": main, "deviation": dev}, actual=actual
        ),
        "plane_cs": _cs_report(
            "plane_cs", {"sqrtqP_Pi": math.sqrt(q) * math.sqrt(nP) * nPi, "P": float(nP)},
            {"sqrtq_P_sqrtPi": math.sqrt(q) * nP * math.sqrt(nPi), "Pi": float(nPi)},
            "plane", actual),
        "thm13_by_planes": theorem(
            "thm13_by_planes", nPi, {"planes_at_least_2q^(1+a)": nPi >= 2 * q ** (1 + a)}
        ),
        "thm13_by_points": theorem(
            "thm13_by_points", nP, {"points_at_least_2q^(1+a)": nP >= 2 * q ** (1 + a)}
        ),
    }
    if params.k is not None:
        k = params.k
        hyps = {"points_at_least_2kq^a": nP >= 2 * k * q**a}
        if max_shared_collinear is not None:
            hyps["no_k_rich_shared_line"] = max_shared_collinear < k
        reports["thm14"] = theorem("thm14", nP, hyps)
    return reports


# ---------------------------------------------------------------------------
# comparison-only lower bounds (distance and dot-product applications)
# ---------------------------------------------------------------------------

def eval_ks_distance(q: int, nE: int, nF: int) -> BoundReport:
    """The three-branch comparison lower bound for |distance set|, d = 3.

    Used only in comparison tables; it is a lower bound, so "value" here is
    the guaranteed size, not an upper bound on a count.
    """
    if nE < q:
        name, val = "ks[small]", min(q, nE * nF / q**2)
    elif nE <= q**2:
        name, val = "ks[mid]", min(q, nF / q)
    else:
        name, val = "ks[large]", min(q, nE * nF / q**3)
    return BoundReport(name, val, {"min_branch": float(val)})


def eval_distance_dot_lower(
    q: int, alpha: float, nE: int, k: int
) -> BoundReport:
    """max{k, q^alpha} when nE >= q^(3 alpha), else max{k, nE/q^(2 alpha)}.

    Shared conclusion shape of the distance-set and dot-product theorems;
    asymptotic, so callers report measured ratios rather than asserting it.
    """
    if nE >= q ** (3 * alpha):
        branch = "large_E"
        val = max(float(k), q**alpha)
    else:
        branch = "small_E"
        val = max(float(k), nE / q ** (2 * alpha))
    return BoundReport(
        f"distance_dot_lower[{branch}]",
        val,
        {"max_branch": val},
        hypotheses={"alpha_in_0_1": _alpha_ok(alpha)},
    )


# ---------------------------------------------------------------------------
# regime comparison
# ---------------------------------------------------------------------------

@dataclass
class RegimeReport:
    kind: str  # "line" | "plane"
    bounds: dict[str, BoundReport]
    flags: dict[str, bool]
    winner: str  # name of the minimal bound

    @property
    def hypotheses_ok(self) -> bool:
        return all(r.hypotheses_ok for r in self.bounds.values())


def regime_report(
    params: RegimeParams,
    actual: Optional[int] = None,
    max_shared_collinear: Optional[int] = None,
) -> RegimeReport:
    """Evaluate every applicable bound and flag the improvement-range conditions.

    Line parameters (nL/nA/nB/nLx) trigger the line comparison with
    nP = nA*nB; plane parameters (nP/nPi) trigger the plane one.  The winner
    is the arg-min of the evaluated bound values.
    """
    q, a = params.q, params.alpha
    if params.nL is not None:
        params.require("nL", "nA", "nB", "nLx")
        nL, nA, nB, nLx = params.nL, params.nA, params.nB, params.nLx
        nP = nA * nB
        bounds = {
            "vinh_line": eval_vinh_line(q, nP, nL, actual=actual),
            "cs_line": eval_cs_line(nP, nL, actual=actual),
            "thm_line": eval_thm_line(params, actual=actual),
        }
        la = nL * nA
        hyp = bounds["thm_line"].hypotheses["size_condition"]
        flags = {
            "hyp_size_condition": hyp,
            "case1_alpha_below_half": a < 0.5,
            "case1_LA_below_q3a": hyp and la < q ** (3 * a),
            "case1_L_above_q2a": nL > q ** (2 * a),
            "case1_AB_above_Lq2a": nA * nB > nL * q ** (2 * a),
            "case2_LA_above_q3a": hyp and la > q ** (3 * a),
            "case2_LA_below_q1a": la < q ** (1 + a),
            "case2_A_below_qa": nA < q**a,
            "case2_L_below_qaB": nL < q**a * nB,
        }
        kind = "line"
    elif params.nPi is not None:
        nP, nPi = params.nP, params.nPi
        bounds = eval_plane_bounds(params, actual, max_shared_collinear)
        pp = nP * nPi
        flags = {
            "case1_alpha_below_half": a < 0.5,
            "case1_P_between_q3a_q1p2a": q ** (3 * a) < nP < q ** (1 + 2 * a),
            "case1_Pi_between_q1pa_q1p2a": q ** (1 + a) < nPi < q ** (1 + 2 * a),
            "case1_PPi_below_q2p2a": pp < q ** (2 + 2 * a),
            "case1_PPi_below_q4": pp < q**4,
            "case2_P_between_q4am1_q3a": q ** (4 * a - 1) < nP < q ** (3 * a),
            "case2_Pi_above_q1pa": nPi > q ** (1 + a),
            "case2_Pi_below_min": nPi
            < min(nP**2 * q ** (1 - 4 * a), nP * q ** (2 - 4 * a)),
            "case2_PPi_below_q4": pp < q**4,
        }
        kind = "plane"
    else:
        raise ValueError("params carry neither line nor plane sizes")
    winner = min(bounds, key=lambda name: (bounds[name].value, name))
    return RegimeReport(kind, bounds, flags, winner)
