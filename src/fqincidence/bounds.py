"""Closed-form evaluators for the incidence bounds and regime comparison.

Every evaluator returns a BoundReport: the bound value, its named addends,
per-hypothesis flags, and (when an actual count is supplied) the ratio
actual/value.  Hypothesis violations never abort evaluation; exploring
near-regime behavior is a harness feature, so the flags simply record the
violation.

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

def eval_vinh_line(
    q: int, nP: int, nL: int, C: float = DEFAULT_C, actual: Optional[int] = None
) -> BoundReport:
    """Main term nP*nL/q plus the deviation allowance C*sqrt(q*nP*nL)."""
    if C <= 0:
        raise ValueError("C must be positive")
    main = nP * nL / q
    dev = C * math.sqrt(q * nP * nL)
    return BoundReport(
        "vinh_line",
        main + dev,
        {"main": main, "deviation": dev},
        actual=actual,
    )


def eval_cs_line(nP: int, nL: int, actual: Optional[int] = None) -> BoundReport:
    """min{ sqrt(nP)*nL + nP, nP*sqrt(nL) + nL }; unconditional."""
    by_points = (math.sqrt(nP) * nL, float(nP))
    by_lines = (nP * math.sqrt(nL), float(nL))
    if sum(by_points) <= sum(by_lines):
        terms = {"sqrtP_L": by_points[0], "P": by_points[1]}
        name = "cs_line[point-side]"
    else:
        terms = {"P_sqrtL": by_lines[0], "L": by_lines[1]}
        name = "cs_line[line-side]"
    return BoundReport(name, sum(terms.values()), terms, actual=actual)


def eval_thm_line(params: RegimeParams, actual: Optional[int] = None) -> BoundReport:
    """The VC-route line bound for Cartesian point sets A x B.

    value = nL*nA*sqrt(nB)/q^(alpha/2) + q^alpha*sqrt(nL*nA*nB).  The
    recorded hypothesis is nL*nA > q^alpha * max(nA, nLx).
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
    return BoundReport(
        "thm_line", sum(terms.values()), terms, hypotheses=hyps, actual=actual
    )


# ---------------------------------------------------------------------------
# point-plane bounds in three-space
# ---------------------------------------------------------------------------

PLANE_BOUNDS = ("vinh", "cs", "thm13_by_planes", "thm13_by_points", "thm14")


def eval_plane_bounds(
    params: RegimeParams,
    which: str,
    actual: Optional[int] = None,
    max_shared_collinear: Optional[int] = None,
) -> BoundReport:
    """One of the five point-plane bounds.

    vinh:             nP*nPi/q + 2*q*sqrt(nP*nPi)  (printed constant 2)
    cs:               min of the two Cauchy-Schwarz forms
    thm13_by_planes:  nP*nPi/q^a + nPi*q^(2a),  needs nPi >= 2*q^(1+a)
    thm13_by_points:  nP*nPi/q^a + nP*q^(2a),   needs nP  >= 2*q^(1+a)
    thm14:            nP*nPi/q^a + nP*q^(2a),   needs nP  >= 2*k*q^a and no
                      line in two of the planes holding k points (pass the
                      measured max_shared_collinear to record that flag).
    """
    params.require("nP", "nPi")
    q, a = params.q, params.alpha
    nP, nPi = params.nP, params.nPi
    if which == "vinh":
        main = nP * nPi / q
        dev = 2.0 * q * math.sqrt(nP * nPi)
        return BoundReport(
            "plane_vinh", main + dev, {"main": main, "deviation": dev}, actual=actual
        )
    if which == "cs":
        by_points = (math.sqrt(q) * math.sqrt(nP) * nPi, float(nP))
        by_planes = (math.sqrt(q) * nP * math.sqrt(nPi), float(nPi))
        if sum(by_points) <= sum(by_planes):
            terms = {"sqrtqP_Pi": by_points[0], "P": by_points[1]}
            name = "plane_cs[point-side]"
        else:
            terms = {"sqrtq_P_sqrtPi": by_planes[0], "Pi": by_planes[1]}
            name = "plane_cs[plane-side]"
        return BoundReport(name, sum(terms.values()), terms, actual=actual)
    if which == "thm13_by_planes":
        terms = {"main": nP * nPi / q**a, "rich": nPi * q ** (2 * a)}
        hyps = {
            "alpha_in_0_1": _alpha_ok(a),
            "planes_at_least_2q^(1+a)": nPi >= 2 * q ** (1 + a),
        }
        return BoundReport(
            "thm13_by_planes", sum(terms.values()), terms, hyps, actual=actual
        )
    if which == "thm13_by_points":
        terms = {"main": nP * nPi / q**a, "rich": nP * q ** (2 * a)}
        hyps = {
            "alpha_in_0_1": _alpha_ok(a),
            "points_at_least_2q^(1+a)": nP >= 2 * q ** (1 + a),
        }
        return BoundReport(
            "thm13_by_points", sum(terms.values()), terms, hyps, actual=actual
        )
    if which == "thm14":
        params.require("k")
        k = params.k
        terms = {"main": nP * nPi / q**a, "rich": nP * q ** (2 * a)}
        hyps = {
            "alpha_in_0_1": _alpha_ok(a),
            "points_at_least_2kq^a": nP >= 2 * k * q**a,
        }
        if max_shared_collinear is not None:
            hyps["no_k_rich_shared_line"] = max_shared_collinear < k
        return BoundReport("thm14", sum(terms.values()), terms, hyps, actual=actual)
    raise ValueError(f"unknown plane bound {which!r}; pick one of {PLANE_BOUNDS}")


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
        hyp = la > q**a * max(nA, nLx)
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
        params.require("nP", "nPi")
        nP, nPi = params.nP, params.nPi
        bounds = {
            "plane_vinh": eval_plane_bounds(params, "vinh", actual=actual),
            "plane_cs": eval_plane_bounds(params, "cs", actual=actual),
            "thm13_by_planes": eval_plane_bounds(
                params, "thm13_by_planes", actual=actual
            ),
            "thm13_by_points": eval_plane_bounds(
                params, "thm13_by_points", actual=actual
            ),
        }
        if params.k is not None:
            bounds["thm14"] = eval_plane_bounds(
                params, "thm14", actual=actual,
                max_shared_collinear=max_shared_collinear,
            )
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
