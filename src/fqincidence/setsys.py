"""Set systems, shattering, VC dimension, shatter function, and separation.

Members are stored as bitmask ints over a ground set [0, ground_size); the
family is a multiset (duplicates preserved, since neighborhood families can
repeat).  All exponential searches carry explicit budgets and deterministic
seeded sampling fallbacks.
"""

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any, NamedTuple, Optional

import numpy as np

from .errors import BudgetExceeded, SubsetTooLarge
from .ffield import FieldSpec
from .geom import check_incidence_input, coords_array

VC_BUDGET = 10**7
SHATTER_EXACT_BUDGET = 10**6
SEPARATION_BUDGET = 10**7
SHATTER_SUBSET_CAP = 20


@dataclass
class SetSystem:
    """Ground set [0, ground_size) plus a multiset family of subsets.

    labels, when present, map family index -> originating object (a point or
    a plane, say) so sub-families keep their provenance.
    """

    ground_size: int
    family: list[int]  # one bitmask per member
    labels: Optional[list[Any]] = None

    def __post_init__(self):
        limit = 1 << self.ground_size
        for m in self.family:
            if not 0 <= m < limit:
                raise ValueError("family member outside the ground set")
        if self.labels is not None and len(self.labels) != len(self.family):
            raise ValueError("labels must align with the family")

    @classmethod
    def from_sets(cls, ground_size: int, sets, labels=None) -> "SetSystem":
        masks = []
        for s in sets:
            m = 0
            for e in s:
                if not 0 <= e < ground_size:
                    raise ValueError(f"element {e} outside ground set")
                m |= 1 << e
            masks.append(m)
        return cls(ground_size, masks, labels)

    def member_elements(self, i: int) -> tuple[int, ...]:
        return _mask_elements(self.family[i])

    def member_size(self, i: int) -> int:
        return self.family[i].bit_count()

    def dedup(self) -> "SetSystem":
        """Collapse duplicate members (labels keep the first occurrence)."""
        seen: dict[int, int] = {}
        masks, labels = [], [] if self.labels is not None else None
        for i, m in enumerate(self.family):
            if m in seen:
                continue
            seen[m] = i
            masks.append(m)
            if labels is not None:
                labels.append(self.labels[i])
        return SetSystem(self.ground_size, masks, labels)


def _mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def neighborhood_system(fs: FieldSpec, points, planes, side: str) -> SetSystem:
    """Incidence neighborhoods as a set system.

    side="by_point": ground set indexes the planes, one member per point u
    holding the planes through u.  side="by_plane" is the dual.  Multiplicity
    is preserved on the member side.  Point u lies on n . x = r iff
    (u, 1) . (n, -r) = 0; each member's mask is one packed row of that test
    over the row blocks of FieldSpec.dot_blocks.
    """
    if side not in ("by_point", "by_plane"):
        raise ValueError(f"side must be by_point or by_plane, got {side!r}")
    points = list(points)
    planes = list(planes)
    check_incidence_input(fs, points, planes, lines=False)
    pts = coords_array([(*pt, 1) for pt in points], 4)
    pls = coords_array([(*pl.normal, fs.neg(pl.rhs)) for pl in planes], 4)
    by_point = side == "by_point"
    members, ground = (pts, pls) if by_point else (pls, pts)
    masks = [
        int.from_bytes(row.tobytes(), "little")
        for vals in fs.dot_blocks(members, ground)
        for row in np.packbits(vals == 0, axis=1, bitorder="little")
    ]
    return SetSystem(len(ground), masks, labels=points if by_point else planes)


def is_shattered(system: SetSystem, subset) -> bool:
    """True iff every one of the 2^|S| traces A & S is realized by the family."""
    s = sorted(set(subset))
    if len(s) > SHATTER_SUBSET_CAP:
        raise SubsetTooLarge(f"|S| = {len(s)} exceeds {SHATTER_SUBSET_CAP}")
    for e in s:
        if not 0 <= e < system.ground_size:
            raise ValueError(f"element {e} outside ground set")
    mask = 0
    for e in s:
        mask |= 1 << e
    traces = {m & mask for m in system.family}
    return len(traces) == 1 << len(s)


class VcResult(NamedTuple):
    dimension: int
    saturated: bool  # a d_max-sized shattered set exists ("VC >= d_max")


def vc_dimension(system: SetSystem, d_max: int) -> VcResult:
    """Exact VC dimension capped at d_max.

    Search budget: sum of C(ground_size, i) for i <= d_max must stay within
    10^7.  Candidate d-sets are drawn from subsets of members (a shattered
    set must realize its full trace), falling back to plain enumeration when
    members are large.  The empty family is assigned dimension 0.
    """
    if not 1 <= d_max <= 6:
        raise ValueError("d_max must be in [1, 6]")
    n = system.ground_size
    if sum(comb(n, i) for i in range(1, d_max + 1)) > VC_BUDGET:
        raise BudgetExceeded("subset search over 10^7 combinations")
    members = sorted(set(system.family))
    if not members or all(m == 0 for m in members):
        return VcResult(0, False)
    nm = len(members)
    full = (1 << nm) - 1
    cover = [0] * n
    for bit, m in enumerate(members):
        for e in _mask_elements(m):
            cover[e] |= 1 << bit
    # level 1: an element shatters iff some member holds it and some avoids it
    singles = [e for e in range(n) if cover[e] not in (0, full)]
    if not singles:
        return VcResult(0, False)
    best = 1
    single_set = set(singles)
    member_elems = [
        tuple(e for e in _mask_elements(m) if e in single_set) for m in members
    ]
    for d in range(2, d_max + 1):
        if _level_has_shattered(cover, full, member_elems, singles, d):
            best = d
        else:
            break
    return VcResult(best, best == d_max)


def _level_has_shattered(cover, full, member_elems, singles, d) -> bool:
    via_members = sum(comb(len(es), d) for es in member_elems)
    if via_members <= comb(len(singles), d):
        gen = (
            s for es in member_elems if len(es) >= d for s in combinations(es, d)
        )
    else:
        gen = combinations(singles, d)
    for cand in gen:
        if _shatters(cover, full, cand):
            return True
    return False


def _shatters(cover, full, cand) -> bool:
    d = len(cand)
    pos = [cover[e] for e in cand]
    inter = full
    for m in pos:
        inter &= m
    if not inter:  # the full trace needs a member containing all of S
        return False
    # leave-one-out patterns first: for plane systems these fail earliest
    pre = [full] * (d + 1)
    for i in range(d):
        pre[i + 1] = pre[i] & pos[i]
    suf = [full] * (d + 1)
    for i in range(d - 1, -1, -1):
        suf[i] = suf[i + 1] & pos[i]
    for i in range(d):
        if not pre[i] & suf[i + 1] & ~pos[i] & full:
            return False
    neg = [full & ~m for m in pos]
    for pattern in range(1 << d):
        bits = pattern.bit_count()
        if bits >= d - 1:
            continue  # already checked above
        acc = full
        for i in range(d):
            acc &= pos[i] if (pattern >> i) & 1 else neg[i]
            if not acc:
                break
        if not acc:
            return False
    return True


class ShatterValue(NamedTuple):
    value: int
    exact: bool  # sampled mode only yields a lower bound


def shatter_function(
    system: SetSystem,
    z: int,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
) -> ShatterValue:
    """Max number of distinct traces of the family on a z-element ground subset.

    Exact mode enumerates all C(ground_size, z) subsets (budget 10^6);
    sampled mode draws seeded random subsets and reports a lower bound.
    """
    n = system.ground_size
    if not 0 <= z <= n:
        raise ValueError(f"z = {z} outside [0, {n}]")
    if z == 0:
        return ShatterValue(1 if system.family else 0, True)
    if mode == "exact":
        if comb(n, z) > SHATTER_EXACT_BUDGET:
            raise BudgetExceeded("exact shatter function over 10^6 subsets")
        subsets = combinations(range(n), z)
        exact = True
    elif mode == "sampled":
        rng = random.Random(seed)
        subsets = (tuple(rng.sample(range(n), z)) for _ in range(trials))
        exact = False
    else:
        raise ValueError(f"mode must be exact or sampled, got {mode!r}")
    members = set(system.family)
    best = 0
    for subset in subsets:
        mask = 0
        for e in subset:
            mask |= 1 << e
        traces = {m & mask for m in members}
        if len(traces) > best:
            best = len(traces)
            if best == 1 << z:
                break  # cannot grow further
    return ShatterValue(best, exact)


def sauer_shelah(z: int, d: int) -> int:
    """sum_{i=0}^{d} C(z, i); includes the i = 0 empty-trace term."""
    if z < 0 or d < 0:
        raise ValueError("z and d must be nonnegative")
    return sum(comb(z, i) for i in range(min(z, d) + 1))


@dataclass
class SeparationReport:
    k: int
    delta: int
    separated: bool
    witness: Optional[tuple[int, ...]] = None  # violating member indices
    exhaustive: bool = True

    def __post_init__(self):
        if self.separated and self.witness is not None:
            raise ValueError("witness only accompanies a violation")


def separation_check(
    system: SetSystem,
    k: int,
    delta: int,
    sample_trials: Optional[int] = None,
    seed: int = 0,
) -> SeparationReport:
    """Check (k, delta)-separation: every k members have |union \\ intersection| >= delta.

    Exhaustive over C(|family|, k) tuples up to 10^7; beyond that a seeded
    sample is required (the report then only certifies the sampled tuples).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    fam = system.family
    if len(fam) < k:
        return SeparationReport(k, delta, True)
    total = comb(len(fam), k)
    if total > SEPARATION_BUDGET:
        if sample_trials is None:
            raise BudgetExceeded(
                f"{total} tuples exceed 10^7; pass sample_trials for a sampled check"
            )
        rng = random.Random(seed)
        tuples = (
            tuple(sorted(rng.sample(range(len(fam)), k)))
            for _ in range(sample_trials)
        )
        exhaustive = False
    else:
        tuples = combinations(range(len(fam)), k)
        exhaustive = True
    for idxs in tuples:
        union = 0
        inter = -1
        for i in idxs:
            union |= fam[i]
            inter &= fam[i]
        if (union & ~inter).bit_count() < delta:
            return SeparationReport(k, delta, False, tuple(idxs), exhaustive)
    return SeparationReport(k, delta, True, None, exhaustive)


def rich_elements(system: SetSystem, tau: int) -> list[int]:
    """Indices of members of size >= tau (labels stay valid via the indices)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return [i for i, m in enumerate(system.family) if m.bit_count() >= tau]


@dataclass
class PackingReport:
    """Measured packing ratio |family| / (ground/delta)^d vs a supplied c'.

    This is a measurement harness, not a proof; the caller is responsible for
    having verified (k, delta)-separation first.
    """

    family_size: int
    ground_size: int
    k: int
    delta: int
    d: int
    c_prime: float
    ratio: float
    holds: bool


def packing_bound_check(
    system: SetSystem, k: int, delta: int, c_prime: float, d: int = 3
) -> PackingReport:
    if delta <= 0:
        raise ValueError("delta must be positive")
    ratio = len(system.family) / (system.ground_size / delta) ** d
    return PackingReport(
        family_size=len(system.family),
        ground_size=system.ground_size,
        k=k,
        delta=delta,
        d=d,
        c_prime=c_prime,
        ratio=ratio,
        holds=ratio <= c_prime,
    )
