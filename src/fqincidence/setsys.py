"""Set systems, shattering, VC dimension and the shatter function.

Members are stored as bitmask ints over a ground set [0, ground_size); the
family is a multiset (duplicates preserved, since neighborhood families can
repeat).  All exponential searches carry explicit budgets.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, islice
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, SubsetTooLarge
from .ffield import FieldSpec
from .geom import check_incidence_input

VC_BUDGET = 10**7
SHATTER_EXACT_BUDGET = 10**6
SHATTER_SUBSET_CAP = 20
TRACE_BLOCK = 1 << 16  # atom words per candidate block of the trace kernel


@dataclass
class SetSystem:
    """Ground set [0, ground_size) plus a multiset family of subsets."""

    ground_size: int
    family: list[int]  # one bitmask per member

    def __post_init__(self):
        limit = 1 << self.ground_size
        for m in self.family:
            if not 0 <= m < limit:
                raise ValueError("family member outside the ground set")

    @classmethod
    def from_sets(cls, ground_size: int, sets) -> "SetSystem":
        masks = []
        for s in sets:
            m = 0
            for e in s:
                if not 0 <= e < ground_size:
                    raise ValueError(f"element {e} outside ground set")
                m |= 1 << e
            masks.append(m)
        return cls(ground_size, masks)

    def member_elements(self, i: int) -> tuple[int, ...]:
        m = self.family[i]
        return tuple(e for e in range(m.bit_length()) if m >> e & 1)


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
    pts, (nrm, rhs) = check_incidence_input(fs, points, planes, lines=False)
    pts = np.column_stack([pts, np.ones(len(pts), dtype=np.int64)])
    pls = np.column_stack([nrm, fs.vneg(rhs)])
    members, ground = (pts, pls) if side == "by_point" else (pls, pts)
    masks = [
        int.from_bytes(row.tobytes(), "little")
        for vals in fs.dot_blocks(members, ground)
        for row in np.packbits(vals == 0, axis=1, bitorder="little")
    ]
    return SetSystem(len(ground), masks)


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
    set must realize its full trace), or plainly when that is fewer, and go
    through the trace kernel _max_traces in blocks of about TRACE_BLOCK words
    up to the first shattered set; the answer is exact, as if is_shattered
    ran on every set.  The empty family is assigned dimension 0.
    """
    if not 1 <= d_max <= 6:
        raise ValueError("d_max must be in [1, 6]")
    n = system.ground_size
    if sum(comb(n, i) for i in range(1, d_max + 1)) > VC_BUDGET:
        raise BudgetExceeded("subset search over 10^7 combinations")
    members = sorted(set(system.family))
    inc, cols, ncols = _columns(members, n)
    # level 1: an element shatters iff some member holds it and some avoids it
    singles = np.flatnonzero(np.isin(inc.sum(axis=0), (0, len(members)), invert=True))
    inc = inc[:, singles]  # members restricted to the shattered singletons
    sizes = inc.sum(axis=1)
    best = min(1, singles.size)
    for d in range(2, d_max + 1):
        groups = [singles[None]]
        if sum(comb(k, d) for k in sizes.tolist()) <= comb(singles.size, d):
            groups = [singles[np.nonzero(inc[sizes == k])[1]].reshape(-1, k)
                      for k in np.unique(sizes[sizes >= d]).tolist()]
        if all(_max_traces(cols, ncols, c, (1 << d) - 1) < 1 << d
               for c in _subsets(groups, d, cols.shape[1])):
            break
        best = d
    return VcResult(best, best == d_max)


def _columns(members, n):
    """Bit-sliced members: inc[i, e] = 1 iff member i holds e, cols[e] packs
    column e into uint64 words (bit i = member i), ncols = ~cols in those bits."""
    nbytes, words = (n + 7) // 8, max(1, -(-len(members) // 64))
    raw = b"".join(m.to_bytes(nbytes, "little") for m in members)
    inc = np.frombuffer(raw, np.uint8).reshape(len(members), nbytes)
    inc = np.unpackbits(inc, axis=1, count=n, bitorder="little")
    every = np.ones((1, len(members)), np.uint8)  # row n: every member's bit
    bits = np.packbits(np.vstack((inc.T, every)), axis=1, bitorder="little")
    cols = np.zeros((n + 1, words), np.uint64)
    cols.view(np.uint8)[:, : bits.shape[1]] = bits
    return inc, cols, ~cols & cols[n]


def _subsets(groups, d, words):
    """Every d-subset of every row of each group (2-D arrays of element rows
    of one length k, expanded by a streamed combinations(range(k), d)) as
    index blocks, growing from 256 sets to about TRACE_BLOCK atom words.
    """
    rows = max(1, TRACE_BLOCK // (words * min(1 << d, 64 * words)))  # atoms <= members
    size, parts = min(256, rows), []
    for es in groups:
        flat = chain.from_iterable(combinations(range(es.shape[1]), d))
        while len(t := np.fromiter(islice(flat, size * d), np.intp).reshape(-1, d)):
            step = max(1, size // len(t))
            for i in range(0, len(es), step):
                parts.append(es[i : i + step][:, t].reshape(-1, d))
                if sum(map(len, parts)) >= size:
                    yield np.concatenate(parts)
                    size, parts = min(4 * size, rows), []
    if parts:
        yield np.concatenate(parts)


def _max_traces(cols, ncols, cands, floor: int) -> int:
    """The trace kernel: max(floor, most distinct member traces on one set).

    An atom is the members (as column words) sharing one trace; each element
    splits every atom by its column and empty atoms go, so a set's atoms are
    its traces.  Sets that can no longer beat floor go too; when only a
    shattered one can, leave-one-out traces (in plane systems the first to
    fail) are tested before any atom is built.
    """
    d = cands.shape[1]
    for i in range(d if floor >= (1 << d) - 1 else 0):
        others = (cols[cands[:, j]] for j in range(d) if j != i)
        cands = cands[reduce(np.bitwise_and, others, ncols[cands[:, i]]).any(axis=1)]
    owner = np.arange(len(cands))  # candidate row of each atom
    atoms = np.repeat(cols[-1:], len(cands), axis=0)
    for i in range(d):
        c = cands[owner, i]
        atoms = np.concatenate((atoms & ncols[c], atoms & cols[c]))
        owner = np.concatenate((owner, owner))
        live = atoms.any(axis=1)
        counts = np.bincount(owner[live], minlength=len(cands))
        live &= (counts << (d - 1 - i) > floor)[owner]
        atoms, owner = atoms[live], owner[live]
    return max(floor, int(counts.max(initial=0)))


class ShatterValue(NamedTuple):
    value: int


def shatter_function(system: SetSystem, z: int) -> ShatterValue:
    """Max number of distinct traces of the family on a z-element ground subset.

    Runs all C(ground_size, z) subsets (budget 10^6) through the trace kernel
    in lexicographic blocks of about TRACE_BLOCK words, stopping after the
    first block that reaches min(2^z, distinct members); the value is exact.
    """
    n = system.ground_size
    if not 0 <= z <= n:
        raise ValueError(f"z = {z} outside [0, {n}]")
    if z == 0:
        return ShatterValue(1 if system.family else 0)
    if comb(n, z) > SHATTER_EXACT_BUDGET:
        raise BudgetExceeded("exact shatter function over 10^6 subsets")
    members = sorted(set(system.family))
    _, cols, ncols = _columns(members, n)
    best = 0
    for cands in _subsets([np.arange(n)[None]], z, cols.shape[1]):
        if (best := _max_traces(cols, ncols, cands, best)) == min(1 << z, len(members)):
            break  # no set has more traces than 2^z or the distinct members
    return ShatterValue(best)


def sauer_shelah(z: int, d: int) -> int:
    """sum_{i=0}^{d} C(z, i); includes the i = 0 empty-trace term."""
    if z < 0 or d < 0:
        raise ValueError("z and d must be nonnegative")
    return sum(comb(z, i) for i in range(min(z, d) + 1))
