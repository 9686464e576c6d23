"""Set systems, shattering, VC dimension and the shatter function.

Members are stored as bitmask ints over a ground set [0, ground_size); the
family is a multiset (duplicates preserved, since neighborhood families can
repeat).  All exponential searches carry explicit budgets.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from typing import NamedTuple

import numpy as np

from .bounds import _integer
from .errors import BudgetExceeded, SubsetTooLarge
from .ffield import FieldSpec
from .geom import as_rows, field_array, flat_rows

VC_BUDGET = 10**7
SHATTER_EXACT_BUDGET = 10**6
SHATTER_SUBSET_CAP = 20
TRACE_BLOCK = 1 << 16  # atom words per candidate block of the trace kernel


@dataclass
class SetSystem:
    """Ground set [0, ground_size) plus a multiset family of subsets; the
    ground size, members and elements are read by operator.index, so a float
    is a ValueError, as is a negative ground size."""

    ground_size: int
    family: list[int]  # one bitmask per member

    def __post_init__(self):
        if (n := _integer(self.ground_size, "ground size")) < 0:
            raise ValueError(f"ground size {n} is negative")
        self.ground_size, limit = n, 1 << n
        self.family = [_integer(m, "family member") for m in self.family]
        for m in self.family:
            if not 0 <= m < limit:
                raise ValueError("family member outside the ground set")

    @classmethod
    def from_sets(cls, ground_size: int, sets) -> "SetSystem":
        masks = []
        for s in sets:
            m = 0
            for e in s:
                e = _integer(e, "element")
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
    planes = flat_rows(fs, planes, 3)
    pts = field_array(fs, as_rows(points), 3)
    pts = np.column_stack([pts, np.ones(len(pts), dtype=np.int64)])
    pls = np.column_stack([planes.normals, fs.vneg(planes.rhs)])
    members, ground = (pts, pls) if side == "by_point" else (pls, pts)
    masks = [
        int.from_bytes(row.tobytes(), "little")
        for vals in fs.dot_blocks(members, ground)
        for row in np.packbits(vals == 0, axis=1, bitorder="little")
    ]
    return SetSystem(len(ground), masks)


def is_shattered(system: SetSystem, subset) -> bool:
    """True iff every one of the 2^|S| traces A & S is realized by the family."""
    s = sorted({_integer(e, "element") for e in subset})
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
    10^7.  The dimension lies in [min(1, shattered singletons), d_max]; the
    levels are bisected, each step asking the system's search state
    (_Search, built once per system and shared with shatter_function)
    whether a set of the upper middle level is shattered.  This is exact,
    as if is_shattered ran on every set, because every subset of a
    shattered set is shattered: a shattered d-set proves every level below
    d, and none at d rules out every level above.  At d_max = 4 a system of
    dimension 3 asks levels 3 and 4, never 2; one of dimension at most 1
    asks levels 3 and 2, so it pays a failing level-3 search, its dearest,
    that a walk up from level 2 would skip.
    The empty family is assigned dimension 0.
    """
    if not 1 <= (d_max := _integer(d_max, "d_max")) <= 6:
        raise ValueError("d_max must be in [1, 6]")
    n = system.ground_size
    if sum(comb(n, i) for i in range(1, d_max + 1)) > VC_BUDGET:
        raise BudgetExceeded("subset search over 10^7 combinations")
    state = _search(n, tuple(sorted(set(system.family))))
    lo, hi = min(1, state.singles.size), d_max if state.singles.size else 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if state.shattered(mid) else (lo, mid - 1)
    return VcResult(lo, lo == d_max)


class _Search:
    """One system's search state: cols[e] packs column e of the distinct
    members into uint64 words (bit i = member i; row n: every member's bit),
    ncols = ~cols in those bits; the shattered singletons (elements some
    member holds and some avoids); each member's elements among them, one
    (members, k) array of rows per size k; each level's answer, once asked."""

    def __init__(self, n, members):
        nbytes, words = (n + 7) // 8, max(1, -(-len(members) // 64))
        raw = b"".join(m.to_bytes(nbytes, "little") for m in members)
        inc = np.frombuffer(raw, np.uint8).reshape(len(members), nbytes)
        inc = np.unpackbits(inc, axis=1, count=n, bitorder="little")
        every = np.ones((1, len(members)), np.uint8)
        bits = np.packbits(np.vstack((inc.T, every)), axis=1, bitorder="little")
        self.cols = np.zeros((n + 1, words), np.uint64)
        self.cols.view(np.uint8)[:, : bits.shape[1]] = bits
        self.ncols = ~self.cols & self.cols[n]
        held = inc.sum(axis=0)
        self.singles = np.flatnonzero((held > 0) & (held < len(members)))
        inc = inc[:, self.singles]
        sizes = inc.sum(axis=1, dtype=np.intp)
        flat = self.singles[np.nonzero(inc[np.argsort(sizes, kind="stable")])[1]]
        self.rows, end = [], 0
        for k, c in enumerate(np.bincount(sizes).tolist()):
            if c:
                self.rows.append(flat[end : end + c * k].reshape(c, k))
                end += c * k
        self.answers = {}

    def route(self, d):
        """The member rows with d-subsets, or None when they hold more d-subsets
        than the C(n, d) of a plain search over the n shattered singletons."""
        groups = [es for es in self.rows if es.shape[1] >= d]
        if sum(len(es) * comb(es.shape[1], d) for es in groups) <= comb(self.singles.size, d):
            return groups
        return None

    def shattered(self, d) -> bool:
        """True iff a d-subset of a member row (a shattered set realizes its
        full trace, so lies in a member), or of the singletons, is shattered."""
        if d not in self.answers:
            groups, full = self.route(d), 1 << d
            cands = _subsets([self.singles[None]] if groups is None else groups, d,
                             self.cols.shape[1])
            self.answers[d] = any(
                _max_traces(self.cols, self.ncols, c, full - 1) == full for c in cands)
        return self.answers[d]


@lru_cache(maxsize=1)
def _search(n, members):
    """The _Search of the last system asked for, keyed by its ground size and
    sorted distinct members, so a changed family never reads a stale state."""
    return _Search(n, members)


def _subsets(groups, d, words):
    """Every d-subset of every row of each group (2-D arrays of element rows
    of one length k) as index blocks, each filled to its size, growing from
    256 sets to rows, about TRACE_BLOCK atom words.

    One stream: a group's combinations(range(k), d) comes from _slice, whole
    when it fits in one block (one cached lookup per group), else in slices
    of 256 rows, then 4 times as many up to rows, so an early stop builds
    little; each slice gathers as many of the group's rows at once as fill
    a block.
    """
    rows = max(1, TRACE_BLOCK // (words * min(1 << d, 64 * words)))  # atoms <= members
    size, parts, have = min(256, rows), [], 0
    for es in groups:
        k, start = es.shape[1], 0
        total = comb(k, d)
        while start < total:  # slice i of a long table starts at 256 (4^i - 1) / 3
            stop = total if total <= rows else min(4 * start + 256, start + rows, total)
            t, per = _slice(k, d, start, stop), rows // (stop - start)
            for i in range(0, len(es), per):
                parts.append(es[i : i + per].take(t, axis=1).reshape(-1, d))
                have += len(parts[-1])
                while have >= size:
                    block = np.concatenate(parts)
                    yield block[:size]
                    parts, have = [block[size:]], have - size
                    size = min(4 * size, rows)
            start = stop
    if have:
        yield np.concatenate(parts)


@lru_cache(maxsize=32)
def _slice(k, d, start, stop):
    """Ranks start..stop-1 of combinations(range(k), d) as a read-only
    (stop - start, d) index array.

    Kept across calls, at most 32 of them.  _subsets asks only for slices
    of at most one candidate block, rows * d index words of 8 bytes with
    rows * min(2^d, 64) <= TRACE_BLOCK, so each is at most max(256, 8 d) KiB
    and the cache holds at most 8 MiB while d <= 32.
    """
    t = _ranked(k, d, np.arange(start, stop))
    t.flags.writeable = False
    return t


def _ranked(k, d, ranks):
    """The d-subsets of range(k) at the given lexicographic ranks (an int64
    array) of combinations(range(k), d), as intp rows.

    Entry j of a subset is found from the rank left after entries 0..j-1 by
    one searchsorted over first[j]: first[j][c - j] counts the ways to
    complete entries j.. with entry j below c, C(k - j, d - j) - C(k - c,
    d - j), whatever entries came before; every count is at most C(k, d).
    The binomials are column sums, C(m, r) = sum of C(i, r - 1) over i < m,
    kept to m <= k - d + r, where C(m, r) <= C(k, d), so each slice of a
    long table costs O(d k) array work, not d k calls of comb.
    """
    first, col = [], np.ones(k - d + 1, np.int64)  # C(m, 0) for m <= k - d
    for r in range(1, d + 1):  # entry j = d - r
        col = np.concatenate(([0], np.cumsum(col)))
        first.append(col[-1] - col[r - 1 :][::-1])
    out = np.empty((len(ranks), d), dtype=np.intp)
    prev, left = np.full(len(ranks), -1), ranks
    for j, f in enumerate(reversed(first)):
        at = f[prev + 1 - j] + left  # among completions with entry j past prev
        prev = out[:, j] = np.searchsorted(f, at, "right") + j - 1
        left = at - f[prev - j]
    return out


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
    if not len(cands):
        return floor
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

    The budget counts every z-set (C(ground_size, z) <= 10^6), but only the
    shattered singletons are searched, as on vc_dimension's plain route: an
    element every member holds, or none does, adds no trace, and a set has
    no fewer traces than its subsets, so some z-set of singletons reaches
    the maximum; with fewer than z of them, the distinct members, which
    differ on the singletons, give the value.  When the system's search
    state has answered level z, or the members hold no more z-subsets than
    there are z-sets of singletons, a shattered z-set found by the state
    gives 2^z.  Otherwise the z-sets of singletons run through the trace
    kernel in lexicographic blocks of about TRACE_BLOCK words, stopping
    after the first block that reaches min(2^z, distinct members), or
    min(2^z - 1, distinct members) once the first pass found no shattered
    set; the value is exact.
    """
    n, z = system.ground_size, _integer(z, "z")
    if not 0 <= z <= n:
        raise ValueError(f"z = {z} outside [0, {n}]")
    if z == 0:
        return ShatterValue(1 if system.family else 0)
    if comb(n, z) > SHATTER_EXACT_BUDGET:
        raise BudgetExceeded("exact shatter function over 10^6 subsets")
    members = tuple(sorted(set(system.family)))
    state = _search(n, members)
    most = min(1 << z, len(members))  # no set has more traces
    if state.singles.size < z:
        return ShatterValue(most)
    if most == 1 << z and (z in state.answers or state.route(z) is not None):
        if state.shattered(z):
            return ShatterValue(most)
        most -= 1
    best = 0
    for cands in _subsets([state.singles[None]], z, state.cols.shape[1]):
        if (best := _max_traces(state.cols, state.ncols, cands, best)) == most:
            break
    return ShatterValue(best)


def sauer_shelah(z: int, d: int) -> int:
    """sum_{i=0}^{d} C(z, i); includes the i = 0 empty-trace term."""
    z, d = _integer(z, "z"), _integer(d, "d")
    if z < 0 or d < 0:
        raise ValueError("z and d must be nonnegative")
    return sum(comb(z, i) for i in range(min(z, d) + 1))
