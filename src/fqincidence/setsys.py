"""Set systems, shattering, VC dimension and the shatter function.

Members are stored as bitmask ints over a ground set [0, ground_size); the
family is a multiset (duplicates preserved, since neighborhood families can
repeat).  All exponential searches carry explicit budgets.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, islice
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, SubsetTooLarge
from .ffield import FieldSpec
from .geom import as_rows, check_incidence_input

VC_BUDGET = 10**7
SHATTER_EXACT_BUDGET = 10**6
SHATTER_SUBSET_CAP = 20
TRACE_BLOCK = 1 << 16  # atom words per candidate block of the trace kernel


@dataclass
class SetSystem:
    """Ground set [0, ground_size) plus a multiset family of subsets; members
    and elements are read by operator.index, so a float is a ValueError."""

    ground_size: int
    family: list[int]  # one bitmask per member

    def __post_init__(self):
        limit = 1 << self.ground_size
        self.family = [_integer(m, "family member") for m in self.family]
        for m in self.family:
            if not 0 <= m < limit:
                raise ValueError("family member outside the ground set")

    @classmethod
    def from_sets(cls, ground_size: int, sets) -> "SetSystem":
        masks = []
        for s in sets:
            m = 0
            for e in map(_integer, s):
                if not 0 <= e < ground_size:
                    raise ValueError(f"element {e} outside ground set")
                m |= 1 << e
            masks.append(m)
        return cls(ground_size, masks)

    def member_elements(self, i: int) -> tuple[int, ...]:
        m = self.family[i]
        return tuple(e for e in range(m.bit_length()) if m >> e & 1)


def _integer(x, what: str = "element") -> int:
    """x as a Python int; ValueError naming what for a non-integer."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


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
    points = as_rows(points)
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
    s = sorted(set(map(_integer, subset)))
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
    10^7.  Each level d >= 2 asks the system's search state (_Search, built
    once per system and shared with shatter_function) whether a d-set is
    shattered.  The answer is exact, as if is_shattered ran on every set.
    The empty family is assigned dimension 0.
    """
    if not 1 <= d_max <= 6:
        raise ValueError("d_max must be in [1, 6]")
    n = system.ground_size
    if sum(comb(n, i) for i in range(1, d_max + 1)) > VC_BUDGET:
        raise BudgetExceeded("subset search over 10^7 combinations")
    state = _search(n, tuple(sorted(set(system.family))))
    best = min(1, state.singles.size)
    while best < d_max and state.shattered(best + 1):
        best += 1
    return VcResult(best, best == d_max)


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
    256 sets to about TRACE_BLOCK atom words.

    A group's table combinations(range(k), d) comes whole from _table, and
    its rows expand through it with one gather; a table longer than a block
    (as on the plain route over a large ground set) streams in slices of one
    block instead.
    """
    rows = max(1, TRACE_BLOCK // (words * min(1 << d, 64 * words)))  # atoms <= members
    size, parts, have = min(256, rows), [], 0
    for part in _expand(groups, d, rows):
        parts.append(part)
        have += len(part)
        while have >= size:
            block = np.concatenate(parts)
            yield block[:size]
            parts, have = [block[size:]], have - size
            size = min(4 * size, rows)
    if have:
        yield np.concatenate(parts)


@lru_cache(maxsize=32)
def _table(k, d):
    """combinations(range(k), d) as a read-only (C(k, d), d) index array.

    Kept across calls, at most 32 of them.  _expand asks only for a table
    no longer than one candidate block, rows * d index words of 8 bytes with
    rows * min(2^d, 64) <= TRACE_BLOCK, so each is at most max(256, 8 d) KiB
    and the cache holds at most 8 MiB while d <= 32.
    """
    t = np.fromiter(chain.from_iterable(combinations(range(k), d)), np.intp, comb(k, d) * d)
    t.flags.writeable = False
    return t.reshape(-1, d)


def _expand(groups, d, rows):
    """The d-subsets of each group's rows in pieces of at most rows sets."""
    for es in groups:
        k = es.shape[1]
        if comb(k, d) <= rows:
            table = _table(k, d)
            step = rows // len(table)
            for i in range(0, len(es), step):
                yield es[i : i + step, table].reshape(-1, d)
        else:  # slices grow as the blocks do, so an early stop builds little
            flat, step = chain.from_iterable(combinations(range(k), d)), min(256, rows)
            while len(t := np.fromiter(islice(flat, step * d), np.intp).reshape(-1, d)):
                for e in es:
                    yield e[t]
                step = min(4 * step, rows)


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

    First, when the system's search state has answered level z, or the
    members hold no more z-subsets than there are z-sets of shattered
    singletons, a shattered z-set found by the state gives 2^z.  Otherwise all C(ground_size, z) subsets (budget 10^6) run
    through the trace kernel in lexicographic blocks of about TRACE_BLOCK
    words, stopping after the first block that reaches min(2^z, distinct
    members), or min(2^z - 1, distinct members) once the first pass found
    no shattered set; the value is exact.
    """
    n = system.ground_size
    if not 0 <= z <= n:
        raise ValueError(f"z = {z} outside [0, {n}]")
    if z == 0:
        return ShatterValue(1 if system.family else 0)
    if comb(n, z) > SHATTER_EXACT_BUDGET:
        raise BudgetExceeded("exact shatter function over 10^6 subsets")
    members = tuple(sorted(set(system.family)))
    state = _search(n, members)
    most = min(1 << z, len(members))  # no set has more traces
    if most == 1 << z and (z in state.answers or state.route(z) is not None):
        if state.shattered(z):
            return ShatterValue(most)
        most -= 1
    best = 0
    for cands in _subsets([np.arange(n)[None]], z, state.cols.shape[1]):
        if (best := _max_traces(state.cols, state.ncols, cands, best)) == most:
            break
    return ShatterValue(best)


def sauer_shelah(z: int, d: int) -> int:
    """sum_{i=0}^{d} C(z, i); includes the i = 0 empty-trace term."""
    if z < 0 or d < 0:
        raise ValueError("z and d must be nonnegative")
    return sum(comb(z, i) for i in range(min(z, d) + 1))
