"""field_array against the nested np.array reading.

nested_field_array below reads every input as field_array once read it,
numpy walking the nested rows with np.array(rows) and inferring the dtype;
where numpy casts the set to a float, string or object array it reads each
entry by its __index__, as field_array does now.  field_array packs tuple
and list rows into one flat int64 buffer and leaves every other input, and
any set with a row that does not pack, to that same np.array reading.  For
every input drawn here both must give the same int64 array, or raise the
same exception with the same text: rows as tuples, lists, namedtuples or
object ndarrays; entries that are Python ints in and out of [0, q) and past
int64, numpy int64, uint8, uint64 and bool, 0-d arrays, objects with
__index__, bools, floats, strings and None; ragged sets, including ones
whose row lengths add up to a whole number of rows; rows that are a dict,
set, str, bytes, range or ndarray; and bare ints in place of rows.  A set of
tuple or list rows of dim scalar entries must also read as the same rows
held as object ndarrays, which never pack.

Where numpy cast the set, the old reading searched it for an entry that was
no int or numpy integer in [0, q), and refused the set naming that entry, or
None when it found none.  test_entries_read_by_their_index pins the inputs on
which the two differ, in every reading and at 1 and 100 rows.
"""

import operator
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqincidence.errors import FieldMismatch
from fqincidence.ffield import make_field
from fqincidence.geom import field_array

FIELDS = [(5, 1), (13, 1), (2, 3), (3, 2)]
Row1 = namedtuple("Row1", "x")
Row2 = namedtuple("Row2", "x y")
Row3 = namedtuple("Row3", "x y z")
NAMED = {1: Row1, 2: Row2, 3: Row3}


class Index:
    """An integer to struct and operator.index, but no int or numpy value."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


def _entry(x):
    """An entry of a cast set as an int, or itself if it has no __index__."""
    if isinstance(x, np.generic):
        x = x.item()
    try:
        return operator.index(x)
    except TypeError:
        return x


def nested_field_array(fs, rows, dim, what="coordinate"):
    """The reference: every input read by np.array(rows)."""
    try:
        arr = np.array(rows)
    except ValueError:  # ragged rows
        arr = np.empty(0)
    if len(rows) and arr.shape != (len(rows), dim):
        raise FieldMismatch(f"expected rows of {dim} {what}s")
    if arr.dtype.kind not in "biu" and arr.size:
        entries = [_entry(x) for row in rows for x in row]
        for x in entries:
            if not isinstance(x, int):
                raise FieldMismatch(f"{what} {x!r} is not an integer")
            if not 0 <= x < fs.q:
                raise FieldMismatch(f"{what} {x} outside [0, {fs.q})")
        arr = np.array(entries, np.int64)
    out = arr.astype(np.int64, copy=False).reshape(len(rows), dim)
    if np.count_nonzero(out.view(np.uint64) >= fs.q):  # a negative entry wraps past q
        raise FieldMismatch(f"{what} {arr[(arr < 0) | (arr >= fs.q)][0]} outside [0, {fs.q})")
    return out


def old_field_array(fs, rows, dim, what="coordinate"):
    """The old reading as it was: where numpy cast the set, it named the
    first entry that was no int or numpy integer in [0, q), or None."""
    try:
        arr = np.array(rows)
    except ValueError:  # ragged rows
        arr = np.empty(0)
    if len(rows) and arr.shape != (len(rows), dim):
        raise FieldMismatch(f"expected rows of {dim} {what}s")
    if arr.dtype.kind not in "biu" and arr.size:  # named as given: numpy has cast it
        bad = next((x for row in rows for x in row
                    if not (isinstance(x, (int, np.integer)) and 0 <= x < fs.q)), None)
        if isinstance(bad, np.generic):  # an entry of a numpy array, named as a Python value
            bad = bad.item()
        if isinstance(bad, int):  # too large for int64
            raise FieldMismatch(f"{what} {bad} outside [0, {fs.q})")
        raise FieldMismatch(f"{what} {bad!r} is not an integer")
    out = arr.astype(np.int64, copy=False).reshape(len(rows), dim)
    if np.count_nonzero(out.view(np.uint64) >= fs.q):  # a negative entry wraps past q
        raise FieldMismatch(f"{what} {arr[(arr < 0) | (arr >= fs.q)][0]} outside [0, {fs.q})")
    return out


def _outcome(read, fs, rows, dim):
    try:
        out = read(fs, rows, dim)
    except Exception as exc:  # noqa: BLE001 -- the exception itself is compared
        return "raised", type(exc).__name__, str(exc)
    return "array", out.dtype.str, out.shape, out.tolist()


def _agree(fs, rows, dim):
    got = _outcome(field_array, fs, rows, dim)
    assert got == _outcome(nested_field_array, fs, rows, dim)
    if all(isinstance(row, (tuple, list)) and len(row) == dim
           and not any(map(np.ndim, row)) for row in rows):
        held = [np.array(row, dtype=object) for row in rows]
        assert _outcome(field_array, fs, held, dim) == got
    return got


def _entries(q):
    """Mostly field elements, sometimes an entry of another kind."""
    odd = st.one_of(
        st.integers(-2 * q, 2 * q), st.sampled_from([q, -1, 2**63 - 1, 2**63, 2**64, -2**63 - 1]),
        st.builds(np.int64, st.integers(-q, 2 * q)), st.builds(np.uint8, st.integers(0, 255)),
        st.builds(np.uint64, st.one_of(st.integers(0, 2 * q), st.just(2**64 - 1))),
        st.booleans(), st.builds(np.bool_, st.booleans()), st.builds(np.array, st.integers(0, q - 1)),
        st.builds(Index, st.integers(-1, q)),
        st.sampled_from([1.5, 2.0, float("nan"), "1", "a", None]))
    return st.one_of(st.integers(0, q - 1), st.integers(0, q - 1), odd)


def _rows(q, dim):
    """One row: mostly dim entries as a tuple, list or namedtuple; sometimes
    of another length, or a dict, set, str, bytes, range, ndarray or bare int."""
    element = st.integers(0, q - 1)
    length = st.one_of(st.just(dim), st.just(dim), st.integers(0, dim + 1))
    entries = length.flatmap(lambda k: st.lists(_entries(q), min_size=k, max_size=k))
    fixed = st.lists(element, min_size=dim, max_size=dim)
    return st.one_of(
        entries.map(tuple), entries, fixed.map(lambda e: NAMED[dim](*e)),
        fixed.map(lambda e: dict.fromkeys(e, "a")), fixed.map(set),
        fixed.map(lambda e: "".join(map(str, e))), fixed.map(bytes),
        element.map(lambda a: range(a, a + dim)), fixed.map(np.array),
        entries.map(lambda e: np.array(e, dtype=object)), element)


@settings(max_examples=400)
@given(st.data())
def test_rows_read_as_the_nested_reading_reads_them(data):
    fs = make_field(*data.draw(st.sampled_from(FIELDS)))
    dim = data.draw(st.sampled_from([1, 2, 3]))
    rows = data.draw(st.lists(_rows(fs.q, dim), max_size=6))
    _agree(fs, rows, dim)


@settings(max_examples=150)
@given(st.data())
def test_field_elements_read_alike_in_every_row_type(data):
    fs = make_field(*data.draw(st.sampled_from(FIELDS)))
    dim = data.draw(st.sampled_from([1, 2, 3]))
    rows = data.draw(st.lists(st.lists(st.integers(0, fs.q - 1), min_size=dim, max_size=dim),
                              max_size=80))
    shape = data.draw(st.sampled_from([tuple, list, lambda e: NAMED[dim](*e)]))
    assert _agree(fs, [shape(row) for row in rows], dim) == (
        "array", "<i8", (len(rows), dim), rows)
    assert field_array(fs, [shape(row) for row in rows], dim).flags.writeable


@pytest.mark.parametrize("rows,dim", [
    ([(1, 2, 3), (4,)], 2), ([(1,), (2, 3, 4)], 2), ([(1, 2), (3,), (4, 0)], 2),
    ([{1: "a", 2: "b"}], 2), ([{1, 2}], 2), ([b"\x01\x02"], 2), (["12"], 2),
    ([range(2)], 2), ([np.array([1, 2])], 2), ([(np.array([1]), 2)], 2),
    ([((1, 2), (3, 4))], 2), ([[(4,)]], 1), ([1, 2], 2), ([1, 2, 3], 3), ([[]], 0), ([], 2),
    ([(2**63, 1)], 2), ([(-1, 2**63)], 2), ([(2**70, 1)], 2), ([(2.0, 1)], 2),
    ([(np.True_, 1)], 2), ([(np.uint8(200), -1)], 2), ([(True, 1), (0, False)], 2),
    ([(np.uint64(2**64 - 1), 1)], 2), ([(np.uint64(3), -1)], 2), ([(Index(7), 1)], 2),
    ([(np.array(2.0), 1)], 2), ([(np.True_, 1.5)], 2),
], ids=repr)
def test_listed_inputs_read_as_the_nested_reading_reads_them(rows, dim):
    _agree(make_field(5, 1), rows, dim)


# rows on which the old reading refused a set of field elements, or named an
# entry other than the first that is none: the rows, what field_array reads
# (an array or a refusal) and the old reading's refusal
INDEX_READS = [
    ([(np.uint64(1), 2)], [[1, 2]], "coordinate None is not an integer"),
    ([(np.uint64(4), np.int64(0))], [[4, 0]], "coordinate None is not an integer"),
    ([(Index(3), 1)], [[3, 1]], "coordinate Index(3) is not an integer"),
    ([(Index(7), 1)], "coordinate 7 outside [0, 5)", "coordinate Index(7) is not an integer"),
    ([(np.array(2), Index(1))], [[2, 1]], "coordinate array(2) is not an integer"),
    ([(np.array(2), 1.5)], "coordinate 1.5 is not an integer",
     "coordinate array(2) is not an integer"),
    ([(np.True_, Index(1))], [[1, 1]], "coordinate True outside [0, 5)"),
]


@pytest.mark.parametrize("rows,reads,old", INDEX_READS, ids=repr)
@pytest.mark.parametrize("count", [1, 100])
@pytest.mark.parametrize("held", ["tuple", "list", "object ndarray", "ndarray beside tuples"])
def test_entries_read_by_their_index(rows, reads, old, count, held):
    fs = make_field(5, 1)
    rows = rows * count
    if held == "list":
        rows = [list(row) for row in rows]
    elif held == "object ndarray":
        rows = [np.array(row, dtype=object) for row in rows]
    elif held == "ndarray beside tuples":  # the set as a whole goes to np.array
        rows = [np.array(rows[0], dtype=object)] + rows[1:]
    if isinstance(reads, str):
        assert _outcome(field_array, fs, rows, 2) == ("raised", "FieldMismatch", reads)
    else:
        assert field_array(fs, rows, 2).tolist() == reads * count
    assert _outcome(old_field_array, fs, rows, 2) == ("raised", "FieldMismatch", old)
