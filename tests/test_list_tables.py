"""Every table a caller hands in is narrowed into int16 a block of rows at a time.

from_cayley_table on a list never makes a whole-table wider array, yet
accepts and rejects exactly what the whole-table check did: a reference
copy of that check, kept here, decides every case, whichever block holds
the fault. FiniteGroup takes a table through the same check, so a hostile
table gets one ValueError, word for word, from either constructor. An
order-4096 table as lists peaks at no more than two and a half int16
tables through either one, and a float array is named before any table is
made.
"""

import tracemalloc

import numpy as np
import pytest

from classprod import FiniteGroup, build_group, from_cayley_table
from classprod.group import _BLOCK_ROWS, _table_array

from test_cayley_ingest import relabeled

N = 2 * _BLOCK_ROWS + 2  # three blocks, the last of two rows


def whole_table_reference(rows, n):
    """The whole-table check on a list: np.array of every row at once."""
    try:
        arr = np.array(rows)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is not None and arr.shape == (n, n) and arr.dtype.kind in "iu":
        if arr.min() < 0 or arr.max() >= n:
            i, j = divmod(int(np.argmax((arr < 0) | (arr >= n))), n)
            raise ValueError(f"row {i} contains entry {int(arr[i, j])!r} outside 0..{n - 1}")
        return arr.astype(np.int16)
    table = [list(r) for r in rows]
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"row {i} contains entry {v!r} outside 0..{n - 1}")
    return np.asarray(table, dtype=np.int16)


def outcome(fn, rows, n):
    try:
        return fn(rows, n).tolist()
    except ValueError as exc:
        return str(exc)


def cyclic_rows():
    return [[(a + b) % N for b in range(N)] for a in range(N)]


def planted(*faults):
    """cyclic_rows with (row, column, value) set; column None replaces the row."""
    rows = cyclic_rows()
    for r, c, v in faults:
        if c is None:
            rows[r] = v
        else:
            rows[r][c] = v
    return rows


CASES = {
    "clean": planted(),
    "range in the last block": planted((N - 1, 5, N)),
    "range in every block": planted((N - 1, 0, -1), (70, 3, N + 7), (2, 9, 999)),
    "range, then a ragged row": planted((3, 4, N), (N - 1, None, [0, 1])),
    "range, then a float": planted((3, 4, N), (100, 0, 1.5)),
    "a float, then range": planted((1, 4, 0.5), (100, 0, N)),
    "range, then a bool row": planted((3, 4, N), (N - 2, None, [True] * N)),
    "range, then past int64": planted((3, 4, N), (N - 1, 1, 2**64)),
    "past uint64 first": planted((0, 1, 2**64), (N - 1, 1, N)),
    "negative, then past int63": planted((5, 5, -3), (N - 1, 0, 2**63)),
    "numpy rows, then a ragged row": [np.asarray(r) for r in planted((N - 1, None, [0]))],
    "numpy rows out of range": [np.asarray(r) for r in planted((N - 1, 2, N))],
    "a row too long": planted((64, None, list(range(N)) + [0])),
    "rows as tuples": [tuple(r) for r in planted((65, 1, N + 1))],
}


@pytest.mark.parametrize("name", list(CASES))
def test_blocks_decide_as_the_whole_table_did(name):
    rows = CASES[name]
    assert (
        outcome(lambda r, n: _table_array(r, n, "c130"), rows, N)
        == outcome(whole_table_reference, rows, N)
    )


def test_boolean_rows_keep_the_per_entry_loop():
    rows = [[False, True], [True, False]]
    assert _table_array(rows, 2, "c2").tolist() == [[0, 1], [1, 0]]
    assert from_cayley_table(rows, "c2").order == 2


CONSTRUCTORS = [pytest.param(from_cayley_table, id="from_cayley_table"),
                pytest.param(FiniteGroup, id="FiniteGroup")]


@pytest.fixture(scope="module")
def d8_cubed():
    """The order-4096 table of prod(dihedral:8,dihedral:8,dihedral:8), and one
    int object per value for rows that share them."""
    table = build_group("prod(dihedral:8,dihedral:8,dihedral:8)").np_table()
    return table, np.array(list(range(len(table))), dtype=object)


@pytest.mark.parametrize("construct", CONSTRUCTORS)
def test_relabeled_4096_table_as_lists_peaks_within_two_and_a_half_tables(d8_cubed, construct):
    table, ints = d8_cubed
    if construct is from_cayley_table:  # FiniteGroup wants the identity at index 0
        table = relabeled(table, 7)
    n = len(table)
    rows = [ints[r].tolist() for r in table]
    tracemalloc.start()
    try:
        g = construct(rows, "d8^3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = n * n * np.dtype(np.int16).itemsize
    assert g.order == 4096
    assert peak <= 2.5 * table_bytes, f"peak {peak} B for a table of {table_bytes} B"


HOSTILE = {
    "a float": ([[0, 1.5], [1, 0]], "row 0 contains entry 1.5 outside 0..1"),
    "a float array with a NaN": (
        np.array([[0.0, 1.0], [1.0, np.nan]]),
        f"row 0 contains entry {np.float64(0.0)!r} outside 0..1",
    ),
    "a None entry": ([[0, 1], [1, None]], "row 1 contains entry None outside 0..1"),
    "string entries": ([["0", "1"], ["1", "0"]], "row 0 contains entry '0' outside 0..1"),
    "ragged rows": ([[0, 1, 2], [1, 2, 0], [2, 0]], "row 2 has length 2, expected 3"),
    "a row that is not a sequence": ([[0, 1], 1], "row 1 is 'int', not a sequence"),
    "a 1-d array": (np.arange(3), "table of 'x' is not square: shape (3,)"),
    "a 3-d array": (np.zeros((2, 2, 2), dtype=np.int64), "table of 'x' is not square: shape (2, 2, 2)"),
}


@pytest.mark.parametrize("construct", CONSTRUCTORS)
@pytest.mark.parametrize("name", list(HOSTILE))
def test_a_hostile_table_gets_one_value_error_from_either_constructor(name, construct):
    table, text = HOSTILE[name]
    with pytest.raises(ValueError) as info:
        construct(table, "x")
    assert str(info.value) == text


@pytest.mark.parametrize("construct", CONSTRUCTORS)
def test_a_float_array_is_named_before_any_table_is_made(construct):
    n = 1024
    arr = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(np.float64)  # Z/1024 as floats
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            construct(arr, "c1024")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"row 0 contains entry {np.float64(0.0)!r} outside 0..1023"
    assert peak < n * n * np.dtype(np.int16).itemsize, f"peak {peak} B"
