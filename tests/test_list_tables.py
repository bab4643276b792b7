"""Tables given as lists are narrowed into int16 a block of rows at a time.

from_cayley_table on a list never makes a whole-table wider array, yet
accepts and rejects exactly what the whole-table check did: a reference
copy of that check, kept here, decides every case, whichever block holds
the fault. A relabeled order-4096 table as lists peaks at no more than two
and a half int16 tables.
"""

import tracemalloc

import numpy as np
import pytest

from classprod import build_group, from_cayley_table
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
    assert outcome(_table_array, rows, N) == outcome(whole_table_reference, rows, N)


def test_boolean_rows_keep_the_per_entry_loop():
    rows = [[False, True], [True, False]]
    assert _table_array(rows, 2).tolist() == [[0, 1], [1, 0]]
    assert from_cayley_table(rows, "c2").order == 2


def test_relabeled_4096_table_as_lists_peaks_within_two_and_a_half_tables():
    table = relabeled(build_group("prod(dihedral:8,dihedral:8,dihedral:8)").np_table(), 7)
    n = len(table)
    ints = np.array(list(range(n)), dtype=object)  # one int object per value, shared
    rows = [ints[r].tolist() for r in table]
    tracemalloc.start()
    try:
        g = from_cayley_table(rows, "d8^3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = n * n * np.dtype(np.int16).itemsize
    assert g.order == 4096
    assert peak <= 2.5 * table_bytes, f"peak {peak} B for a table of {table_bytes} B"
