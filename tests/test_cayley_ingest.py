"""A .cayley file becomes one int16 table with no Python list per row.

from_cayley_table takes a copy of _read_cayley's array; its groups must
equal those built from load_cayley's lists, on files whose identity sits
off index 0. The CLI's messages for malformed files are pinned byte for
byte (recorded before the reader returned arrays), and the traced peak of
building an order-720 file is bounded by a small multiple of its table.
"""

import random
import tracemalloc

import numpy as np
import pytest

from classprod import build_group, cli, from_cayley_table
from classprod.classalg import class_id_array, conjugacy_classes
from classprod.group import _read_cayley, load_cayley

from conftest import ORACLE_SPECS


def relabeled(table, seed):
    """table under a seeded bijection s that moves the identity when n > 1."""
    n = len(table)
    s = list(range(n))
    random.Random(seed).shuffle(s)
    if n > 1 and s[0] == 0:
        s[0], s[1] = s[1], s[0]
    s = np.asarray(s)
    old_of_new = np.argsort(s)
    return s[table[old_of_new][:, old_of_new]]


def write_table(path, table):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)}\n")
        for row in table.tolist():
            fh.write(" ".join(map(str, row)) + "\n")
    return str(path)


def class_data(g):
    classes, class_id = conjugacy_classes(g), class_id_array(g)
    return [(c.representative.index, c.carrier.mask) for c in classes], list(class_id)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
@pytest.mark.parametrize("seed", [1, 2])
def test_array_and_lists_give_the_same_group(tmp_path, spec, seed):
    table = relabeled(build_group(spec).np_table(), seed)
    path = write_table(tmp_path / "g.cayley", table)
    arr = _read_cayley(path)
    assert isinstance(arr, np.ndarray) and arr.dtype == np.int16
    assert np.array_equal(arr, table)
    from_arr = from_cayley_table(arr, spec)
    from_lists = from_cayley_table(load_cayley(path), spec)
    assert np.array_equal(from_arr.np_table(), from_lists.np_table())
    assert from_arr.inverse_table == from_lists.inverse_table
    assert all(type(v) is int for v in from_arr.inverse_table)
    assert from_arr.element_names == from_lists.element_names
    assert class_data(from_arr) == class_data(from_lists)
    assert class_data(from_arr) == class_data(build_group(f"file:{path}"))


def test_irregular_files_keep_python_ints(tmp_path):
    path = write_table(tmp_path / "big.cayley", np.array([[0, 1], [1, 2**31]]))
    rows = load_cayley(path)
    assert rows == [[0, 1], [1, 2**31]] and type(rows[1][1]) is int


def planted_sym4():
    """sym:4 relabeled (identity at 5), then two entries of row 2 swapped."""
    t = relabeled(build_group("sym:4").np_table(), 7)
    t[2, 3], t[2, 11] = t[2, 11], t[2, 3]
    return t


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\n-5\n", "row 0 contains entry -5 outside 0..0"),
        ("2\n0 1\n1 2\n", "row 1 contains entry 2 outside 0..1"),
        ("3\n0 1 2\n1 0 -1\n2 2 0\n", "row 1 contains entry -1 outside 0..2"),
        ("2\n0 1\n1 2147483648\n", "row 1 contains entry 2147483648 outside 0..1"),
        ("2\n0 1\n1 -2147483649\n", "row 1 contains entry -2147483649 outside 0..1"),
        (None, "not associative: (0*2)*3 != 0*(2*3)"),
    ],
)
def test_build_reports_bad_tables_as_before(tmp_path, capsys, text, message):
    path = tmp_path / "x.cayley"
    if text is None:
        write_table(path, planted_sym4())
    else:
        path.write_text(text, encoding="utf-8")
    code = cli.main(["build", "--group", f"file:{path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_from_cayley_table_names_bad_array_entries_as_ints():
    arr = np.array([[0, 1], [1, 0]], dtype=np.int32)
    arr[1, 1] = -7
    with pytest.raises(ValueError) as info:
        from_cayley_table(arr, "bad")
    assert str(info.value) == "row 1 contains entry -7 outside 0..1"
    rows = [[np.int64(0), np.int64(1)], [np.int64(1), np.int64(2)]]
    with pytest.raises(ValueError) as info:
        from_cayley_table(rows, "bad")
    assert str(info.value) == "row 1 contains entry 2 outside 0..1"


def test_order_720_build_peaks_below_six_tables(tmp_path):
    table = relabeled(build_group("sym:6").np_table(), 3)
    path = write_table(tmp_path / "s6.cayley", table)
    table_bytes = table.size * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        g = build_group(f"file:{path}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 720
    assert peak < 6 * table_bytes, f"peak {peak} B for a table of {table_bytes} B"
