""".cayley files become groups in one table's memory, checked a block of rows at a time.

The reader parses rows a block at a time into the int16 table, and the
identity, Light's and inverse checks and the relabeling read that table in
blocks of rows. Planted faults in the first, a middle and the last row of
tables larger than one block are named as a cubic oracle written here
names them; the order cap, the file's own faults and a bad entry keep
their precedence; a hostile entry past int32 costs no Python int per
entry; and the traced peak of a build stays below two and a half tables.
"""

import tracemalloc

import numpy as np
import pytest

from classprod import NoInverse, NotAssociative, OrderExceeded, build_group, cli, from_cayley_table
from classprod import classalg
from classprod.group import _BLOCK_ROWS

from test_cayley_ingest import relabeled, write_table

# orders above one block; the last block of 129 holds one row
SPECS = ("sym:5", "prod(es:3,alt:4)", "cyclic:129")


def first_failing_triple(t):
    """The first (a, b, c) in a-major order with (a*b)*c != a*(b*c), or None."""
    n = len(t)
    for a in range(n):
        fails = np.take(t, t[a], axis=0) != np.take(t[a], t)
        if fails.any():
            b, c = divmod(int(np.flatnonzero(fails)[0]), n)
            return a, b, c
    return None


def planted(spec, where):
    """spec's table relabeled (identity off index 0), with two entries of one
    row swapped; neither the row nor the columns are the identity's."""
    t = relabeled(build_group(spec).np_table(), 5)
    n = len(t)
    e = int(np.flatnonzero((t == np.arange(n)).all(axis=1))[0])
    rows = [r for r in range(n) if r != e]
    row = {"first": rows[0], "middle": rows[len(rows) // 2], "last": rows[-1]}[where]
    b, c = [x for x in range(n) if x != e][:2]
    t[row, b], t[row, c] = t[row, c], t[row, b]
    return t


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_planted_swaps_name_the_oracles_triple(tmp_path, spec, where):
    t = planted(spec, where)
    assert len(t) > _BLOCK_ROWS
    witness = first_failing_triple(t)
    assert witness is not None
    with pytest.raises(NotAssociative) as info:
        from_cayley_table(t, spec)
    assert info.value.witness == witness
    path = write_table(tmp_path / "p.cayley", t)
    with pytest.raises(NotAssociative) as info:
        build_group(f"file:{path}")
    assert info.value.witness == witness


def test_missing_inverse_past_the_first_block_is_named(tmp_path):
    # the monoid (Z/101, *) listed as 1..100, 0: associative with identity 1
    # at index 0, and only 0, at index 100, has no inverse
    values = np.r_[1:101, 0]
    index_of = np.r_[100, 0:100]
    t = index_of[values[:, None] * values % 101]
    with pytest.raises(NoInverse) as info:
        from_cayley_table(t, "z101")
    assert info.value.witness == 100
    path = write_table(tmp_path / "m.cayley", t)
    with pytest.raises(NoInverse) as info:
        build_group(f"file:{path}")
    assert info.value.witness == 100


@pytest.mark.parametrize("spec", SPECS)
def test_relabeled_files_give_the_groups_of_their_lists(tmp_path, spec):
    t = relabeled(build_group(spec).np_table(), 5)
    path = write_table(tmp_path / "g.cayley", t)
    from_file = build_group(f"file:{path}")
    from_lists = from_cayley_table(t.tolist(), spec)
    assert np.array_equal(from_file.np_table(), from_lists.np_table())
    assert from_file.inverse_table == from_lists.inverse_table


@pytest.mark.parametrize("seed", [None, 5])
def test_from_cayley_table_never_adopts_the_callers_array(seed):
    table = build_group("sym:5").np_table()
    arr = np.array(table if seed is None else relabeled(table, seed), dtype=np.int16)
    before = arr.copy()
    g = from_cayley_table(arr, "s5")
    assert arr.flags.writeable and np.array_equal(arr, before)
    kept = g.np_table().copy()
    arr[:] = 0
    assert np.array_equal(g.np_table(), kept)


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("spec", ["sym:6", "prod(dihedral:8,dihedral:8,cyclic:4)"])
def test_build_peaks_below_two_and_a_half_tables(tmp_path, spec):
    table = relabeled(build_group(spec).np_table(), 3)
    path = write_table(tmp_path / "g.cayley", table)
    table_bytes = table.size * np.dtype(np.int16).itemsize
    g, peak = traced_peak(lambda: build_group(f"file:{path}"))
    assert g.order == len(table) in (720, 1024)
    assert peak < 2.5 * table_bytes, f"peak {peak} B for a table of {table_bytes} B"


def test_entry_past_int32_is_named_without_a_table_of_python_ints(tmp_path, capsys):
    table = relabeled(build_group("prod(dihedral:8,dihedral:8,cyclic:4)").np_table(), 3)
    table[-1, -1] = 2**31
    path = write_table(tmp_path / "hostile.cayley", table)
    table_bytes = table.size * np.dtype(np.int16).itemsize
    message = "row 1023 contains entry 2147483648 outside 0..1023"

    def build():
        with pytest.raises(ValueError) as info:
            build_group(f"file:{path}")
        return str(info.value)

    got, peak = traced_peak(build)
    assert got == message
    assert peak < 3 * table_bytes, f"peak {peak} B for a table of {table_bytes} B"
    assert cli.main(["build", "--group", f"file:{path}"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # the file's own faults anywhere come before the order cap and the entries
        ("3\n0 1 7\n1 2 0\n2 0 x\n", "{path}:4: non-integer table entry"),
        ("3\n0 1 7\n1 2 0\n2 0\n", "{path}:4: expected 3 entries, found 2"),
        ("3\n0 1 7\n1 2 0\n", "{path}: expected 3 table rows, found 2"),
        ("2\n0 1\n1 0\n1 0\n", "{path}: expected 2 table rows, found 3"),
        ("4\n" + "0 1 2 x\n" * 4, "{path}:2: non-integer table entry"),
        # then the order cap, then the entries
        ("4\n" + "0 1 2 9\n" * 4, "table of order 4 exceeds the order cap 3"),
        ("3\n0 1 7\n1 2 0\n2 0 1\n", "row 0 contains entry 7 outside 0..2"),
        # the first of two, also when each line is read apart ('9_9' is int()'s 99)
        ("3\n0 1 7\n1 2 0\n2 0 9_9\n", "row 0 contains entry 7 outside 0..2"),
    ],
)
def test_faults_keep_their_precedence(tmp_path, text, message):
    path = tmp_path / "f.cayley"
    path.write_text(text, encoding="utf-8")
    with pytest.raises((ValueError, OrderExceeded)) as info:
        build_group(f"file:{path}", max_order=3)
    assert str(info.value) == message.format(path=path)


def test_build_counts_classes_from_the_class_record(monkeypatch, capsys):
    def no_objects(*args):
        raise AssertionError("build made a ConjugacyClass")

    monkeypatch.setattr(classalg, "_conjugacy_classes", no_objects)
    assert cli.main(["build", "--group", "prod(cyclic:64,cyclic:64)"]) == 0
    assert capsys.readouterr().out == (
        "prod(cyclic:64,cyclic:64): order 4096, 4096 classes, center of size 4096\n"
    )
