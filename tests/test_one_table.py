"""One read-only table per group: rows are views of it, inputs are copied.

Also pins the classes output at the order cap byte for byte, and checks
that scan rejects a bad worker count before it reads any file.
"""

import hashlib

import numpy as np
import pytest

from classprod import build_group, cayley_rows, from_cayley_table
from classprod import cli, scan
from classprod.errors import NoInverse
from classprod.group import FiniteGroup, load_cayley, save_cayley

# the stdout digest bench/workloads.py records for classes-3375
CLASSES_3375_SHA256 = "c563dc61669ec77fa34903b5916679ca95f781234a071d404ae64b6597cc75b4"


class TestReadOnly:
    def test_rows_reject_writes(self, groups):
        g = groups["sym:4"]
        with pytest.raises(ValueError):
            g.table[1][2] = 0
        assert g.table[1][2] == g.np_table()[1, 2]

    def test_np_table_rejects_writes(self, groups):
        g = groups["sym:4"]
        with pytest.raises(ValueError):
            g.np_table()[1, 2] = 0

    @pytest.mark.parametrize("spec", ["sym:4", "q8", "es:3", "prod(es:3,cyclic:2)"])
    def test_rows_share_the_table(self, spec):
        g = build_group(spec)
        t = g.np_table()
        assert t.dtype == np.int16 and t.flags.c_contiguous and t.shape == (g.order, g.order)
        for a in range(g.order):
            row = np.asarray(g.table[a])
            assert np.shares_memory(row, t)
            assert np.array_equal(row, t[a])

    @pytest.mark.parametrize("make", [FiniteGroup, from_cayley_table])
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_fortran_order_input_becomes_one_c_order_table(self, make, dtype):
        src = build_group("sym:4").np_table()
        g = make(np.asfortranarray(src, dtype=dtype), "s4-f")
        t = g.np_table()
        assert t.flags.c_contiguous and np.array_equal(t, src)
        assert all(np.shares_memory(np.asarray(g.table[a]), t) for a in range(g.order))


class TestInputsAreNotShared:
    def test_list_changed_after_construction(self, groups):
        rows = cayley_rows(groups["sym:3"])
        g = FiniteGroup(rows, "s3-list")
        rows[1][1] = 5
        assert g.table[1][1] == groups["sym:3"].table[1][1]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_array_view_changed_after_construction(self, groups, dtype):
        base = np.array(cayley_rows(groups["sym:3"]), dtype=dtype)
        g = FiniteGroup(base[:, :], "s3-view")  # a view: the caller keeps base
        base[1, 1] = 5
        assert g.table[1][1] == groups["sym:3"].table[1][1]

    def test_owned_int16_array_is_adopted_and_frozen(self, groups):
        arr = np.array(cayley_rows(groups["sym:3"]), dtype=np.int16)
        g = FiniteGroup(arr, "s3-adopted")
        assert g.np_table() is arr
        with pytest.raises(ValueError):
            arr[1, 1] = 5

    @pytest.mark.parametrize("kind", ["list", "int32", "int64"])
    def test_from_cayley_table_copies(self, groups, kind):
        rows = cayley_rows(groups["sym:3"])
        src = rows if kind == "list" else np.array(rows, dtype=kind)
        g = from_cayley_table(src, "s3-copy")
        src[1][1] = 5
        assert g.table[1][1] == groups["sym:3"].table[1][1]


class TestConstructorChecks:
    def test_missing_inverse_names_the_first_row(self):
        # identity row and column are fine; rows 1 and 2 never reach 0
        rows = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
        with pytest.raises(NoInverse) as exc:
            FiniteGroup(rows, "noinv")
        assert exc.value.witness == 1

    def test_non_square_table(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1, 2], [1, 0, 2]], "wide")

    @pytest.mark.parametrize("bad", [-1, 6, -32768])
    def test_owned_int16_array_entries_are_range_checked(self, groups, bad):
        arr = np.array(cayley_rows(groups["sym:3"]), dtype=np.int16)
        arr[2, 3] = bad  # off the identity row and column
        with pytest.raises(ValueError, match=f"row 2 contains entry {bad} outside 0..5"):
            FiniteGroup(arr, "s3-bad")


def test_cayley_round_trip_sym5(tmp_path, groups):
    g = groups["sym:5"]
    rows = cayley_rows(g)
    assert rows == g.np_table().tolist() and isinstance(rows[0][0], int)
    path = str(tmp_path / "s5.cayley")
    save_cayley(g, path)
    assert load_cayley(path) == rows
    again = from_cayley_table(load_cayley(path), "s5-again")
    assert np.array_equal(again.np_table(), g.np_table())
    assert again.inverse_table == g.inverse_table


def test_classes_at_the_order_cap_byte_identical(capsys):
    code = cli.main(["classes", "--group", "prod(es:3,es:5)", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSES_3375_SHA256


def test_scan_rejects_workers_before_ingest(tmp_path, capsys, monkeypatch):
    (tmp_path / "c4.gens").write_text("degree 4\ngen (1 2 3 4)\n")
    monkeypatch.setattr(scan, "ingest", lambda *a, **k: pytest.fail("ingest ran"))
    code = cli.main(["scan", "--catalog", str(tmp_path), "--workers", "0"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "workers must be at least 1, got 0" in captured.err
