"""The scan's column form: hits stay as arrays until the API returns rows.

The JSON Lines writer fills one template per group; every line it writes
must equal ScanRow.to_json_line() of the same row. The catalog merge is one
stable sort of all rows on (order, id, a, b), so a group listed twice has
its rows interleaved, as a sort of the row objects would; a lone group's
columns pass through it uncopied. `scan --json` makes no ScanRow at all, in
either mode, and ingested groups keep no class data after a sequential
scan. An ingest builds its files under the order cap its catalog reports.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from classprod import build_group, cli, from_cayley_table, save_cayley
from classprod import scan as scan_module
from classprod.constructions import GroupSpec
from classprod.group import max_order_cap
from classprod.scan import (
    Catalog,
    CatalogEntry,
    ScanRow,
    _catalog_hits,
    _group_hits,
    _merge,
    ingest,
    scan_group,
    scan_homogeneous,
    summarize,
    write_jsonl,
)

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def lines_of(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def write_both_ways(hits, rows, tmp_path):
    """Lines of the column writer and of the public row writer."""
    columns, public = tmp_path / "columns.jsonl", tmp_path / "rows.jsonl"
    hits.write(str(columns))
    write_jsonl(rows, str(public))
    return lines_of(columns), lines_of(public)


def ingest_catalog(seed, directory):
    """The bench's seeded ingest catalog, and the summary counts it expects."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "workloads.py"), str(seed), str(directory)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def z4_with_hostile_names():
    rows = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    names = ["e", "α", 'say "x"', "back\\slash\x07"]
    return from_cayley_table(rows, 'z4 "%d" α', element_names=names)


class TestTemplateWriter:
    def test_hostile_names_match_to_json_line(self, tmp_path):
        g = z4_with_hostile_names()
        rows = scan_group(g, require_equal_centralizers=False)
        assert len(rows) == 16
        columns, public = write_both_ways(_merge([_group_hits(g, False)]), rows, tmp_path)
        expected = [row.to_json_line() for row in rows]
        assert columns == expected and public == expected
        assert '"b_name":"\\u03b1"' in expected[1]
        assert '"b_name":"say \\"x\\""' in expected[2]
        assert '"b_name":"back\\\\slash\\u0007"' in expected[3]

    def test_seed_77_ingest_catalog_matches_to_json_line(self, tmp_path):
        expected_summary = ingest_catalog(77, tmp_path / "catalog")
        cat = ingest(str(tmp_path / "catalog"))
        rows = scan_homogeneous(cat)
        columns, public = write_both_ways(_catalog_hits(cat), rows, tmp_path)
        expected = [row.to_json_line() for row in rows]
        assert columns == expected and public == expected
        # the bench counts the source groups' rows in a loop of its own
        summary = summarize([r for r in rows if r.group_id.startswith("file:")])
        assert summary["by_group"] == expected_summary["by_group"]
        assert summary["by_class_size"] == expected_summary["by_class_size"]
        assert {k: v for k, v in summary["by_flag"].items() if v} == expected_summary["by_flag"]

    def test_rows_from_arbitrary_values_match_to_json_line(self, tmp_path):
        flags = {"nilpotent": True, "supersolvable": False, "simple_nonabelian": False,
                 "odd_order": True, "p_group": False}
        rows = [
            ScanRow("g%s", 9, 3, 1, "x", "y", 3, 1, 2, False, flags),
            ScanRow("g%s", 9, 0, 0, "y", "x", 1, 1, 1, True, flags),
            ScanRow("h", 2, 1, 1, "", " ", 1, 1, 1, True, dict(flags, odd_order=False)),
        ]
        path = tmp_path / "rows.jsonl"
        write_jsonl(rows, str(path))
        assert lines_of(path) == [row.to_json_line() for row in rows]

    def test_worker_count_does_not_change_all_pairs_output(self, tmp_path, capsys):
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.jsonl"
            assert cli.main(["scan", "--json", "--all-pairs", "--workers", workers, "--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert hashlib.sha256(outputs[1][1]).hexdigest() == (
            "f18c9f40b9b3829789ef749e2efbd2c5a3e6716d0caa70432a92dc0811799832"
        )


class TestMerge:
    def test_a_lone_part_is_returned_as_it_is(self, groups):
        hits = _group_hits(groups["q8"])
        assert _merge([hits]) is hits

    def test_a_one_group_catalog_is_not_copied(self, monkeypatch):
        """_merge of one group's all-pairs hits allocates nothing: its columns pass through."""
        group = GroupSpec.parse("prod(q8,es:3)").build()
        traced = []

        def merge(parts):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = _merge(parts)
            traced.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(scan_module, "_merge", merge)
        entry = CatalogEntry("prod(q8,es:3)", GroupSpec.parse("prod(q8,es:3)"), "builtin", group=group)
        tracemalloc.start()
        try:
            hits = _catalog_hits(Catalog([entry]), require_equal_centralizers=False)
        finally:
            tracemalloc.stop()
        assert len(hits.a) == 9282
        assert traced[0] < 4096, f"the merge of one group allocated {traced[0]} bytes"

    def test_a_group_listed_twice_interleaves(self):
        cat = Catalog([CatalogEntry("q8", GroupSpec.parse("q8"), "builtin")] * 2)
        rows = scan_homogeneous(cat)
        assert [(r.a_rep, r.b_rep) for r in rows] == [
            (0, 0), (0, 0), (0, 3), (0, 3), (3, 0), (3, 0), (3, 3), (3, 3)
        ]

    def test_two_groups_of_one_id_sort_like_the_rows(self, groups):
        q8 = groups["q8"]
        relabeled = from_cayley_table(q8.np_table(), "q8", element_names=[f"x{i}" for i in range(8)])
        entries = [
            CatalogEntry("q8", GroupSpec.parse("q8"), "builtin", group=q8),
            CatalogEntry("cyclic:2", GroupSpec.parse("cyclic:2"), "builtin"),
            CatalogEntry("q8", GroupSpec.parse("q8"), "builtin", group=relabeled),
        ]
        rows = scan_homogeneous(Catalog(entries))
        expected = sorted(
            scan_group(q8) + scan_group(build_group("cyclic:2")) + scan_group(relabeled),
            key=ScanRow.sort_key,
        )
        assert rows == expected
        assert [r.a_name for r in rows[4:8]] == ["1", "x0", "1", "x0"]


class TestNoRowObjects:
    @pytest.fixture
    def made(self, monkeypatch):
        count = []
        init = ScanRow.__init__

        def counting(self, *args, **kwargs):
            count.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScanRow, "__init__", counting)
        return count

    def test_scan_json_makes_no_rows(self, made, capsys):
        assert cli.main(["scan", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_rows"] == 2180
        assert len(made) == 0

    def test_open_question_makes_no_rows(self, made, capsys):
        assert cli.main(["scan", "--json", "--mode", "open-question"]) == 0
        assert json.loads(capsys.readouterr().out)["by_group"] == {"alt:4": 2}
        assert len(made) == 0


def test_ingested_groups_keep_no_class_data_after_a_scan(tmp_path):
    ingest_catalog(3, tmp_path)
    tracemalloc.start()
    try:
        cat = ingest(str(tmp_path), include_builtins=False)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert len(scan_homogeneous(cat)) > 0
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 50_000, f"the scan left {kept} bytes behind"
    assert all(e.group is not None and not e.group._cache for e in cat.entries)
    assert all(e.group.np_table() is not None for e in cat.entries)  # the tables stay


@pytest.mark.parametrize("env_cap", [None, "5"])
def test_ingest_builds_under_the_cap_its_catalog_reports(env_cap, tmp_path, monkeypatch, groups):
    """order_cap=0 means the environment's cap, for the files as for the catalog."""
    if env_cap is None:
        monkeypatch.delenv("CLASSPROD_MAX_ORDER", raising=False)
    else:
        monkeypatch.setenv("CLASSPROD_MAX_ORDER", env_cap)
    save_cayley(groups["sym:3"], str(tmp_path / "s3.cayley"))
    cat = ingest(str(tmp_path), include_builtins=False, order_cap=0)
    assert cat.order_cap == max_order_cap()
    if cat.order_cap >= 6:
        assert [e.group.order for e in cat.entries] == [6] and not cat.failures
    else:
        assert not cat.entries
        assert cat.failures[0]["error"] == f"OrderExceeded: table of order 6 exceeds the order cap {cat.order_cap}"
