import json

import numpy as np
import pytest

from classprod import (
    InternalContradiction,
    build_group,
    save_cayley,
)
from classprod import scan as scan_module
from classprod.constructions import GroupSpec
from classprod.scan import (
    BUILTIN_SPECS,
    Catalog,
    CatalogEntry,
    ScanRow,
    format_summary,
    group_flags,
    ingest,
    open_question_scan,
    pool_size,
    read_jsonl,
    scan_group,
    scan_homogeneous,
    summarize,
    write_jsonl,
)


def small_catalog(*specs):
    return Catalog([CatalogEntry(s, GroupSpec.parse(s), "builtin") for s in specs])


class TestScanGroup:
    def test_s3_only_identity_pair(self, groups):
        rows = scan_group(groups["sym:3"])
        assert [(r.a_rep, r.b_rep) for r in rows] == [(0, 0)]
        assert rows[0].eta == 1 and rows[0].homogeneous

    def test_abelian_group_hits_all_pairs(self, groups):
        # every product of singleton classes is one class
        rows = scan_group(groups["cyclic:5"])
        assert len(rows) == 25

    def test_q8_identity_and_central_products(self, groups):
        rows = scan_group(groups["q8"])
        got = {(r.a_rep, r.b_rep) for r in rows}
        # central reps 0 and 3 multiply among themselves; i^G i^G has eta 2
        assert got == {(0, 0), (0, 3), (3, 0), (3, 3)}

    def test_all_pairs_mode_adds_unequal_centralizer_hits(self, groups):
        g = groups["q8"]
        gated = {(r.a_rep, r.b_rep) for r in scan_group(g)}
        free = {(r.a_rep, r.b_rep) for r in scan_group(g, require_equal_centralizers=False)}
        assert gated < free
        # i * (-1) sweeps one full class despite unequal centralizers
        i, m1 = g.named_elements["i"], g.named_elements["-1"]
        assert (i, m1) in free

    def test_row_shape(self, groups):
        (row,) = scan_group(groups["sym:4"])
        d = row.to_dict()
        assert list(d) == [
            "group_id", "group_order", "a_rep", "b_rep", "a_name", "b_name",
            "class_size_a", "class_size_b", "eta", "homogeneous", "flags",
        ]
        assert list(d["flags"]) == [
            "nilpotent", "supersolvable", "simple_nonabelian", "odd_order", "p_group",
        ]
        assert ScanRow.from_dict(json.loads(row.to_json_line())) == row


class TestFlags:
    def test_flags_match_predicates(self, groups):
        f = group_flags(groups["es:3"])
        assert f == {
            "nilpotent": True,
            "supersolvable": True,
            "simple_nonabelian": False,
            "odd_order": True,
            "p_group": True,
        }

    def test_a5_flags(self):
        f = group_flags(build_group("alt:5"))
        assert f["simple_nonabelian"] and not f["nilpotent"] and not f["p_group"]


class TestAudit:
    def test_q8_homogeneity_audit_raises(self, groups, monkeypatch):
        # with every class product reported homogeneous, (i, i) is a hit:
        # eta(i^G i^G) = 2 and [i,G] = {1,-1} while [i*i,G] = [-1,G] = {1},
        # so the audited criterion really does fail, first at (i, i)
        g = groups["q8"]
        k = len(scan_module._class_data(g).reps)
        monkeypatch.setattr(scan_module, "class_eta_matrix", lambda group: np.ones((k, k), dtype=np.int32))
        with pytest.raises(InternalContradiction, match=r"\(1,1\) in q8"):
            scan_group(g)
        with pytest.raises(InternalContradiction, match=r"\(1,1\) in q8"):
            scan_group(g, require_equal_centralizers=False)

    def test_audit_passes_on_e27(self, groups):
        g = groups["es:3"]
        assert scan_group(g)
        assert len(scan_group(g, require_equal_centralizers=False)) >= len(scan_group(g))


class TestCatalogScan:
    def test_rows_sorted_and_deduped(self):
        cat = small_catalog("sym:3", "cyclic:2", "sym:3")
        assert len(cat.entries) == 3  # plain constructor does not dedupe
        rows = scan_homogeneous(small_catalog("sym:3", "cyclic:2"))
        assert rows == sorted(rows, key=lambda r: r.sort_key())

    def test_worker_count_does_not_change_output(self):
        cat = small_catalog("sym:4", "q8", "dihedral:6", "es:3", "cyclic:8")
        seq = [r.to_json_line() for r in scan_homogeneous(cat, workers=1)]
        par = [r.to_json_line() for r in scan_homogeneous(cat, workers=2)]
        assert seq == par

    def test_open_question_hits_on_a4(self):
        rows = open_question_scan(small_catalog("alt:4"))
        assert [(r.a_rep, r.b_rep) for r in rows] == [(1, 1), (2, 2)]
        for r in rows:
            assert r.class_size_a == 4 and not r.flags["supersolvable"]

    def test_open_question_skips_non_two_power_sizes(self):
        # cyclic:5 has 25 homogeneous rows, all with class size 1 = 2^0
        rows = open_question_scan(small_catalog("cyclic:5"))
        assert rows == []

    def test_forged_supersolvable_hit_caught(self, monkeypatch):
        import classprod.scan as scan_mod

        forged = ScanRow(
            group_id="q8", group_order=8, a_rep=1, b_rep=1, a_name="i", b_name="i",
            class_size_a=2, class_size_b=2, eta=1, homogeneous=True,
            flags={"nilpotent": True, "supersolvable": True,
                   "simple_nonabelian": False, "odd_order": False, "p_group": True},
        )
        monkeypatch.setattr(scan_mod, "_catalog_hits", lambda *a, **k: scan_mod._Hits.of_rows([forged]))
        with pytest.raises(InternalContradiction):
            open_question_scan(small_catalog("q8"))


class TestIngest:
    def test_directory_with_mixed_files(self, tmp_path, groups):
        save_cayley(groups["sym:3"], str(tmp_path / "s3.cayley"))
        (tmp_path / "c4.gens").write_text("degree 4\ngen (1 2 3 4)\n")
        (tmp_path / "bad.cayley").write_text("0 0\n0 0\n")
        (tmp_path / "broken.gens").write_text("degree 3\ngen (1 2\n")
        (tmp_path / "notes.txt").write_text("ignored\n")

        cat = ingest(str(tmp_path), include_builtins=False)
        assert sorted(e.spec_text for e in cat.entries) == [
            f"file:{tmp_path / 'c4.gens'}",
            f"file:{tmp_path / 's3.cayley'}",
        ]
        assert sorted(f["path"] for f in cat.failures) == [
            str(tmp_path / "bad.cayley"),
            str(tmp_path / "broken.gens"),
        ]
        for f in cat.failures:
            assert ": " in f["error"]

    def test_builtin_inclusion_keeps_file_copies(self, tmp_path, groups):
        # a file's id is file:<basename>, never a builtin's; a file that holds
        # an isomorphic copy of a builtin stays a separate entry
        save_cayley(groups["sym:3"], str(tmp_path / "s3copy.cayley"))
        cat = ingest(str(tmp_path))
        assert len(cat.entries) == len(BUILTIN_SPECS) + 1

    def test_same_file_listed_once(self, tmp_path, groups):
        save_cayley(groups["sym:3"], str(tmp_path / "one.cayley"))
        first = ingest(str(tmp_path), include_builtins=False)
        assert len(first.entries) == 1 and not first.failures

    def test_missing_directory(self):
        with pytest.raises(OSError):
            ingest("/nonexistent/path/xyz")

    def test_ingested_file_scans(self, tmp_path, groups):
        save_cayley(groups["sym:3"], str(tmp_path / "s3.cayley"))
        cat = ingest(str(tmp_path), include_builtins=False)
        rows = scan_homogeneous(cat)
        assert [(r.a_rep, r.b_rep) for r in rows] == [(0, 0)]
        assert rows[0].group_order == 6


class TestSerialization:
    def test_jsonl_roundtrip(self, tmp_path, groups):
        rows = scan_group(groups["q8"])
        path = str(tmp_path / "rows.jsonl")
        write_jsonl(rows, path)
        assert read_jsonl(path) == rows

    def test_summary_counts(self, groups):
        rows = scan_group(groups["q8"]) + scan_group(groups["sym:3"])
        s = summarize(rows, failures=[{"path": "x", "error": "E: y"}])
        assert s["total_rows"] == 5
        assert s["by_group"] == {"q8": 4, "sym:3": 1}
        assert s["by_class_size"]["1"] == 5
        assert s["by_flag"]["p_group"] == 4
        assert s["ingest_failures"] == [{"path": "x", "error": "E: y"}]
        text = format_summary(s)
        assert "q8" in text and "5" in text

    def test_summary_of_nothing(self):
        s = summarize([])
        assert s["total_rows"] == 0
        assert format_summary(s)


class TestPoolSize:
    def test_clamped_to_tasks_and_cpus(self):
        assert pool_size(64, 3, 8) == 3
        assert pool_size(64, 100, 2) == 2
        assert pool_size(4, 27, 8) == 4
        assert pool_size(1, 27, 8) == 1
        assert pool_size(4, 0, 8) == 0

    def test_unknown_cpu_count_means_in_process(self):
        assert pool_size(4, 27, None) == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_rejected(self, workers):
        with pytest.raises(ValueError):
            pool_size(workers, 27, 8)


class TestIngestBuildsOnce:
    def test_sequential_scan_reuses_the_ingested_group(self, tmp_path, groups, monkeypatch):
        save_cayley(groups["sym:3"], str(tmp_path / "s3.cayley"))
        (tmp_path / "c4.gens").write_text("degree 4\ngen (1 2 3 4)\n")
        (tmp_path / "bad.cayley").write_text("2\n0 0\n0 0\n")
        builds = []
        real = scan_module.build_group
        monkeypatch.setattr(
            scan_module, "build_group", lambda *a, **k: builds.append(a[0]) or real(*a, **k)
        )
        cat = ingest(str(tmp_path), include_builtins=False)
        rows = scan_homogeneous(cat, workers=1)
        assert len(builds) == 3  # one per file, the failing one included
        assert {r.group_id for r in rows} == {"file:s3.cayley", "file:c4.gens"}
        assert [f["error"] for f in cat.failures] == [
            "NoIdentity: no two-sided identity element"
        ]

    def test_carried_group_is_not_compared(self, groups):
        spec = GroupSpec.parse("sym:3")
        plain = CatalogEntry("sym:3", spec, "builtin")
        assert CatalogEntry("sym:3", spec, "builtin", group=groups["sym:3"]) == plain
