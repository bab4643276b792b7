import json

import pytest

from classprod import build_group
from classprod.cli import main, resolve_element
from classprod.group import close_from_generators
from classprod.perm import Permutation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSelectors:
    def test_name_index_and_word(self, groups):
        g = groups["sym:3"]
        by_name = resolve_element(g, "(1 2 3)")
        by_index = resolve_element(g, str(by_name.index))
        assert by_name == by_index
        word = resolve_element(g, "g0*g1")
        i, j = g.generator_indices[0], g.generator_indices[1]
        assert word.index == g.mul(i, j)

    def test_word_with_powers(self, groups):
        g = groups["cyclic:6"]
        assert resolve_element(g, "g0^4").index == g.power(g.generator_indices[0], 4)
        assert resolve_element(g, "g0^-1").index == g.inv(g.generator_indices[0])

    def test_named_minus_elements(self, groups):
        g = groups["q8"]
        assert resolve_element(g, "-i").index == g.named_elements["-i"]
        # '-1' resolves as a name before any integer reading
        assert resolve_element(g, "-1").index == g.named_elements["-1"]

    def test_tuple_name_tolerates_spaces(self, groups):
        g = groups["es:3"]
        assert resolve_element(g, "(1, 0, 0)").index == g.named_elements["(1,0,0)"]

    def test_element_name_tolerates_spaces(self, groups):
        # es:p^k elements are named by element_names, not named_elements
        g = build_group("es:3^2")
        spaced = resolve_element(g, "((1, 0, 0), (0, 0, 0))")
        assert g.name_of(spaced.index) == "((1,0,0),(0,0,0))"
        args = ["product", "--group", "es:3^2", "-a", "((1, 0, 0), (0, 0, 0))", "-b", "((2,0,0), (0,0,0))"]
        assert main(args) == 0

    def test_permutation_names_keep_their_spaces(self, groups, capsys):
        g = groups["sym:3"]
        assert g.name_of(resolve_element(g, "(1 2)").index) == "(1 2)"
        assert main(["product", "--group", "sym:3", "-a", " (1  2)", "-b", "(1 2)"]) == 2
        assert capsys.readouterr().err == "error: cannot resolve element selector ' (1  2)' in sym:3\n"

    def test_index_and_word_selectors_make_no_names(self):
        g = close_from_generators([Permutation.parse(64, "(" + " ".join(map(str, range(1, 65))) + ")")], "c64")
        assert resolve_element(g, "5").index == 5
        assert resolve_element(g, "g0^3").index == g.power(g.generator_indices[0], 3)
        assert g._names is None

    def test_cycle_selectors_are_found_among_the_images(self):
        g = close_from_generators([Permutation.parse(64, "(" + " ".join(map(str, range(1, 65))) + ")")], "c64")
        for i in (0, 1, 37, 63):
            assert resolve_element(g, g.name_of(i)).index == i
        rotated = "(" + " ".join(map(str, [*range(2, 65), 1])) + ")"  # the same element, not as named
        with pytest.raises(ValueError, match="cannot resolve"):
            resolve_element(g, rotated)
        with pytest.raises(ValueError, match="cannot resolve"):
            resolve_element(g, "(1 65)")
        assert g._names is None
        names = g.element_names  # once made, the names answer
        assert [resolve_element(g, name).index for name in names] == list(range(64))
        s4 = close_from_generators([Permutation.parse(4, "(1 2 3 4)"), Permutation.parse(4, "(1 2)")], "s4")
        # some rows' bytes first occur across two rows, as (2 3 4) does in sym:4
        assert [resolve_element(s4, s4.name_of(i)).index for i in range(24)] == list(range(24))
        assert s4._names is None
        wide = close_from_generators([Permutation.parse(40000, "(1 40000)")], "wide")  # int32 images
        assert resolve_element(wide, "(1 40000)").index == 1 and wide._names is None

    def test_garbage_selector(self, groups):
        with pytest.raises(ValueError):
            resolve_element(groups["sym:3"], "nope")
        with pytest.raises(ValueError):
            resolve_element(groups["sym:3"], "99")


class TestBuildCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "build", "--group", "q8")
        assert code == 0
        assert "q8" in out and "order" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "build", "--group", "sym:3", "--json")
        info = json.loads(out)
        assert code == 0
        assert info["group_id"] == "sym:3"
        assert info["order"] == 6 and info["classes"] == 3

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--group", "bogus:9")
        assert code == 2 and err

    def test_out_roundtrips_through_file_spec(self, capsys, tmp_path):
        path = tmp_path / "d4.cayley"
        code, _, _ = run(capsys, "build", "--group", "dihedral:4", "--out", str(path))
        assert code == 0 and path.exists()
        code, out, _ = run(capsys, "build", "--group", f"file:{path}", "--json")
        assert code == 0 and json.loads(out)["order"] == 8


class TestClassesCommand:
    def test_lists_every_class(self, capsys):
        code, out, _ = run(capsys, "classes", "--group", "sym:3", "--json")
        report = json.loads(out)
        rows = report["classes"]
        assert code == 0 and len(rows) == 3
        assert {r["size"] for r in rows} == {1, 2, 3}
        for r in rows:
            assert r["centralizer_order"] * r["size"] == 6
        # the 3-cycle class: commutator set A3 translated off itself
        cycle = next(r for r in rows if r["size"] == 2)
        assert not cycle["comm_set_is_subgroup"]

    def test_text_table_has_names(self, capsys):
        code, out, _ = run(capsys, "classes", "--group", "q8")
        assert code == 0
        for name in ("1", "-1", "i", "j", "k"):
            assert name in out


class TestProductCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "product", "--group", "q8", "-a", "i", "--elem-b=-i", "--json"
        )
        report = json.loads(out)
        assert code == 0
        assert report["eta"] == 2 and not report["homogeneous"]
        # {i,-i}.{i,-i} = {1,-1}: two singleton classes
        assert report["product_size"] == 2
        assert [c["name"] for c in report["classes"]] == ["1", "-1"]

    def test_e27_homogeneous_pair(self, capsys):
        code, out, _ = run(
            capsys, "product", "--group", "es:3",
            "-a", "(1,0,0)", "-b", "(1,0,0)", "--json",
        )
        report = json.loads(out)
        assert code == 0
        assert report["eta"] == 1 and report["homogeneous"]
        assert report["criterion"]["satisfied"]

    def test_centralizer_gate_exit_3(self, capsys):
        code, _, err = run(
            capsys, "product", "--group", "q8", "-a", "i", "-b", "j",
            "--require-equal-centralizers",
        )
        assert code == 3 and err

    def test_bad_selector_exit_2(self, capsys):
        code, _, err = run(capsys, "product", "--group", "q8", "-a", "zz", "-b", "i")
        assert code == 2 and err


class TestCheckCommand:
    def test_all_statements_table(self, capsys):
        code, out, _ = run(capsys, "check", "all", "--group", "es:3")
        assert code == 0
        for sid in ("theorem-a", "product-formula", "direct-product-eta"):
            assert sid in out

    def test_discrepancy_banner_and_exit_0(self, capsys):
        code, out, _ = run(capsys, "check", "theorem-a", "--group", "q8")
        assert code == 0
        assert "DISCREPANCY" in out

    def test_json_moves_banner_to_stderr(self, capsys):
        code, out, err = run(capsys, "check", "theorem-a", "--group", "q8", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["verdict"] == "discrepancy"
        assert "DISCREPANCY" in err

    def test_unknown_statement_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "theorem-z", "--group", "q8")
        assert code == 2
        assert "theorem-a" in err

    def test_single_statement_json(self, capsys):
        code, out, _ = run(capsys, "check", "theorem-b", "--group", "alt:5", "--json")
        (row,) = json.loads(out)
        assert code == 0
        assert row["verdict"] == "holds" and row["pairs_checked"] == 14


class TestScanCommand:
    def test_summary_and_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code, out, _ = run(
            capsys, "scan", "--no-builtins", "--catalog", str(self._dir(tmp_path)),
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["group_order"] == 6
        assert "rows: 1" in out

    def test_json_summary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "scan", "--no-builtins", "--catalog", str(self._dir(tmp_path)),
            "--json",
        )
        summary = json.loads(out)
        assert code == 0 and summary["total_rows"] == 1

    def test_open_question_mode(self, capsys, tmp_path):
        d = tmp_path / "cat"
        d.mkdir()
        from classprod import build_group, save_cayley

        save_cayley(build_group("alt:4"), str(d / "a4.cayley"))
        code, out, _ = run(
            capsys, "scan", "--no-builtins", "--catalog", str(d),
            "--mode", "open-question", "--json",
        )
        summary = json.loads(out)
        assert code == 0 and summary["total_rows"] == 2

    def test_missing_catalog_dir_exit_2(self, capsys):
        code, _, err = run(capsys, "scan", "--catalog", "/no/such/dir")
        assert code == 2 and err

    @staticmethod
    def _dir(tmp_path):
        d = tmp_path / "cat"
        d.mkdir(exist_ok=True)
        from classprod import build_group, save_cayley

        save_cayley(build_group("sym:3"), str(d / "s3.cayley"))
        return d


class TestConstructCommand:
    def test_witness_9(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "9", "--json")
        info = json.loads(out)
        assert code == 0
        assert info["group_id"] == "es:3^2"
        assert info["witness_index"] == 252
        assert info["class_size"] == 9 and info["eta_of_square"] == 1

    def test_even_n_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "6")
        assert code == 2 and err


class TestScanWorkers:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exit_2(self, capsys, workers):
        code, out, err = run(capsys, "scan", "--no-builtins", "--workers", workers)
        assert code == 2 and not out
        assert f"workers must be at least 1, got {workers}" in err
