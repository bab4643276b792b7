import pytest

import bruteforce as bf
from classprod import (
    Element,
    FiniteGroup,
    GroupMismatch,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    OrderExceeded,
    Permutation,
    build_group,
    cayley_rows,
    close_from_generators,
    commutator,
    conjugate,
    element_order,
    from_cayley_table,
    inv,
    load_cayley,
    load_gens,
    mul,
    save_cayley,
    symmetric,
)


class TestPermutation:
    def test_parse_and_cycle_string(self):
        p = Permutation.parse(5, "(1 2 3)(4 5)")
        assert p.apply(1) == 2 and p.apply(3) == 1 and p.apply(4) == 5
        assert p.cycle_string() == "(1 2 3)(4 5)"

    def test_identity_roundtrip(self):
        assert Permutation.parse(4, "()").is_identity()
        assert Permutation.identity(4).cycle_string() == "()"

    def test_left_to_right_composition(self):
        # apply (1 2) first, then (2 3): 1 -> 2 -> 3
        p = Permutation.parse(3, "(1 2)") * Permutation.parse(3, "(2 3)")
        assert p.apply(1) == 3
        assert p == Permutation.parse(3, "(1 3 2)")

    def test_inverse(self):
        p = Permutation.parse(6, "(1 4 2)(3 6)")
        assert (p * p.inverse()).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidPermutation):
            Permutation((1, 1, 2, 3, 4))

    def test_rejects_repeated_point(self):
        with pytest.raises(InvalidPermutation):
            Permutation.parse(3, "(1 2 2)")

    def test_rejects_point_out_of_range(self):
        with pytest.raises(InvalidPermutation):
            Permutation.parse(3, "(1 4)")

    def test_rejects_garbage(self):
        with pytest.raises(InvalidPermutation):
            Permutation.parse(3, "(1 2")

    def test_rejects_overlapping_cycles(self):
        with pytest.raises(InvalidPermutation):
            Permutation.from_cycles(4, [(1, 2), (2, 3)])


class TestClosure:
    def test_three_cycle_gives_c3(self):
        g = close_from_generators([Permutation.parse(3, "(1 2 3)")], "c3")
        assert g.order == 3

    def test_q8_generators(self):
        gens = [
            Permutation.parse(8, "(1 2 3 4)(5 6 7 8)"),
            Permutation.parse(8, "(1 5 3 7)(2 8 4 6)"),
        ]
        g = close_from_generators(gens, "q8raw")
        assert g.order == 8
        involutions = [x for x in range(8) if x != 0 and g.mul(x, x) == 0]
        assert len(involutions) == 1

    def test_s3_from_transposition_and_cycle(self):
        gens = [Permutation.parse(3, "(1 2)"), Permutation.parse(3, "(1 2 3)")]
        assert close_from_generators(gens, "s3").order == 6

    def test_bfs_order_deterministic(self):
        gens = [Permutation.parse(4, "(1 2)"), Permutation.parse(4, "(1 2 3 4)")]
        g1 = close_from_generators(gens, "s4a")
        g2 = close_from_generators(gens, "s4b")
        assert cayley_rows(g1) == cayley_rows(g2)
        assert g1.element_names == g2.element_names

    def test_order_cap(self):
        gens = [Permutation.parse(4, "(1 2)"), Permutation.parse(4, "(1 2 3 4)")]
        with pytest.raises(OrderExceeded):
            close_from_generators(gens, "s4", max_order=10)

    def test_identity_is_index_zero(self):
        g = close_from_generators([Permutation.parse(5, "(1 2 3 4 5)")], "c5")
        assert g.name_of(0) == "()"


class TestTableValidation:
    def test_trivial(self):
        g = from_cayley_table([[0]], "t")
        assert g.order == 1

    def test_klein_four(self):
        rows = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        g = from_cayley_table(rows, "v4")
        assert g.order == 4
        assert all(g.mul(x, x) == 0 for x in range(4))

    def test_not_associative_names_witness(self):
        rows = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(NotAssociative) as exc:
            from_cayley_table(rows, "bad")
        a, b, c = exc.value.witness
        left = rows[rows[a][b]][c]
        right = rows[a][rows[b][c]]
        assert left != right

    def test_identity_elsewhere_is_relabeled(self):
        # element 1 is the identity here; this is C2, not an error
        g = from_cayley_table([[1, 0], [0, 1]], "c2swap")
        assert g.mul(0, 1) == 1 and g.mul(1, 1) == 0

    def test_no_identity(self):
        rows = [[0, 0], [0, 0]]
        with pytest.raises(NoIdentity):
            from_cayley_table(rows, "noid")

    def test_no_inverse(self):
        rows = [[0, 1], [1, 1]]
        with pytest.raises(NoInverse):
            from_cayley_table(rows, "noinv")

    def test_identity_relabeled_to_front(self):
        # C3 with the identity sitting at index 2
        rows = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
        g = from_cayley_table(rows, "c3shift", element_names=["a", "b", "e"])
        assert g.name_of(0) == "e"
        assert g.mul(0, 1) == 1

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            from_cayley_table([[0, 1], [1]], "ragged")

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            from_cayley_table([[0, 1], [1, 2]], "range")

    def test_roundtrip(self, groups):
        g = groups["sym:3"]
        again = from_cayley_table(cayley_rows(g), "s3rt")
        assert cayley_rows(again) == cayley_rows(g)


class TestGivenInverses:
    """An inverse_table handed to FiniteGroup is checked against its table."""

    Z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]

    def test_right_inverses_are_kept(self):
        g = FiniteGroup(self.Z4, "z4", inverse_table=[0, 3, 2, 1])
        assert g.inverse_table == [0, 3, 2, 1]

    @pytest.mark.parametrize(
        "inverses, bad",
        [([0, 1, 2, 3], 1), ([0, 3, 2, 7], 3), ([0, 3, -2, 1], 2), ([1, 3, 2, 1], 0)],
    )
    def test_wrong_inverses_name_the_first_bad_index(self, inverses, bad):
        with pytest.raises(NoInverse) as info:
            FiniteGroup(self.Z4, "z4", inverse_table=inverses)
        assert info.value.witness == bad

    @pytest.mark.parametrize("inverses", [[0, 3, 2], [0, 3, 2, 1, 0], [0.0, 3.0, 2.0, 1.0]])
    def test_inverse_tables_of_the_wrong_shape_or_type(self, inverses):
        with pytest.raises(ValueError, match="expected 4 integer inverses"):
            FiniteGroup(self.Z4, "z4", inverse_table=inverses)


class TestElementOps:
    def test_mul_inv_identity(self, groups):
        g = groups["sym:4"]
        for x in range(g.order):
            e = Element(g, x)
            assert mul(e, inv(e)).index == 0
            assert mul(Element(g, 0), e) == e

    def test_conjugation_example_in_s3(self, groups):
        g = groups["sym:3"]
        t12 = Element(g, g.element_names.index("(1 2)"))
        t13 = Element(g, g.element_names.index("(1 3)"))
        assert conjugate(t12, t13).name == "(2 3)"

    def test_conjugation_is_action(self, groups):
        g = groups["dihedral:6"]
        for a in range(g.order):
            for x in range(g.order):
                for y in range(g.order):
                    lhs = g.conj(g.conj(a, x), y)
                    assert lhs == g.conj(a, g.mul(x, y))

    def test_commutator_identity(self, groups):
        g = groups["q8"]
        for a in range(g.order):
            for x in range(g.order):
                ea, ex = Element(g, a), Element(g, x)
                assert mul(ea, commutator(ea, ex)) == conjugate(ea, ex)

    def test_commutator_with_self_trivial(self, groups):
        g = groups["sym:4"]
        assert all(commutator(Element(g, a), Element(g, a)).index == 0 for a in range(g.order))

    def test_group_mismatch(self, groups):
        with pytest.raises(GroupMismatch):
            mul(Element(groups["q8"], 1), Element(groups["sym:3"], 1))

    def test_element_orders_against_oracle(self, oracle_tables, groups):
        for spec in ("q8", "sym:4", "es:3"):
            g = groups[spec]
            rows = oracle_tables[spec]
            for x in range(g.order):
                assert element_order(Element(g, x)) == bf.element_order(rows, x)

    def test_negative_powers(self, groups):
        g = groups["cyclic:6"]
        x = g.generator_indices[0]
        assert g.power(x, -1) == g.inv(x)
        assert g.power(x, -7) == g.inv(x)
        assert g.power(x, 0) == 0


class TestFileFormats:
    def test_gens_roundtrip(self, tmp_path):
        path = tmp_path / "d4.gens"
        path.write_text("# dihedral\ndegree 4\ngen (1 2 3 4)\ngen (2 4)\n")
        degree, gens = load_gens(str(path))
        assert degree == 4 and len(gens) == 2
        g = close_from_generators(gens, "d4")
        assert g.order == 8

    def test_gens_missing_degree(self, tmp_path):
        path = tmp_path / "x.gens"
        path.write_text("gen (1 2)\n")
        with pytest.raises(ValueError, match="degree"):
            load_gens(str(path))

    def test_gens_bad_cycle_reports_line(self, tmp_path):
        path = tmp_path / "x.gens"
        path.write_text("degree 3\ngen (1 2)\ngen (9 1)\n")
        with pytest.raises(ValueError, match=":3:"):
            load_gens(str(path))

    def test_cayley_roundtrip(self, tmp_path, groups):
        g = groups["dihedral:4"]
        path = tmp_path / "d4.cayley"
        save_cayley(g, str(path))
        assert load_cayley(str(path)) == cayley_rows(g)

    def test_cayley_row_count_mismatch(self, tmp_path):
        path = tmp_path / "x.cayley"
        path.write_text("3\n0 1 2\n1 2 0\n")
        with pytest.raises(ValueError, match="expected 3"):
            load_cayley(str(path))

    def test_cayley_non_integer(self, tmp_path):
        path = tmp_path / "x.cayley"
        path.write_text("1\nzero\n")
        with pytest.raises(ValueError):
            load_cayley(str(path))


class TestCaps:
    # symmetric() is called directly: build_group memoizes per spec and would
    # serve a cached group without consulting the env again
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CLASSPROD_MAX_ORDER", "20")
        with pytest.raises(OrderExceeded):
            symmetric(4)

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("CLASSPROD_MAX_ORDER", "lots")
        with pytest.raises(ValueError):
            symmetric(4)
