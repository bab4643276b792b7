import pytest

from classprod import (
    Element,
    EvenN,
    GroupSpec,
    NotOddPrime,
    OrderExceeded,
    alternating,
    build_group,
    center,
    commutator_set,
    conjugacy_class,
    conjugacy_classes,
    cyclic,
    dihedral,
    direct_product,
    es_power,
    extraspecial_p3,
    is_abelian,
    odd_eta1_witness,
    quaternion8,
    symmetric,
)


class TestBasicFamilies:
    def test_orders_and_ids(self):
        cases = [
            (cyclic(1), 1, "cyclic:1"),
            (cyclic(7), 7, "cyclic:7"),
            (dihedral(3), 6, "dihedral:3"),
            (dihedral(6), 12, "dihedral:6"),
            (symmetric(4), 24, "sym:4"),
            (alternating(5), 60, "alt:5"),
            (quaternion8(), 8, "q8"),
        ]
        for g, order, gid in cases:
            assert g.order == order and g.group_id == gid

    def test_cyclic_is_abelian_single_generator(self):
        g = cyclic(12)
        assert is_abelian(g)
        assert len(g.generator_indices) == 1
        assert g.order_of(g.generator_indices[0]) == 12

    def test_degenerate_dihedral(self):
        # n=1 and n=2 fall back to C2 and the Klein four group
        assert dihedral(1).order == 2
        v4 = dihedral(2)
        assert v4.order == 4 and is_abelian(v4)

    def test_symmetric_class_count(self):
        # classes of S_n are integer partitions: 5 for n=4, 7 for n=5
        assert len(conjugacy_classes(symmetric(4))) == 5
        assert len(conjugacy_classes(symmetric(5))) == 7

    def test_alternating_small(self):
        assert alternating(2).order == 1
        assert alternating(3).order == 3
        assert alternating(4).order == 12

    def test_symmetric_order_cap_fails_fast(self):
        # 7! = 5040 exceeds the default cap before any closure work
        with pytest.raises(OrderExceeded):
            symmetric(7)

    def test_invalid_degrees(self):
        with pytest.raises(ValueError):
            cyclic(0)
        with pytest.raises(ValueError):
            dihedral(0)
        with pytest.raises(ValueError):
            symmetric(0)


class TestQuaternion:
    def test_named_multiplication(self):
        g = quaternion8()
        ne = g.named_elements
        i, j, k, m1 = ne["i"], ne["j"], ne["k"], ne["-1"]
        assert g.mul(i, j) == k
        assert g.mul(j, i) == ne["-k"]
        assert g.mul(i, i) == m1
        assert g.mul(m1, m1) == 0
        assert g.inv(i) == ne["-i"]

    def test_unique_involution(self):
        g = quaternion8()
        assert [x for x in range(8) if g.order_of(x) == 2] == [g.named_elements["-1"]]

    def test_all_eight_names(self):
        g = quaternion8()
        assert set(g.element_names) == {"1", "-1", "i", "-i", "j", "-j", "k", "-k"}


class TestExtraspecial:
    def test_rejects_bad_p(self):
        for p in (2, 4, 9, 15):
            with pytest.raises(NotOddPrime):
                extraspecial_p3(p)

    def test_rejects_huge_p(self):
        with pytest.raises(OrderExceeded):
            extraspecial_p3(17)  # 17^3 = 4913 over the default cap

    def test_exponent_p(self):
        g = extraspecial_p3(3)
        assert g.order == 27
        assert all(g.order_of(x) in (1, 3) for x in range(27))

    def test_center_and_commutators(self):
        g = extraspecial_p3(5)
        z = center(g)
        assert len(z) == 5
        for x in range(g.order):
            cs = commutator_set(Element(g, x))
            if x in z:
                assert len(cs) == 1
            else:
                assert set(cs) == set(z)

    def test_noncentral_class_is_coset_of_center(self):
        g = extraspecial_p3(3)
        a = g.named_elements["(1,0,0)"]
        cls = conjugacy_class(Element(g, a))
        assert set(cls.carrier) == {g.mul(a, z) for z in center(g)}

    def test_es_power_identity_and_order(self):
        g = es_power(3, 2)
        assert g.order == 729 and g.group_id == "es:3^2"
        assert es_power(3, 1).group_id == "es:3"


class TestDirectProduct:
    def test_order_and_id(self):
        g = direct_product(symmetric(3), cyclic(4))
        assert g.order == 24
        assert g.group_id == "prod(sym:3,cyclic:4)"

    def test_componentwise_multiplication(self):
        a, b = symmetric(3), cyclic(4)
        g = direct_product(a, b)
        for x in range(a.order):
            for y in range(b.order):
                for u in range(a.order):
                    for v in range(b.order):
                        lhs = g.mul(x * b.order + y, u * b.order + v)
                        assert lhs == a.mul(x, u) * b.order + b.mul(y, v)

    def test_classes_are_products_of_classes(self):
        a, b = symmetric(3), cyclic(4)
        g = direct_product(a, b)
        got = {frozenset(c.carrier) for c in conjugacy_classes(g)}
        want = set()
        for ca in conjugacy_classes(a):
            for cb in conjugacy_classes(b):
                want.add(
                    frozenset(x * b.order + y for x in ca.carrier for y in cb.carrier)
                )
        assert got == want

    def test_pair_names(self):
        g = direct_product(cyclic(2), cyclic(3))
        assert g.element_names[0] == "((),())"
        assert g.element_names[1] == "((),(1 2 3))"


class TestSpecParsing:
    def test_roundtrips(self):
        for text, canonical in [
            ("cyclic:6", "cyclic:6"),
            ("dih:4", "dihedral:4"),
            ("q8", "q8"),
            ("es:3", "es:3"),
            ("es:3^2", "es:3^2"),
            ("prod(sym:3,cyclic:4)", "prod(sym:3,cyclic:4)"),
            ("prod(prod(q8,cyclic:2),sym:3)", "prod(prod(q8,cyclic:2),sym:3)"),
            (" sym:4 ", "sym:4"),
        ]:
            spec = GroupSpec.parse(text)
            assert spec.canonical() == canonical
            assert build_group(canonical).group_id == canonical

    def test_rejects_malformed(self):
        for text in (
            "", "cyclic", "cyclic:x", "cyclic:0", "bogus:9", "prod(q8)",
            "prod(q8,", "prod(q8,sym:3", "es:3^0", "q8:2", "file:",
        ):
            with pytest.raises(ValueError):
                GroupSpec.parse(text)

    def test_es_prime_checked_at_build_not_parse(self):
        # the parser only validates shape; es:4 fails when built
        spec = GroupSpec.parse("es:4")
        with pytest.raises(NotOddPrime):
            spec.build()

    def test_file_spec_builds_from_gens(self, tmp_path):
        p = tmp_path / "c3.gens"
        p.write_text("degree 3\ngen (1 2 3)\n")
        g = build_group(f"file:{p}")
        assert g.order == 3

    def test_file_spec_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            build_group(f"file:{tmp_path / 'nope.gens'}")

    def test_build_group_caches_by_canonical(self):
        assert build_group("dih:4") is build_group("dihedral:4")

    def test_file_specs_never_cached(self, tmp_path):
        p = tmp_path / "c2.gens"
        p.write_text("degree 2\ngen (1 2)\n")
        spec = f"file:{p}"
        assert build_group(spec) is not build_group(spec)


class TestOddWitness:
    def test_rejects_even_or_nonpositive(self):
        for n in (0, 2, 6, -3):
            with pytest.raises(EvenN):
                odd_eta1_witness(n)

    def test_rejects_oversized(self):
        with pytest.raises(OrderExceeded):
            odd_eta1_witness(17)  # would need order 17^3 = 4913

    def test_n1_is_trivial(self):
        g, a = odd_eta1_witness(1)
        assert g.order == 1 and a.index == 0

    def test_witness_class_size(self):
        for n in (3, 5, 9):
            g, a = odd_eta1_witness(n)
            assert conjugacy_class(a).size == n

    def test_composite_n_uses_direct_product(self):
        g, a = odd_eta1_witness(15)
        assert g.order == 27 * 125
        assert conjugacy_class(a).size == 15


class TestBuildCacheCap:
    def test_later_cap_change_is_honored(self, monkeypatch):
        monkeypatch.delenv("CLASSPROD_MAX_ORDER", raising=False)
        assert build_group("sym:5").order == 120
        monkeypatch.setenv("CLASSPROD_MAX_ORDER", "100")
        with pytest.raises(OrderExceeded):
            build_group("sym:5")
