"""The class-support kernel and the predicates built on it, against oracles.

eta of every class product and every class-product mask are compared with
tests/bruteforce.py on the built-in groups of order at most 64 and on
seeded relabelings through from_cayley_table. decompose keeps its first
NotInvariant witness, is_normal matches the naive normality test, and
is_nilpotent matches a lower-central-series reference kept here. quotient
tables match the coset loop kept here.
"""

import random

import numpy as np
import pytest

import bruteforce as bf
from classprod import (
    ElementSet,
    GroupMismatch,
    NotInvariant,
    build_group,
    cayley_rows,
    class_eta_matrix,
    class_id_array,
    class_product,
    commutator_set,
    conjugacy_classes,
    decompose,
    direct_product,
    eta_of_product,
    is_nilpotent,
    is_normal,
    normal_subgroups,
    quotient,
)
from classprod.classalg import _powers
from classprod.group import Element, FiniteGroup
from classprod.scan import BUILTIN_SPECS
from test_class_kernels import RELABELED, SMALL_SPECS, relabeled

PRODUCTS = ("prod(sym:3,cyclic:3)", "prod(q8,es:3)", "prod(dihedral:4,cyclic:2,cyclic:3)")


def kernel_groups():
    return [build_group(s) for s in SMALL_SPECS] + [relabeled(s, seed) for s, seed in RELABELED]


@pytest.mark.parametrize("g", kernel_groups(), ids=lambda g: g.group_id)
def test_eta_and_products_match_oracles(g):
    rows = cayley_rows(g)
    classes = conjugacy_classes(g)
    etas = class_eta_matrix(g)
    assert etas.shape == (len(classes), len(classes))
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            expected = bf.set_product(rows, ci.carrier, cj.carrier)
            a, b = ci.representative, cj.representative
            assert frozenset(class_product(a, b)) == expected
            assert etas[i, j] == eta_of_product(a, b) == bf.eta(rows, expected)
    # every element, not only representatives, reads its own class's row
    cid = class_id_array(g)
    for a in random.Random(g.order).sample(range(g.order), min(g.order, 12)):
        for b in range(g.order):
            expected = bf.set_product(rows, bf.conjugacy_class(rows, a), bf.conjugacy_class(rows, b))
            assert frozenset(class_product(Element(g, a), Element(g, b))) == expected
            assert eta_of_product(Element(g, a), Element(g, b)) == etas[cid[a], cid[b]]


def test_eta_matrix_is_read_only():
    etas = class_eta_matrix(build_group("sym:4"))
    with pytest.raises(ValueError):
        etas[0, 0] = 7


# -- decompose -----------------------------------------------------------------


def first_witness(g, members):
    """NotInvariant's (element, conjugator) by the member-by-member scan."""
    s = set(members)
    for i in sorted(s):
        for h in range(g.order):
            if g.conj(i, h) not in s:
                return i, h
    return None


@pytest.mark.parametrize("spec", ["sym:4", "dihedral:6", "q8", "es:3", "alt:5"])
def test_decompose_keeps_the_first_witness(spec):
    g = build_group(spec)
    rows = cayley_rows(g)
    rng = random.Random(spec)
    classes = conjugacy_classes(g)
    for _ in range(40):
        members = {x for x in range(g.order) if rng.random() < 0.3}
        # a union of classes with one member of a nontrivial class taken out
        union = set()
        for c in rng.sample(classes, rng.randint(1, len(classes))):
            union |= set(c.carrier)
        for x in (members, union - {rng.choice(sorted(union))}):
            witness = first_witness(g, x)
            s = ElementSet.from_indices(g, x)
            if witness is None:
                parts = decompose(s)
                assert parts.eta == bf.eta(rows, x)
                assert [c.representative.index for c in parts.classes] == sorted(
                    min(c) for c in bf.all_classes(rows) if c & x
                )
            else:
                with pytest.raises(NotInvariant) as info:
                    decompose(s)
                assert info.value.witness == witness


def test_decompose_empty_set():
    g = build_group("sym:3")
    assert decompose(ElementSet(g, 0)).eta == 0


# -- is_normal -------------------------------------------------------------------


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_is_normal_matches_oracle(spec):
    g = build_group(spec)
    rows = cayley_rows(g)
    candidates = [frozenset(s) for s in normal_subgroups(g)]
    candidates += [frozenset(commutator_set(Element(g, x))) for x in range(g.order)]
    rng = random.Random(spec)
    for _ in range(30):
        candidates.append(frozenset(x for x in range(g.order) if rng.random() < 0.5))
        candidates.append(bf.generated(rows, rng.sample(range(g.order), min(g.order, 2))))
    for s in candidates:
        assert is_normal(ElementSet.from_indices(g, s)) == bf.is_normal(rows, s), sorted(s)


# -- is_nilpotent ----------------------------------------------------------------


def nilpotent_by_lower_central_series(g):
    """G = G_1 > G_2 > ... with G_{k+1} generated by the [x, g], x in G_k."""
    rows = cayley_rows(g)
    inv = [bf.inverse(rows, x) for x in range(g.order)]
    current = frozenset(range(g.order))
    while len(current) > 1:
        # [x, h] = x^-1 h^-1 x h
        commutators = {rows[rows[rows[inv[x]][inv[h]]][x]][h] for x in current for h in range(g.order)}
        nxt = bf.generated(rows, commutators)
        if nxt == current:
            return False
        current = nxt
    return True


def table_copy(spec):
    """spec's group from a copy of its table alone: no generators, no factors."""
    return FiniteGroup(build_group(spec).np_table().copy(), f"table:{spec}")


# nilpotent with two primes; fails at p = 3 after p = 2 passes
TABLE_COPIES = ("table:prod(dihedral:4,cyclic:3)", "table:prod(alt:4,cyclic:5)")


@pytest.mark.parametrize("spec", BUILTIN_SPECS + PRODUCTS + TABLE_COPIES)
def test_is_nilpotent_matches_lower_central_series(spec):
    g = table_copy(spec.removeprefix("table:")) if spec in TABLE_COPIES else build_group(spec)
    assert is_nilpotent(g) == nilpotent_by_lower_central_series(g)


def test_is_nilpotent_on_large_nilpotent_groups():
    r = np.arange(4096)  # Z/4096 from its arithmetic, a table no closure code built
    assert is_nilpotent(FiniteGroup((np.add.outer(r, r) % 4096).astype(np.int16), "cyclic:4096"))
    assert is_nilpotent(build_group("prod(es:3,es:5)"))


@pytest.mark.parametrize("spec", ["alt:4", "prod(dihedral:4,cyclic:3)", "es:3"])
def test_powers_match_group_power(spec):
    g = build_group(spec)
    for k in (1, 2, 3, 4, 5, 12, 27, 125):
        assert _powers(g.np_table(), k).tolist() == [g.power(x, k) for x in range(g.order)]


# -- quotient --------------------------------------------------------------------


def coset_table(g, members):
    """G/N by the coset loop: cosets ordered by least member."""
    coset_id = [-1] * g.order
    reps = []
    for x in range(g.order):
        if coset_id[x] < 0:
            for s in members:
                coset_id[g.mul(x, s)] = len(reps)
            reps.append(x)
    return [[coset_id[g.mul(r, s)] for s in reps] for r in reps], coset_id


@pytest.mark.parametrize("spec", ["sym:4", "q8", "dihedral:6", "es:3", "prod(sym:3,cyclic:3)"])
def test_quotient_tables_match_the_coset_loop(spec):
    g = build_group(spec)
    for n in normal_subgroups(g):
        qm = quotient(g, n)
        table, coset_id = coset_table(g, sorted(n))
        assert cayley_rows(qm.quotient) == table
        assert list(qm.projection) == coset_id


# -- group identity ----------------------------------------------------------------


def test_same_id_different_groups_do_not_mix(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    (tmp_path / "x" / "g.cayley").write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    (tmp_path / "y" / "g.cayley").write_text("2\n0 1\n1 0\n")
    ga = build_group(f"file:{tmp_path / 'x' / 'g.cayley'}")
    gb = build_group(f"file:{tmp_path / 'y' / 'g.cayley'}")
    assert ga.group_id == gb.group_id == "file:g.cayley"
    a, b = Element(ga, 2), Element(gb, 1)
    assert a != Element(gb, 0) and Element(ga, 1) != Element(gb, 1)
    assert ElementSet(ga, 1) != ElementSet(gb, 1)
    for op in (lambda: a * b, lambda: class_product(a, b), lambda: eta_of_product(a, b)):
        with pytest.raises(GroupMismatch):
            op()
    with pytest.raises(GroupMismatch):
        ElementSet(ga, 1) | ElementSet(gb, 1)
    with pytest.raises(GroupMismatch):
        quotient(ga, ElementSet(gb, 1))
    with pytest.raises(GroupMismatch):
        quotient(ga, ElementSet(ga, 1)).project(b)


def test_products_of_same_named_files_are_built_apart(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    (tmp_path / "x" / "g.cayley").write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    (tmp_path / "y" / "g.cayley").write_text("2\n0 1\n1 0\n")
    ga = build_group(f"prod(file:{tmp_path / 'x' / 'g.cayley'},cyclic:2)")
    gb = build_group(f"prod(file:{tmp_path / 'y' / 'g.cayley'},cyclic:2)")
    assert ga.group_id == gb.group_id == "prod(file:g.cayley,cyclic:2)"
    assert (ga.order, gb.order) == (6, 4)


def test_direct_product_self_identity():
    g = build_group("sym:3")
    p1, p2 = direct_product(g, g), direct_product(g, g)
    assert p1.group_id == p2.group_id
    with pytest.raises(GroupMismatch):
        class_product(Element(p1, 1), Element(p2, 1))
