"""The whole-table class-data kernels against the naive oracles.

Classes (carriers and representative order), centralizers and commutator
sets are compared with tests/bruteforce.py on every built-in group of order
at most 64, and on seeded random relabelings of three tables, validated by
from_cayley_table, so the kernels also see tables outside closure order.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from classprod import build_group, cayley_rows, direct_product, from_cayley_table
from classprod.classalg import (
    _centralizer_ids,
    centralizer,
    centralizer_buckets,
    class_id_of,
    commutator_set,
    conjugacy_classes,
    equal_centralizer_arrays,
)
from classprod.group import Element, FiniteGroup
from classprod.scan import BUILTIN_SPECS
from classprod.verify import run_statement

import bruteforce as bf
from conftest import ORACLE_SPECS

SMALL_SPECS = tuple(s for s in BUILTIN_SPECS if build_group(s).order <= 64)
RELABELED = [(spec, seed) for spec in ("alt:5", "es:3", "sym:4") for seed in (1, 2, 3)]


def relabeled(spec, seed):
    """spec's table under a seeded random bijection of its indices."""
    rows = cayley_rows(build_group(spec))
    n = len(rows)
    s = list(range(n))
    random.Random(seed).shuffle(s)
    assert s[0] != 0  # the identity moves, so from_cayley_table relabels
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[s[a]][s[b]] = s[rows[a][b]]
    return from_cayley_table(out, f"{spec}~{seed}")


def assert_kernels_match_oracles(g):
    rows = cayley_rows(g)
    classes = conjugacy_classes(g)
    assert [set(c.carrier) for c in classes] == [set(c) for c in bf.all_classes(rows)]
    assert [c.representative.index for c in classes] == [min(c) for c in bf.all_classes(rows)]
    for a in range(g.order):
        x = Element(g, a)
        assert a in classes[class_id_of(x)].carrier
        assert set(centralizer(x)) == bf.centralizer(rows, a)
        assert set(commutator_set(x)) == bf.commutator_set(rows, a)
    for mask, members in centralizer_buckets(g).items():
        assert all(centralizer(Element(g, a)).mask == mask for a in members)
    assert sorted(a for m in centralizer_buckets(g).values() for a in m) == list(range(g.order))
    cents = [bf.centralizer(rows, x) for x in range(g.order)]
    reps = [c.representative.index for c in classes]
    pairs = [(r, b) for r in reps for b in range(g.order) if cents[b] == cents[r]]
    a, b = equal_centralizer_arrays(g)
    assert list(zip(a.tolist(), b.tolist())) == pairs


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_builtin_groups(spec):
    assert_kernels_match_oracles(build_group(spec))


@pytest.mark.parametrize("spec,seed", RELABELED)
def test_relabeled_tables(spec, seed):
    g = relabeled(spec, seed)
    rows = cayley_rows(g)
    assert g.inverse_table == [bf.inverse(rows, a) for a in range(g.order)]
    assert_kernels_match_oracles(g)



# -- the orbit kernel under any generator list ------------------------------
#
# Classes are orbits of conjugation by generator_indices, completed by the
# class equation, so they must not depend on that list: the group's own
# generators, none (a Cayley file), or a list generating a proper subgroup.


@lru_cache(maxsize=None)
def oracle(spec):
    """The oracle classes and centralizers of spec's table, as sets."""
    rows = cayley_rows(build_group(spec))
    return rows, [set(c) for c in bf.all_classes(rows)], [bf.centralizer(rows, a) for a in range(len(rows))]


def with_generators(spec, gens):
    """A fresh, uncached copy of spec's table with the given generator_indices."""
    g = build_group(spec)
    return FiniteGroup(g.np_table(), f"{spec}@{gens}", generator_indices=gens,
                       inverse_table=g.inverse_table)


def assert_orbit_kernel_matches(g, classes, centralizers):
    assert [set(c.carrier) for c in conjugacy_classes(g)] == classes
    assert [c.representative.index for c in conjugacy_classes(g)] == [min(c) for c in classes]
    assert [set(centralizer(Element(g, a))) for a in range(g.order)] == centralizers
    assert "centralizer_ids" not in g._cache  # so those came from two rows each
    _centralizer_ids(g)
    assert [set(centralizer(Element(g, a))) for a in range(g.order)] == centralizers


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_orbit_kernel_with_own_generators(spec):
    _, classes, centralizers = oracle(spec)
    assert_orbit_kernel_matches(with_generators(spec, build_group(spec).generator_indices),
                                classes, centralizers)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_orbit_kernel_without_generators(spec):
    rows, classes, centralizers = oracle(spec)
    g = from_cayley_table(rows, spec)
    assert g.generator_indices == ()
    assert_orbit_kernel_matches(g, classes, centralizers)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_orbit_kernel_with_one_element(spec):
    _, classes, centralizers = oracle(spec)
    last = build_group(spec).order - 1
    assert_orbit_kernel_matches(with_generators(spec, (last,)), classes, centralizers)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_orbit_kernel_on_product_with_a_cayley_factor(spec):
    rows = oracle(spec)[0]
    g = direct_product(from_cayley_table(rows, spec), build_group("sym:3"))
    assert len(g.generator_indices) == len(build_group("sym:3").generator_indices)
    product_rows = cayley_rows(g)
    classes = [set(c) for c in bf.all_classes(product_rows)]
    centralizers = [bf.centralizer(product_rows, a) for a in range(g.order)]
    assert_orbit_kernel_matches(g, classes, centralizers)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(ORACLE_SPECS), st.data())
def test_orbit_kernel_with_any_generator_subset(spec, data):
    _, classes, centralizers = oracle(spec)
    n = build_group(spec).order
    gens = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=4), label="gens"))
    assert_orbit_kernel_matches(with_generators(spec, gens), classes, centralizers)


@pytest.mark.parametrize("bad", [6, -1])
def test_generator_index_outside_the_table_is_rejected(bad):
    g = build_group("cyclic:6")
    with pytest.raises(ValueError, match=f"generator index {bad} "):
        FiniteGroup(g.np_table(), "c6", generator_indices=(1, bad))


def test_a_table_that_is_no_group_stops_the_orbit_kernel():
    """FiniteGroup does not check associativity; on a loop the orbit
    completion finds no consistent conjugation and raises, not loops."""
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="not a group"):
        conjugacy_classes(FiniteGroup(loop, "loop5", generator_indices=(1, 2)))


# -- the equal-centralizer hypothesis as one id array ------------------------


def test_theorem_a_keeps_centralizer_ids_not_masks():
    g = build_group("prod(dihedral:8,dihedral:8,dihedral:8)")
    run_statement(g, "theorem-a")
    ids = _centralizer_ids(g)
    assert ids.shape == (g.order,) and ids.dtype.kind == "i" and not ids.flags.writeable
    for value in g._cache.values():
        assert not (isinstance(value, list) and len(value) == g.order and all(type(v) is int for v in value))
