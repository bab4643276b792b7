"""Permutation closure: the level search against a plain breadth-first oracle,
at the order cap, past the int16 degree, and its names made on read."""

import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bruteforce as bf
from classprod import ElementSet, OrderExceeded, Permutation, build_group, constructions, quotient
from classprod import group as group_module
from classprod.group import close_from_generators


@pytest.fixture
def fresh_builds(monkeypatch):
    """An empty build cache, so a cap-sized group is freed after its test."""
    monkeypatch.setattr(constructions, "_BUILD_CACHE", {})


@st.composite
def generator_lists(draw):
    """1-4 generators of degree 1..7; the identity and repeats among them."""
    degree = draw(st.integers(min_value=1, max_value=7))
    identity = tuple(range(1, degree + 1))
    perm = st.permutations(identity).map(tuple)
    pool = draw(st.lists(st.one_of(st.just(identity), perm), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


@settings(deadline=None, max_examples=60)
@given(generator_lists())
def test_closure_matches_breadth_first_oracle(gen_images):
    elems, gen_indices = bf.closure(gen_images)
    assume(len(elems) <= 120)  # the oracle's table is n^2 tuple products
    gens = [Permutation(images) for images in gen_images]
    g = close_from_generators(gens, "oracle")
    degree = len(gen_images[0])
    assert [Permutation.parse(degree, name).images for name in g.element_names] == elems
    rows = bf.permutation_table(elems)
    assert g.table.tolist() == rows
    assert g.generator_indices == tuple(gen_indices)
    assert g.inverse_table == [bf.inverse(rows, a) for a in range(len(rows))]
    if len(elems) > 1:
        with pytest.raises(OrderExceeded) as exc:
            close_from_generators(gens, "oracle", max_order=len(elems) - 1)
        assert str(exc.value) == f"closure of 'oracle' exceeds the order cap {len(elems) - 1}"


def test_cyclic_4096_is_addition_mod_4096(fresh_builds):
    r = np.arange(4096, dtype=np.int16)  # sums stay under 8192: no int16 wrap, a 32 MiB table
    assert np.array_equal(build_group("cyclic:4096").table, np.add.outer(r, r) % 4096)


def permutation_power(p, k):
    acc = Permutation.identity(p.degree)
    while k:
        if k & 1:
            acc = acc * p
        p, k = p * p, k >> 1
    return acc


@pytest.mark.parametrize("spec, degree", [("cyclic:4096", 4096), ("dihedral:2048", 2048)])
def test_names_are_made_one_at_a_time_on_read(spec, degree, fresh_builds, monkeypatch):
    made = []
    name = group_module.cycle_string_of
    monkeypatch.setattr(group_module, "cycle_string_of", lambda images: made.append(1) or name(images))
    g = build_group(spec)
    assert made == []
    rot = Permutation.from_cycles(degree, [tuple(range(1, degree + 1))])
    r = g.generator_indices[0]
    for k in random.Random(2006).sample(range(degree), 6):
        assert g.name_of(g.power(r, k)) == permutation_power(rot, k).cycle_string()
        if len(g.generator_indices) == 2:  # r^k * s for the reflection s
            refl = Permutation([1] + [degree + 2 - i for i in range(2, degree + 1)])
            rks = g.mul(g.power(r, k), g.generator_indices[1])
            assert g.name_of(rks) == (permutation_power(rot, k) * refl).cycle_string()
    assert len(made) == (6 if len(g.generator_indices) == 1 else 12)


def test_a_closure_operand_makes_each_name_once(fresh_builds, monkeypatch):
    made = []
    name = group_module.cycle_string_of
    monkeypatch.setattr(group_module, "cycle_string_of", lambda images: made.append(1) or name(images))
    g = build_group("prod(dihedral:8,dihedral:8,dihedral:8)")
    q = quotient(g, ElementSet.from_indices(g, [0])).quotient  # names every coset, one name_of each
    assert 0 < len(made) <= 48  # 16 strings for each of the three operands
    assert q.element_names == [f"[{x}]" for x in g.element_names]


def test_wide_level_is_formed_in_blocks():
    # (Z/2)^10 from ten disjoint transpositions in degree 4096: 1024 image rows
    # of 8 KiB are 8 MiB, held once as dict keys and once joined for the names;
    # the widest level's 252 x 10 products, formed unblocked, would be 20 MiB more
    gens = [Permutation.from_cycles(4096, [(2 * i + 1, 2 * i + 2)]) for i in range(10)]
    tracemalloc.start()
    try:
        g = close_from_generators(gens, "z2^10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 1024
    assert peak < 24 * 2**20


def test_degree_past_int16_is_not_wrapped():
    g = close_from_generators([Permutation.from_cycles(40000, [(1, 40000)])], "t")
    assert g.order == 2
    assert g.name_of(1) == "(1 40000)"
    assert g.element_names == ["()", "(1 40000)"]


def test_closure_group_pickles_with_its_images():
    g = close_from_generators([Permutation.parse(4, "(1 2 3 4)"), Permutation.parse(4, "(1 2)")], "s4")
    copy = pickle.loads(pickle.dumps(g))
    assert copy.name_of(5) == g.name_of(5)
    assert copy.element_names == g.element_names
    assert np.array_equal(copy.table, g.table)
