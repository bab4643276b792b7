"""The one blocked gather behind every product of element sets.

set_product, is_subgroup, translate_left and conjugate_by are compared with
the naive oracles in bruteforce.py on seeded subsets of sym:6 (order 720)
and alt:6 (order 360). Sets of more than 256 members span several row
blocks of the gather, which the order <= 24 oracle groups never reach.
Minimal normal subgroups are checked on the elementary abelian group of
order 4096, where every nonidentity element gives one.
"""

import random

import pytest

import bruteforce as bf
from classprod import (
    ElementSet,
    build_group,
    cayley_rows,
    is_subgroup,
    minimal_normal_subgroups,
    set_product,
)

SPECS = ("sym:6", "alt:6")
SIZES = (0, 1, 2, 17, 255, 256, 257, 300)


@pytest.fixture(scope="module")
def tables():
    return {spec: (build_group(spec), cayley_rows(build_group(spec))) for spec in SPECS}


def seeded_subsets(n, seed):
    rng = random.Random(seed)
    return [rng.sample(range(n), k) for k in SIZES if k <= n]


def even_permutations(rows):
    """alt:6 inside sym:6: the squares generate it, since each 3-cycle is a square."""
    return bf.generated(rows, {rows[x][x] for x in range(len(rows))})


@pytest.mark.parametrize("spec", SPECS)
def test_set_product_matches_oracle(tables, spec):
    g, rows = tables[spec]
    subsets = seeded_subsets(g.order, seed=11)
    for xs in subsets:
        for ys in subsets:
            got = set_product(ElementSet.from_indices(g, xs), ElementSet.from_indices(g, ys))
            assert set(got) == bf.set_product(rows, xs, ys), (len(xs), len(ys))


@pytest.mark.parametrize("spec", SPECS)
def test_is_subgroup_matches_oracle(tables, spec):
    g, rows = tables[spec]
    candidates = seeded_subsets(g.order, seed=12) + [
        [0],
        list(range(g.order)),
        sorted(bf.generated(rows, [1])),
        sorted(bf.generated(rows, [1, 2])),
    ]
    for xs in candidates:
        assert is_subgroup(ElementSet.from_indices(g, xs)) == bf.is_subgroup(rows, xs), len(xs)


def test_alt6_inside_sym6(tables):
    g, rows = tables["sym:6"]
    even = even_permutations(rows)
    assert len(even) == 360
    s = ElementSet.from_indices(g, even)
    assert is_subgroup(s)
    assert set(set_product(s, s)) == set(even)
    odd = ElementSet.full(g) - s
    assert not is_subgroup(odd)
    assert set(set_product(odd, odd)) == set(even)  # odd times odd is even
    assert set(set_product(s, odd)) == set(odd)


@pytest.mark.parametrize("spec", SPECS)
def test_translate_left_and_conjugate_by(tables, spec):
    g, rows = tables[spec]
    rng = random.Random(13)
    for xs in seeded_subsets(g.order, seed=14):
        s = ElementSet.from_indices(g, xs)
        for c in [0, g.order - 1] + rng.sample(range(g.order), 3):
            assert set(s.translate_left(c)) == {rows[c][x] for x in xs}
            assert set(s.conjugate_by(c)) == {bf.conj(rows, x, c) for x in xs}


def test_minimal_normals_of_elementary_abelian_4096():
    g = build_group("prod(" + ",".join(["cyclic:2"] * 12) + ")")
    assert g.order == 4096
    minimal = minimal_normal_subgroups(g)
    assert len(minimal) == 4095
    assert {m.mask for m in minimal} == {1 | 1 << x for x in range(1, 4096)}
    assert [m.members for m in minimal] == sorted(m.members for m in minimal)
