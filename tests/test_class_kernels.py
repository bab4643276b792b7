"""The whole-table class-data kernels against the naive oracles.

Classes (carriers and representative order), centralizers and commutator
sets are compared with tests/bruteforce.py on every built-in group of order
at most 64, and on seeded random relabelings of three tables, validated by
from_cayley_table, so the kernels also see tables outside closure order.
"""

import random

import pytest

from classprod import build_group, cayley_rows, from_cayley_table
from classprod.classalg import (
    centralizer,
    centralizer_buckets,
    class_id_of,
    commutator_set,
    conjugacy_classes,
)
from classprod.group import Element
from classprod.scan import BUILTIN_SPECS

import bruteforce as bf

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


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_builtin_groups(spec):
    assert_kernels_match_oracles(build_group(spec))


@pytest.mark.parametrize("spec,seed", RELABELED)
def test_relabeled_tables(spec, seed):
    g = relabeled(spec, seed)
    rows = cayley_rows(g)
    assert g.inverse_table == [bf.inverse(rows, a) for a in range(g.order)]
    assert_kernels_match_oracles(g)

