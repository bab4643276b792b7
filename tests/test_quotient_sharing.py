"""Quotients are built from their parent's data, with no spare copy of the table.

G/{e} is its own group on the parent's frozen table and row views. Every
quotient takes its inverses and generators from the parent's; each is
checked against the brute-force oracles, over every normal subgroup the
oracle finds. The traced peak of quotient-monotonicity on es:3^2 stays
within one and a half tables of what the group held before it.
"""

import tracemalloc

import numpy as np
import pytest

import bruteforce as bf
from classprod import (
    ElementSet,
    build_group,
    cayley_rows,
    class_eta_matrix,
    conjugacy_classes,
    quotient,
)
from classprod.constructions import GroupSpec
from classprod.verify import run_statement

SPECS = ("sym:4", "dihedral:6", "q8", "es:3", "prod(cyclic:2,sym:3)")


@pytest.mark.parametrize("spec", SPECS)
def test_trivial_quotient_shares_its_parents_table(spec):
    g = build_group(spec)
    q = quotient(g, ElementSet.from_indices(g, [0])).quotient
    assert np.shares_memory(q.np_table(), g.np_table())
    assert not q.np_table().flags.writeable
    assert q.table is g.table
    assert q.inverse_table == g.inverse_table
    assert q.factors == () and q._cache is not g._cache
    assert class_eta_matrix(q) is not class_eta_matrix(g)
    assert np.array_equal(class_eta_matrix(q), class_eta_matrix(g))


@pytest.mark.parametrize("spec", SPECS)
def test_every_quotient_matches_the_oracles(spec):
    g = build_group(spec)
    rows = cayley_rows(g)
    kernels = bf.normal_subgroups(rows)
    assert len(kernels) > 2
    for kernel in kernels:
        qm = quotient(g, ElementSet.from_indices(g, kernel))
        q, proj = qm.quotient, qm.projection
        qrows = cayley_rows(q)
        m = len(qrows)
        assert m * len(kernel) == g.order
        assert all(qrows[proj[x]][proj[y]] == proj[rows[x][y]] for x in range(g.order) for y in range(g.order))
        assert q.inverse_table == [bf.inverse(qrows, x) for x in range(m)]
        assert 0 not in q.generator_indices
        assert len(set(q.generator_indices)) == len(q.generator_indices)
        assert bf.generated(qrows, q.generator_indices) == frozenset(range(m))
        assert [frozenset(c.carrier) for c in conjugacy_classes(q)] == bf.all_classes(qrows)


def test_quotient_monotonicity_peaks_within_one_and_a_half_tables():
    g = GroupSpec.parse("es:3^2").build()  # fresh, with cold caches
    table_bytes = g.np_table().nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_statement(g, "quotient-monotonicity")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 73205
    assert peak <= 1.5 * table_bytes, f"peak {peak} B over a table of {table_bytes} B"
