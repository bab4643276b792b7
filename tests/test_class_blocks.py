"""Class data built a block of classes at a time, against per-row references
and the naive oracles.

Kernel rows are built a block at a time and must equal the one-row formula
kept below; the class equations are checked in growing blocks and must give
the classes of tests/bruteforce.py. Every group here has more classes than
one block holds, with generators, as a copy of its table alone (no
generators, so the orbits join one generator at a time), and as a quotient.
"""

import random

import numpy as np
import pytest

import bruteforce as bf
from classprod import ElementSet, build_group, cayley_rows, classalg, verify
from classprod.classalg import (
    _BLOCK_CELLS,
    _class_data,
    _orbit_classes,
    center,
    class_eta_matrix,
    class_product,
    class_support_row,
    commutator_set,
    commutator_set_ids,
    is_subgroup,
)
from classprod.group import Element, FiniteGroup
from test_report_builder import fresh, square_meets_center


def table_copy(g):
    """g from a copy of its table alone: no generators, no factors."""
    return FiniteGroup(g.np_table().copy(), f"table:{g.group_id}")


def central_quotient(g):
    """G/<z> for the least central involution z, taken of a copy of g with
    its generators and no names: a quotient names its cosets from g's names."""
    g = FiniteGroup(g.np_table().copy(), g.group_id, generator_indices=g.generator_indices)
    z = next(x for x in center(g) if x and g.mul(x, x) == 0)
    return classalg.quotient(g, ElementSet.from_indices(g, [0, z])).quotient


def variant(spec, kind):
    g = build_group(spec)
    return {"built": lambda: g, "table": lambda: table_copy(g), "quotient": lambda: central_quotient(g)}[kind]()


def one_row_keys(g, i):
    """Kernel row i by the one-row formula: sorted distinct keys j*k + l over
    the pairs (class of y, class of r_i*y), and the count of keys per j."""
    data = _class_data(g)
    cid, k = data.class_id, len(data.reps)
    keys = np.sort(cid * k + cid[g.np_table()[data.reps[i]]])
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys, np.bincount(keys // k, minlength=k)


def rows_per_block(g):
    return max(1, _BLOCK_CELLS // g.order)


@pytest.mark.parametrize("kind", ["built", "table", "quotient"])
@pytest.mark.parametrize("spec", ["prod(cyclic:64,cyclic:32)", "dihedral:2048"])
def test_kernel_blocks_match_the_one_row_formula(spec, kind):
    g = variant(spec, kind)
    k = len(_class_data(g).reps)
    assert k > rows_per_block(g), (k, rows_per_block(g))
    expected = np.zeros((k, k), dtype=np.int64)
    # rows asked for out of order, so blocks are built from their middles too
    for i in random.Random(spec).sample(range(k), k):
        keys, expected[i] = one_row_keys(g, i)
        got = class_support_row(g, i)
        assert got.dtype == np.int32 and np.array_equal(got, keys), i
    assert np.array_equal(class_eta_matrix(g), expected)


ORACLE_GROUPS = {
    f"{spec}-{kind}": (spec, kind)
    for spec, kinds in (("dihedral:256", ("built", "table", "quotient")),
                        ("prod(cyclic:16,cyclic:16)", ("built", "table")))
    for kind in kinds
}


@pytest.fixture(scope="module", params=list(ORACLE_GROUPS))
def oracle_group(request):
    spec, kind = ORACLE_GROUPS[request.param]
    g = variant(spec, kind)
    return g, cayley_rows(g)


def test_orbit_classes_match_the_oracle(oracle_group):
    g, rows = oracle_group
    class_id, reps, sizes = _orbit_classes(g)
    oracle = sorted(bf.all_classes(rows), key=min)
    assert len(oracle) > rows_per_block(g)
    assert reps.tolist() == [min(c) for c in oracle]
    assert sizes.tolist() == [len(c) for c in oracle]
    assert all(class_id[x] == i for i, c in enumerate(oracle) for x in c)


def test_kernel_blocks_match_the_oracle(oracle_group):
    g, rows = oracle_group
    data = _class_data(g)
    k = len(data.reps)
    classes = [set(data.order[s : s + c].tolist()) for s, c in zip(data.starts, data.sizes)]
    eta = class_eta_matrix(g)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    for i, j in random.Random(g.order).sample(pairs, 40):
        expected = bf.set_product(rows, classes[i], classes[j])
        a, b = Element(g, int(data.reps[i])), Element(g, int(data.reps[j]))
        assert frozenset(class_product(a, b)) == expected, (i, j)
        assert eta[i, j] == sum(1 for c in classes if c & expected), (i, j)
    i, j = max(pairs, key=lambda p: data.sizes[p[0]] * data.sizes[p[1]])
    assert eta[i, j] == bf.eta(rows, bf.set_product(rows, classes[i], classes[j]))


# -- the two checkers that read class arrays ---------------------------------


@pytest.mark.parametrize("spec", ["es:3^2", "sym:4", "prod(sym:3,cyclic:3)", "q8"])
def test_a_fault_on_one_commutator_set_reports_every_c_with_it(spec, monkeypatch):
    g = fresh(spec)
    ids, holders = commutator_set_ids(g)
    sets = {commutator_set(Element(g, x)).mask for x in holders}
    closed = [m for m in sorted(sets) if is_subgroup(ElementSet(g, m))]
    assert closed
    subgroups = sum(is_subgroup(commutator_set(Element(g, c))) for c in range(g.order))
    normal = verify.is_normal
    for target in closed:
        monkeypatch.setattr(verify, "is_normal", lambda s, t=target: s.mask != t and normal(s))
        report = verify.run_statement(g, "subgroup-implies-normal")
        expected = [c for c in range(g.order) if commutator_set(Element(g, c)).mask == target]
        assert report.verdict == "fails" and report.pairs_checked == g.order
        assert report.notes[0] == f"{subgroups} of {g.order} commutator sets are subgroups"
        assert [w["c"] for w in report.witnesses] == expected[: verify._WITNESS_CAP]
        assert all(w["comm_set"] == list(ElementSet(g, target)) for w in report.witnesses)
        if len(expected) > verify._WITNESS_CAP:
            assert report.notes[-1] == f"witness list truncated to 40 of {len(expected)}"


def one_pair_center_report(g):
    reps = [Element(g, int(r)) for r in _class_data(g).reps]
    return verify._merge("center-intersection", g, [verify.check_center_intersection(g, a) for a in reps])


@pytest.mark.parametrize("fault", ["clean", "square-meets-center"])
@pytest.mark.parametrize("spec", ["es:3", "es:3^2", "prod(es:3,cyclic:5)", "es:7", "cyclic:9"])
def test_center_intersection_matches_the_one_pair_merge(spec, fault, monkeypatch):
    if fault != "clean":
        monkeypatch.setattr(classalg, "_kernel_row", square_meets_center)
    got = verify.run_statement(fresh(spec), "center-intersection")
    assert got.to_dict() == one_pair_center_report(fresh(spec)).to_dict()
    assert got.verdict == ("holds" if fault == "clean" or spec == "cyclic:9" else "fails")
