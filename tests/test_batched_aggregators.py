"""The batched quotient-monotonicity and product-formula aggregators against
the merge of their public one-pair checks.

Each group's report must equal, field for field, the merge of one-pair
reports over the same kernels and pairs in the same order: for
quotient-monotonicity the reference below, built from eta_of_product and
the class carriers, and check_quotient_eta itself; for product-formula
check_product_formula. A planted fault
(eta raised by one in every quotient group, or one element dropped from
every gathered right side of the product formula) makes the checks fail on
many pairs, so the witness order, the 40-witness cap and the note order are
compared too.
"""

import numpy as np
import pytest

from classprod import ElementSet, build_group, conjugacy_classes
from classprod import classalg, verify
from classprod.group import Element

SPECS = ("sym:3", "sym:4", "q8", "dihedral:6", "es:3", "alt:5", "prod(sym:3,cyclic:3)")


def quotient_eta_pair(group, qm, a, b):
    """One pair through one quotient map, by the one-pair public operations."""
    eta_parent = classalg.eta_of_product(a, b)
    qa, qb = qm.project(a), qm.project(b)
    eta_quot = classalg.eta_of_product(qa, qb)
    witnesses, clauses = [], {}
    if eta_quot > eta_parent:
        witnesses.append({"a": a.index, "b": b.index, "kernel": list(qm.kernel),
                          "eta_parent": eta_parent, "eta_quotient": eta_quot})
    if classalg.conjugacy_class(qa).carrier.isdisjoint(classalg.conjugacy_class(qb).carrier):
        if classalg.conjugacy_class(a).carrier.isdisjoint(classalg.conjugacy_class(b).carrier):
            clauses["disjointness"] = "holds"
        else:
            clauses["disjointness"] = "fails"
            witnesses.append({"a": a.index, "b": b.index, "kernel": list(qm.kernel),
                              "clause": "disjointness"})
    notes = [] if classalg.is_prime_power(group.order) else [
        "group order is not a prime power; the inequality is checked without that hypothesis"
    ]
    return verify.VerifierReport(
        statement_id="quotient-monotonicity", group_id=group.group_id, hypotheses_met=True,
        pairs_checked=1, verdict="fails" if witnesses else "holds", witnesses=witnesses,
        clause_verdicts=clauses, notes=notes,
    )


def one_pair_quotient_report(group):
    n = group.order
    if n <= 27:
        kernels = list(classalg.normal_subgroups(group))
        pairs = [(Element(group, i), Element(group, j)) for i in range(n) for j in range(n)]
        strategy = "all normal subgroups, all ordered element pairs"
    else:
        kernels = [ElementSet(group, 1)] + classalg.minimal_normal_subgroups(group)
        reps = [c.representative for c in conjugacy_classes(group)]
        pairs = [(a, b) for a in reps for b in reps]
        strategy = "minimal normal subgroups, class representatives only"
    quotients = [classalg.quotient(group, k) for k in kernels]
    parts = [quotient_eta_pair(group, qm, a, b) for qm in quotients for a, b in pairs]
    return verify._merge("quotient-monotonicity", group, parts, notes=[f"kernel strategy: {strategy}"])


def one_pair_product_report(group):
    pairs, strategy = verify._product_formula_pairs(group)
    parts = [verify.check_product_formula(group, a, b) for a, b in pairs]
    return verify._merge("product-formula", group, parts, notes=[strategy])


def fresh(spec):
    """A new copy of the group, so a planted fault cannot leak through caches."""
    g = build_group(spec)
    return type(g)(g.np_table().copy(), g.group_id, element_names=g.element_names)


@pytest.fixture
def quotient_eta_raised(monkeypatch):
    build_row = classalg._kernel_row
    raised = {}  # holds every raised kernel, so no id is reused

    def faulty(group, i):
        kernel = build_row(group, i)
        if "/N" in group.group_id and (id(kernel), i) not in raised:
            raised[(id(kernel), i)] = kernel
            kernel.eta[i] += 1
        return kernel

    monkeypatch.setattr(classalg, "_kernel_row", faulty)


@pytest.fixture
def product_drops_an_element(monkeypatch):
    gather = verify._product_formula_rhs

    def faulty(group, a, b):
        owner, rhs = gather(group, a, b)
        first = np.searchsorted(owner, np.arange(len(b)))  # each pair's first row
        least = np.minimum.reduceat(rhs.min(axis=1), first)[owner][:, None]
        most = np.maximum.reduceat(rhs.max(axis=1), first)[owner][:, None]
        return owner, np.where(rhs == least, most, rhs)  # no change to a one-element set

    monkeypatch.setattr(verify, "_product_formula_rhs", faulty)


@pytest.mark.parametrize("spec", SPECS)
def test_quotient_monotonicity_matches_one_pair_merge(spec):
    batched = verify.run_statement(fresh(spec), "quotient-monotonicity")
    assert batched.verdict == "holds"
    assert batched.to_dict() == one_pair_quotient_report(fresh(spec)).to_dict()


@pytest.mark.parametrize("spec", SPECS)
def test_quotient_monotonicity_fault_matches_one_pair_merge(spec, quotient_eta_raised):
    batched = verify.run_statement(fresh(spec), "quotient-monotonicity")
    assert batched.verdict == "fails"
    assert batched.to_dict() == one_pair_quotient_report(fresh(spec)).to_dict()


@pytest.mark.parametrize("spec", SPECS)
def test_product_formula_matches_one_pair_merge(spec):
    batched = verify.run_statement(fresh(spec), "product-formula")
    assert batched.verdict == "holds"
    assert batched.to_dict() == one_pair_product_report(fresh(spec)).to_dict()


@pytest.mark.parametrize("spec", ["sym:4", "es:3", "prod(sym:3,cyclic:3)"])
def test_product_formula_fault_matches_one_pair_merge(spec, product_drops_an_element):
    batched = verify.run_statement(fresh(spec), "product-formula")
    assert batched.verdict == "fails" and len(batched.witnesses) == 40
    assert batched.to_dict() == one_pair_product_report(fresh(spec)).to_dict()


@pytest.mark.parametrize("spec", ["sym:4", "es:3"])
def test_check_quotient_eta_matches_the_reference(spec):
    g = build_group(spec)
    for k in classalg.normal_subgroups(g):
        qm = classalg.quotient(g, k)
        for a in range(0, g.order, 3):
            for b in range(g.order):
                x, y = Element(g, a), Element(g, b)
                expected = quotient_eta_pair(g, qm, x, y).to_dict()
                assert verify.check_quotient_eta(g, k, x, y).to_dict() == expected


def test_check_quotient_eta_rejects_foreign_elements():
    g, h = build_group("sym:3"), build_group("cyclic:6")
    for a, b in ((Element(h, 1), Element(g, 1)), (Element(g, 1), Element(h, 1))):
        with pytest.raises(classalg.GroupMismatch):
            verify.check_quotient_eta(g, ElementSet(g, 1), a, b)
