"""The shared report builder against the merge of one-pair reports.

Five statements are checked pair by pair. For each of them, run_statement
must equal, field for field, verify._merge over the public one-pair checker
on the same pairs in the same order. Planted faults make the checks fail on
many pairs, so the witness interleaving, the clause fold and the 40-witness
cap are compared too. The whole-group checkers must cap their witnesses
the same way.
"""

import numpy as np
import pytest

from classprod import ElementSet, build_group, conjugacy_classes, direct_product
from classprod import classalg, verify
from classprod.group import max_order_cap

SPECS = ("sym:3", "sym:4", "q8", "dihedral:6", "es:3", "alt:5", "prod(sym:3,cyclic:3)", "es:5")


def fresh(spec):
    """A new copy of the group, so a planted fault cannot leak through caches."""
    g = build_group(spec)
    return type(g)(g.np_table().copy(), g.group_id, element_names=g.element_names)


def class_size(x):
    return verify.conjugacy_class(x).size


def two_power(size):
    return size > 1 and size & (size - 1) == 0


def one_pair_reference(group, sid):
    """The merge of public one-pair reports, or None where the statement's
    hypothesis on the group makes the aggregate vacuous.
    """
    pairs = verify.equal_centralizer_pairs(group)
    if sid == "theorem-a":
        parts = [verify.check_theorem_a(group, a, b) for a, b in pairs]
        return verify._merge(sid, group, parts)
    if sid == "center-intersection":
        if group.order % 2 == 0:
            return None
        reps = [c.representative for c in conjugacy_classes(group)]
        return verify._merge(sid, group, [verify.check_center_intersection(group, a) for a in reps])
    if sid == "size2-classes":
        parts = [verify.check_size2(group, a, b) for a, b in pairs if class_size(a) == 2]
        return verify._merge(sid, group, parts)
    if sid == "supersolvable-two-power":
        if not verify.is_supersolvable(group):
            return None
        parts = [
            verify.check_supersolvable_pow2(group, a, b) for a, b in pairs if two_power(class_size(a))
        ]
        return verify._merge(sid, group, parts)
    assert sid == "direct-product-eta"
    if group.order ** 2 > max_order_cap():
        return None
    reps = [
        c.representative
        for c in conjugacy_classes(group)
        if verify.eta_of_product(c.representative, c.representative) == 1
    ]
    if not reps:
        return verify._vacuous(sid, group, "no class with a homogeneous square", True)
    prod = direct_product(group, group)
    parts = [
        verify.check_direct_product_eta(group, a, group, b, product_group=prod)
        for a in reps
        for b in reps
    ]
    return verify._merge(sid, group, parts, notes=["second factor is the group itself"])


PAIRWISE = (
    "theorem-a",
    "center-intersection",
    "size2-classes",
    "supersolvable-two-power",
    "direct-product-eta",
)


def outcome(make_report):
    """The report as a dict, or the exception it raised as (type, message)."""
    try:
        report = make_report()
    except Exception as exc:  # a planted fault may trip a check inside either side
        return type(exc).__name__, str(exc)
    return None if report is None else report.to_dict()


def drop_least(product):
    def faulty(x, y):
        full = product(x, y)
        return ElementSet(full.group, full.mask & (full.mask - 1)) if len(full) > 1 else full

    return faulty


def square_meets_center(group, i, build_row=classalg._kernel_row):
    """Kernel row i with every one-element class added to C_i C_i where it is
    missing: their keys i*k + l join the row and eta[i, i] counts them."""
    kernel = build_row(group, i)
    keys = kernel.keys[i]
    central = np.flatnonzero(classalg._class_data(group).sizes == 1) + i * len(kernel.keys)
    missing = central[~np.isin(central, keys)]
    if len(missing):
        kernel.keys[i] = np.sort(np.concatenate((keys, missing))).astype(np.int32)
        kernel.eta[i, i] += len(missing)
    return kernel


FAULTS = {
    "clean": {},
    "is-normal-false": {"is_normal": lambda s: False},
    # theorem-a reads its left side from the eta matrix and center-intersection
    # its squares from the kernel rows, so this fault reaches size2-classes only
    "class-product-drops-one": {"class_product": drop_least(verify.class_product)},
    "eta-lowered": {"eta_of_product": lambda a, b, eta=verify.eta_of_product: eta(a, b) - 1},
    # in the kernel itself, which both sides of every statement here read
    "square-meets-center": {"_kernel_row": square_meets_center},
}
# the statements whose aggregate a fault does not reach, while the one-pair
# checker, which keeps its own path, does
MISSES = {"class-product-drops-one": ("center-intersection",)}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("spec", SPECS)
def test_pairwise_statements_match_the_one_pair_merge(spec, fault, monkeypatch):
    unreached = {sid: outcome(lambda: verify.run_statement(fresh(spec), sid)) for sid in MISSES.get(fault, ())}
    for name, planted in FAULTS[fault].items():
        if hasattr(verify, name):
            monkeypatch.setattr(verify, name, planted)
        if name in ("is_normal", "_kernel_row"):  # theorem A's criterion and the kernel read classalg's
            monkeypatch.setattr(classalg, name, planted)
    for sid in PAIRWISE:
        got = outcome(lambda: verify.run_statement(fresh(spec), sid))
        if sid in unreached:
            assert got == unreached[sid], sid
            continue
        expected = outcome(lambda: one_pair_reference(fresh(spec), sid))
        if expected is None:
            assert got["verdict"] == "vacuous" and not got["hypotheses_met"], sid
        else:
            assert got == expected, sid
        if isinstance(got, dict):
            assert len(got["witnesses"]) <= verify._WITNESS_CAP


@pytest.mark.parametrize("spec", ["es:3", "es:5"])
def test_theorem_a_fault_runs_past_the_cap(spec, monkeypatch):
    monkeypatch.setattr(classalg, "is_normal", lambda s: False)  # reaches the criterion, not the eta side
    report = verify.run_statement(fresh(spec), "theorem-a")
    assert report.verdict == "fails" and len(report.witnesses) == 40
    assert report.notes[-1].startswith("witness list truncated to 40 of ")


def test_subgroup_implies_normal_witnesses_are_capped(monkeypatch):
    monkeypatch.setattr(verify, "is_normal", lambda s: False)
    report = verify.run_statement(fresh("es:3^2"), "subgroup-implies-normal")
    assert report.verdict == "fails"
    assert len(report.witnesses) == 40
    assert [w["c"] for w in report.witnesses] == list(range(40))
    assert report.notes[-1] == "witness list truncated to 40 of 729"


def test_nilpotent_odd_size_witnesses_are_capped(monkeypatch):
    monkeypatch.setattr(verify, "eta_of_product", lambda a, b: 1)
    report = verify.run_statement(fresh("prod(dihedral:4,dihedral:4,dihedral:4)"), "nilpotent-odd-size")
    assert report.verdict == "fails" and report.pairs_checked == 125
    assert len(report.witnesses) == 40
    assert report.notes == ["witness list truncated to 40 of 117"]


def test_theorem_b_keeps_every_witness_under_the_cap(monkeypatch):
    monkeypatch.setattr(verify, "eta_of_product", lambda a, b: 1)
    report = verify.run_statement(fresh("alt:6"), "theorem-b")
    assert report.verdict == "fails" and report.pairs_checked == 28
    assert len(report.witnesses) == 27 and report.notes == []


def test_direct_product_one_pair_report_names_the_product():
    g = build_group("sym:3")
    a = conjugacy_classes(g)[0].representative
    one = verify.check_direct_product_eta(g, a, g, a)
    assert one.group_id == direct_product(g, g).group_id != g.group_id
    assert verify.run_statement(g, "direct-product-eta").group_id == g.group_id

