"""Executable checkers for the statements about homogeneous class products.

Every checker computes both sides of its claim through independent code
paths: class products and their eta come from the class-support kernel,
commutator-set products from table gathers, membership conditions from
commutator sets and is_normal, never deriving one side from the other.
A checker never adjudicates; it reports holds, fails, vacuous, or
discrepancy (a sub-clause disagreeing while the main claim stands) together
with witnesses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .classalg import (
    ElementSet,
    center,
    centralizer,
    class_eta_matrix,
    class_id_array,
    class_product,
    class_support_row,
    commutator_set,
    commutator_set_ids,
    conjugacy_class,
    decompose,
    equal_centralizer_arrays,
    eta_of_product,
    is_nilpotent,
    is_normal,
    is_prime_power,
    is_simple_nonabelian,
    is_subgroup,
    is_supersolvable,
    normal_subgroups,
    minimal_normal_subgroups,
    _class_data,
    _commutes_with,
    _inverse_array,
    _is_two_power,
    _quotient_classes,
    _theorem_a_criterion,
)
from .constructions import direct_product
from .errors import GroupMismatch, HypothesisViolated
from .group import Element, FiniteGroup, max_order_cap

_VERDICTS = ("holds", "fails", "vacuous", "discrepancy")
_SEVERITY = {"vacuous": 0, "holds": 1, "discrepancy": 2, "fails": 3}
_WITNESS_CAP = 40


@dataclass
class VerifierReport:
    """Outcome of one statement checked on one group (or one pair)."""

    statement_id: str
    group_id: str
    hypotheses_met: bool
    pairs_checked: int
    verdict: str
    witnesses: List[dict] = field(default_factory=list)
    clause_verdicts: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict in ("fails", "discrepancy") and not self.witnesses:
            raise ValueError(f"verdict {self.verdict!r} requires at least one witness")
        if self.pairs_checked == 0 and self.verdict != "vacuous":
            raise ValueError("zero pairs checked must be reported as vacuous")

    @property
    def ok(self) -> bool:
        return self.verdict in ("holds", "vacuous")

    def to_dict(self) -> dict:
        return {
            "statement_id": self.statement_id,
            "group_id": self.group_id,
            "verdict": self.verdict,
            "hypotheses_met": self.hypotheses_met,
            "pairs_checked": self.pairs_checked,
            "witnesses": self.witnesses,
            "clause_verdicts": self.clause_verdicts,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerifierReport":
        return cls(
            statement_id=data["statement_id"],
            group_id=data["group_id"],
            hypotheses_met=data["hypotheses_met"],
            pairs_checked=data["pairs_checked"],
            verdict=data["verdict"],
            witnesses=list(data.get("witnesses", [])),
            clause_verdicts=dict(data.get("clause_verdicts", {})),
            notes=list(data.get("notes", [])),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))


def _vacuous(statement_id: str, group: FiniteGroup, note: str, hypotheses_met: bool = False) -> VerifierReport:
    return VerifierReport(
        statement_id=statement_id,
        group_id=group.group_id,
        hypotheses_met=hypotheses_met,
        pairs_checked=0,
        verdict="vacuous",
        notes=[note],
    )


# The checkers do not call _merge; tests fold one-pair reports with it as the
# reference that each aggregate report must equal.
def _merge(statement_id: str, group: FiniteGroup, parts: Sequence[VerifierReport],
           notes: Iterable[str] = ()) -> VerifierReport:
    if not parts:
        return _vacuous(statement_id, group, "no qualifying pairs", hypotheses_met=True)
    verdict = max((p.verdict for p in parts), key=_SEVERITY.__getitem__)
    witnesses: List[dict] = []
    for p in parts:
        witnesses.extend(p.witnesses)
    total = len(witnesses)
    merged_notes = list(dict.fromkeys(n for p in parts for n in p.notes))
    for n in notes:
        if n not in merged_notes:
            merged_notes.append(n)
    if total > _WITNESS_CAP:
        witnesses = witnesses[:_WITNESS_CAP]
        merged_notes.append(f"witness list truncated to {_WITNESS_CAP} of {total}")
    clauses: Dict[str, str] = {}
    for p in parts:
        for name, v in p.clause_verdicts.items():
            if name not in clauses or _SEVERITY[v] > _SEVERITY[clauses[name]]:
                clauses[name] = v
    return VerifierReport(
        statement_id=statement_id,
        group_id=group.group_id,
        hypotheses_met=True,
        pairs_checked=sum(p.pairs_checked for p in parts),
        verdict=verdict,
        witnesses=witnesses,
        clause_verdicts=clauses,
        notes=merged_notes,
    )


class _Tally:
    """One statement's outcome over a run of pairs, built into one report.

    Witnesses are kept in the order the pairs add them; fail() marks the
    main claim failed, clause() folds a sub-clause verdict in by severity.
    """

    def __init__(self, checked: int = 0) -> None:
        self.checked = checked
        self.verdict = "holds"
        self.witnesses: List[dict] = []
        self.clauses: Dict[str, str] = {}

    def fail(self, witness: dict) -> None:
        self.verdict = "fails"
        self.witnesses.append(witness)

    def clause(self, name: str, verdict: str, witness: Optional[dict] = None) -> None:
        if name not in self.clauses or _SEVERITY[verdict] > _SEVERITY[self.clauses[name]]:
            self.clauses[name] = verdict
        if _SEVERITY[verdict] > _SEVERITY[self.verdict]:
            self.verdict = verdict
        if witness is not None:
            self.witnesses.append(witness)

    def report(self, statement_id: str, group: FiniteGroup,
               notes: Iterable[str] = ()) -> VerifierReport:
        """The single report: notes deduplicated in order, witnesses capped."""
        if not self.checked:
            return _vacuous(statement_id, group, "no qualifying pairs", hypotheses_met=True)
        notes = list(dict.fromkeys(notes))
        witnesses, total = self.witnesses, len(self.witnesses)
        if total > _WITNESS_CAP:
            witnesses = witnesses[:_WITNESS_CAP]
            notes.append(f"witness list truncated to {_WITNESS_CAP} of {total}")
        return VerifierReport(
            statement_id=statement_id,
            group_id=group.group_id,
            hypotheses_met=True,
            pairs_checked=self.checked,
            verdict=self.verdict,
            witnesses=witnesses,
            clause_verdicts=self.clauses,
            notes=notes,
        )


def _run(statement_id: str, group: FiniteGroup, check: Callable[..., None],
         pairs: Iterable[tuple], notes: Iterable[str] = ()) -> VerifierReport:
    """One report over check(tally, *pair) for every pair, in order."""
    out = _Tally()
    for pair in pairs:
        out.checked += 1
        check(out, *pair)
    return out.report(statement_id, group, notes)


def _replay(statement_id: str, group: FiniteGroup, pair: Callable[..., None],
            flagged: np.ndarray, holding: np.ndarray, columns: Sequence[np.ndarray],
            notes: Iterable[str] = ()) -> VerifierReport:
    """One report over pairs whose verdicts were computed in arrays.

    pair(tally, group, *row) only builds witnesses and clauses. It runs, in
    pair order, on the flagged pairs and on the first pair where the
    statement's clause holds; every other pair would add nothing.
    """
    out = _Tally(len(flagged))
    replayed = np.array(flagged, dtype=bool)
    replayed[np.flatnonzero(holding)[:1]] = True
    at = np.flatnonzero(replayed)
    for row in zip(*(column[at].tolist() for column in columns)):
        pair(out, group, *row)
    return out.report(statement_id, group, notes)


def _require_in(group: FiniteGroup, *elements: Element) -> None:
    for x in elements:
        if x.group is not group:
            raise GroupMismatch(f"element of {x.group_id!r} checked in {group.group_id!r}")


def _pair_arrays(group: FiniteGroup, a: Element, b: Element) -> Tuple[np.ndarray, np.ndarray]:
    """One pair as the pair arrays of the batched checkers."""
    _require_in(group, a, b)
    return np.array([a.index]), np.array([b.index])


def _require_equal_centralizers(statement_id: str, a: Element, b: Element) -> None:
    if centralizer(a) != centralizer(b):
        raise HypothesisViolated(
            f"{statement_id}: centralizers of {a.name} and {b.name} differ in {a.group_id}"
        )


def _elements(group: FiniteGroup, a: np.ndarray, b: np.ndarray) -> List[Tuple[Element, Element]]:
    return [(Element(group, x), Element(group, y)) for x, y in zip(a.tolist(), b.tolist())]


def equal_centralizer_pairs(group: FiniteGroup) -> List[Tuple[Element, Element]]:
    """All (class representative a, element b) with C(a) = C(b) as sets, as
    elements; equal_centralizer_arrays gives the same pairs as arrays."""
    return _elements(group, *equal_centralizer_arrays(group))


# -- checkers: a public hypothesis gate over one pair, and the pair itself --


def check_theorem_a(group: FiniteGroup, a: Element, b: Element) -> VerifierReport:
    """Homogeneity of a^G b^G against the commutator-set criterion.

    Main claim, for C(a) = C(b): a^G b^G is a single class if and only if
    [a,G] = [b,G] = [ab,G] and [ab,G] is a normal subgroup. For b = a the
    shortcut clause ("a^G a^G = (a^2)^G iff [a,G] is normal") is tracked
    separately as clause in-particular; it can disagree with the main claim,
    which is reported as a discrepancy, not a failure.
    """
    pair = _pair_arrays(group, a, b)
    _require_equal_centralizers("theorem-a", a, b)
    return _theorem_a_report(group, *pair)


def _theorem_a_sides(group: FiniteGroup, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Both sides of theorem A for every pair (a[p], b[p]), as arrays: single,
    a^G b^G is one class, from the kernel's eta alone; then _theorem_a_criterion."""
    cid = class_id_array(group)
    return (class_eta_matrix(group)[cid[a], cid[b]] == 1, *_theorem_a_criterion(group, a, b))


def _theorem_a_report(group: FiniteGroup, a: np.ndarray, b: np.ndarray) -> VerifierReport:
    single, match, normal_ab, normal_a = _theorem_a_sides(group, a, b)
    diagonal = a == b
    return _replay(
        "theorem-a", group, _theorem_a_pair,
        (single != (match & normal_ab)) | (diagonal & (single != normal_a)),
        diagonal & (single == normal_a),
        (a, b, single, match, normal_ab, normal_a),
    )


def _theorem_a_pair(out: _Tally, group: FiniteGroup, a: int, b: int, single: bool,
                    match: bool, normal_ab: bool, normal_a: bool) -> None:
    x, y = Element(group, a), Element(group, b)
    if single != (match and normal_ab):
        out.fail(
            {
                "a": a,
                "b": b,
                "a_name": x.name,
                "b_name": y.name,
                "single_class": single,
                "comm_sets_match": match,
                "comm_set_ab_is_normal": normal_ab,
                "eta": eta_of_product(x, y),
            }
        )
    if a == b:
        if single == normal_a:
            out.clause("in-particular", "holds")
        else:
            out.clause(
                "in-particular",
                "discrepancy",
                {
                    "a": a,
                    "a_name": x.name,
                    "clause": "in-particular",
                    "comm_set": list(commutator_set(x)),
                    "comm_set_is_normal": normal_a,
                    "single_class": single,
                    "eta": eta_of_product(x, x),
                },
            )


def check_theorem_b(group: FiniteGroup) -> VerifierReport:
    """In a nonabelian simple group the only homogeneous product is 1*1."""
    if not is_simple_nonabelian(group):
        raise HypothesisViolated(f"theorem-b: {group.group_id} is not nonabelian simple")
    pairs = equal_centralizer_pairs(group)
    out = _Tally(len(pairs))
    identity_pair_seen = False
    for a, b in pairs:
        if eta_of_product(a, b) != 1:
            continue
        if a.index == 0 and b.index == 0:
            identity_pair_seen = True
        else:
            out.fail({"a": a.index, "b": b.index, "a_name": a.name, "b_name": b.name, "eta": 1})
    if not identity_pair_seen and not out.witnesses:
        out.fail({"a": 0, "b": 0, "note": "identity pair missing"})
    return out.report("theorem-b", group)


_PRODUCT_FORMULA_NOTE = "identity checked: a^G b^G = ab.[a^b,G].[b,G] with a^b = b^-1 a b"


def check_product_formula(group: FiniteGroup, a: Element, b: Element) -> VerifierReport:
    """Factorization of a class product through two commutator sets.

    When a and b commute the conjugate collapses and the same identity reads
    a^G b^G = ab.[a,G].[b,G]; that case is recorded under clause
    commuting-case.
    """
    return _product_formula_report(group, *_pair_arrays(group, a, b), [_PRODUCT_FORMULA_NOTE])


def _product_formula_rhs(group: FiniteGroup, a: int,
                         b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The right sides ab.[a^b,G].[b,G] for one a and every b[p], by table gathers.

    [x,G] = x^-1 x^G, and a^b lies in the class C_i of a. Row r of the
    returned block is (ab.[a^b,G]) times one member of [b,G], for the pair
    owner[r]; the rows of pair p are the members of [b[p],G] in turn.
    """
    t, inv, cid = group.np_table(), _inverse_array(group), class_id_array(group)
    n, flat = group.order, t.ravel()  # x*y is flat[x*n + y], in int32 as n*n - 1 < 2**31
    _, _, order, starts, sizes = _class_data(group)
    i, j = cid[a], cid[b]
    a_b = t[t[inv[b], a], b]
    c_i = order[starts[i] : starts[i] + sizes[i]].astype(np.int32)
    commutators = flat.take(inv[a_b].astype(np.int32)[:, None] * n + c_i)  # [a^b,G] for each pair
    left = flat.take(t[a, b].astype(np.int32)[:, None] * n + commutators)
    wide = len(b) * n >= 2**31  # the keys owner*n + element need 64 bits
    owner = np.repeat(np.arange(len(b), dtype=np.int64 if wide else np.int32), sizes[j])
    ends = np.cumsum(sizes[j])
    members = order[np.repeat(starts[j] - ends + sizes[j], sizes[j]) + np.arange(len(owner))]
    return owner, flat.take(left[owner].astype(np.int32) * n + t[inv[b][owner], members][:, None])


def _product_formula_holds(group: FiniteGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether a^G b^G = ab.[a^b,G].[b,G], for every pair, one run of equal a at a time.

    The left side is only the kernel's support row of C_i C_j. A pair holds
    when every class its right side meets is in that support and its
    distinct elements number the summed sizes of those classes, so that the
    classes it meets are the support, each whole.
    """
    n, cid = group.order, class_id_array(group)
    sizes = _class_data(group).sizes
    k = len(sizes)
    holds = np.empty(len(a), dtype=bool)
    bounds = [0, *(np.flatnonzero(a[1:] != a[:-1]) + 1).tolist(), len(a)]
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        owner, rhs = _product_formula_rhs(group, int(a[r0]), b[r0:r1])
        keys = np.sort((owner[:, None] * n + rhs).ravel())
        pair, x = np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], n)
        j = cid[b[r0:r1]]
        support = class_support_row(group, cid[a[r0]])
        met = j[pair] * k + cid[x]
        stray = support[np.minimum(support.searchsorted(met), len(support) - 1)] != met
        covered = np.bincount(support // k, weights=sizes[support % k], minlength=k)
        holds[r0:r1] = (np.bincount(pair, minlength=r1 - r0) == covered[j]) & (
            np.bincount(pair[stray], minlength=r1 - r0) == 0
        )
    return holds


def _product_formula_report(group: FiniteGroup, a: np.ndarray, b: np.ndarray,
                            notes: Sequence[str]) -> VerifierReport:
    t = group.np_table()
    holds = _product_formula_holds(group, a, b)
    commuting = t[a, b] == t[b, a]
    return _replay(
        "product-formula", group, _product_formula_pair, ~holds, commuting & holds,
        (a, b, holds, commuting), notes,
    )


def _product_formula_pair(out: _Tally, group: FiniteGroup, a: int, b: int, holds: bool,
                          commuting: bool) -> None:
    """The witnesses of one pair: the class product against the gathered right side."""
    if not holds:
        lhs = class_product(Element(group, a), Element(group, b))
        rhs = _product_formula_rhs(group, a, np.array([b]))[1]
        rhs = ElementSet.from_indices(group, set(rhs.ravel().tolist()))
        out.fail(
            {
                "a": a,
                "b": b,
                "a_name": group.name_of(a),
                "b_name": group.name_of(b),
                "lhs_size": len(lhs),
                "rhs_size": len(rhs),
                "only_lhs": list(lhs - rhs),
                "only_rhs": list(rhs - lhs),
            }
        )
    if commuting:  # then a^b = a and the right side is ab.[a,G].[b,G]
        if holds:
            out.clause("commuting-case", "holds")
        else:
            out.clause(
                "commuting-case",
                "fails",
                {
                    "a": a,
                    "b": b,
                    "clause": "commuting-case",
                    "lhs_size": len(lhs),
                    "rhs_size": len(rhs),
                },
            )


def check_subgroup_implies_normal(group: FiniteGroup) -> VerifierReport:
    """Every commutator set that is a subgroup must be a normal one.

    Each distinct set is decided once, and every c with that set, in index
    order, takes its verdict.
    """
    ids, holders = commutator_set_ids(group)
    sets = [commutator_set(Element(group, x)) for x in holders]
    closed = np.array([is_subgroup(s) for s in sets])
    abnormal = np.array([c and not is_normal(s) for c, s in zip(closed.tolist(), sets)])
    out = _Tally(group.order)
    for c in np.flatnonzero(abnormal[ids]).tolist():
        out.fail({"c": c, "c_name": group.name_of(c), "comm_set": list(sets[ids[c]])})
    closed_count = np.count_nonzero(closed[ids])
    return out.report(
        "subgroup-implies-normal", group, [f"{closed_count} of {group.order} commutator sets are subgroups"]
    )


def check_quotient_eta(group: FiniteGroup, n: ElementSet, a: Element, b: Element) -> VerifierReport:
    """Passing to a quotient never increases the class count of a product.

    Second clause: classes that become disjoint in the quotient were already
    disjoint upstairs. Raises NotNormal for a bad n, and GroupMismatch for
    an element of another group.
    """
    return _quotient_eta_report(group, [n], *_pair_arrays(group, a, b))


def _quotient_eta_report(group: FiniteGroup, kernels: Iterable[ElementSet],
                         a: np.ndarray, b: np.ndarray, notes: Iterable[str] = ()) -> VerifierReport:
    """check_quotient_eta for every kernel N and every pair (a[p], b[p]).

    The eta of each product upstairs and in each quotient is read from that
    group's own class-support kernel, the quotient's through the projection;
    the parent's support is never pushed forward, which would make the
    inequality hold by construction. Witnesses come quotient by quotient,
    pair by pair, the eta witness before the disjointness one.
    """
    cid = class_id_array(group).astype(np.int16)
    ca, cb = cid[a], cid[b]
    eta_parent = class_eta_matrix(group)[ca, cb]
    same_class = ca == cb
    out = _Tally()
    for n in kernels:
        out.checked += len(a)
        qcid, qeta = _quotient_classes(group, n)
        qa, qb = qcid[a], qcid[b]
        rises = qeta[qa, qb] > eta_parent
        disjoint = qa != qb
        split = disjoint & same_class  # disjoint downstairs but not upstairs
        if disjoint.any():
            out.clause("disjointness", "holds")
        kernel = list(n)
        for p in np.flatnonzero(rises | split).tolist():
            ai, bi = int(a[p]), int(b[p])
            if rises[p]:
                out.fail(
                    {
                        "a": ai,
                        "b": bi,
                        "kernel": kernel,
                        "eta_parent": int(eta_parent[p]),
                        "eta_quotient": int(qeta[qa[p], qb[p]]),
                    }
                )
            if split[p]:
                out.clause(
                    "disjointness", "fails", {"a": ai, "b": bi, "kernel": kernel, "clause": "disjointness"}
                )
    if not is_prime_power(group.order):
        notes = [
            "group order is not a prime power; the inequality is checked without that hypothesis",
            *notes,
        ]
    return out.report("quotient-monotonicity", group, notes)


def check_center_intersection(group: FiniteGroup, a: Element) -> VerifierReport:
    """In odd-order groups, a^G a^G meets the center only for central a.

    Rider: for |a^G| > 1 every class inside a^G a^G has size > 1. Both
    clauses fail in some even-order groups (q8 squares its order-4 classes
    straight into the center), hence the hard hypothesis.
    """
    _require_in(group, a)
    if group.order % 2 == 0:
        raise HypothesisViolated(
            f"center-intersection: {group.group_id} has even order {group.order}; "
            "the claim can fail there (q8 squares land in the center)"
        )
    return _run("center-intersection", group, _center_intersection_pair, [(group, a)])


def _center_intersection_pair(out: _Tally, group: FiniteGroup, a: Element) -> None:
    square = class_product(a, a)
    size = conjugacy_class(a).size
    meets_center = not center(group).isdisjoint(square)
    if meets_center != (size == 1):
        out.fail(
            {
                "a": a.index,
                "a_name": a.name,
                "class_size": size,
                "meets_center": meets_center,
            }
        )
    if size > 1:
        singletons = [c for c in decompose(square).classes if c.size == 1]
        if singletons:
            out.clause(
                "rider",
                "fails",
                {
                    "a": a.index,
                    "clause": "rider",
                    "singleton_members": [c.representative.index for c in singletons],
                },
            )
        else:
            out.clause("rider", "holds")


def check_size2(group: FiniteGroup, a: Element, b: Element) -> VerifierReport:
    """For C(a) = C(b) and |a^G| = 2 the product splits into exactly 2 classes.

    Also checks the four-element shape of the product:
    a^G b^G = {ab, ab.s, ab.t, ab.s.t} where [a,G] = {1, s}, [b,G] = {1, t}.
    """
    _require_in(group, a, b)
    _require_equal_centralizers("size2-classes", a, b)
    if conjugacy_class(a).size != 2:
        raise HypothesisViolated(
            f"size2-classes: |class({a.name})| = {conjugacy_class(a).size}, need 2"
        )
    return _run("size2-classes", group, _size2_pair, [(group, a, b)])


def _size2_pair(out: _Tally, group: FiniteGroup, a: Element, b: Element) -> None:
    product = class_product(a, b)
    e = decompose(product).eta
    s = [x for x in commutator_set(a) if x != 0]
    t = [x for x in commutator_set(b) if x != 0]
    if e != 2:
        out.fail({"a": a.index, "b": b.index, "eta": e})
    if len(s) == 1 and len(t) == 1:
        ab = (a * b).index
        mul = group.mul
        shape = ElementSet.from_indices(
            group, {ab, mul(ab, s[0]), mul(ab, t[0]), mul(ab, mul(s[0], t[0]))}
        )
        if shape == product:
            out.clause("product-shape", "holds")
        else:
            out.clause(
                "product-shape",
                "fails",
                {
                    "a": a.index,
                    "b": b.index,
                    "clause": "product-shape",
                    "shape": list(shape),
                    "product": list(product),
                },
            )


def check_supersolvable_pow2(group: FiniteGroup, a: Element, b: Element) -> VerifierReport:
    """Supersolvable groups admit no homogeneous product over a 2-power class."""
    _require_in(group, a, b)
    if not is_supersolvable(group):
        raise HypothesisViolated(f"supersolvable-two-power: {group.group_id} is not supersolvable")
    _require_equal_centralizers("supersolvable-two-power", a, b)
    if not _is_two_power(conjugacy_class(a).size):
        raise HypothesisViolated(
            f"supersolvable-two-power: |class({a.name})| = {conjugacy_class(a).size} "
            "is not a 2-power > 1"
        )
    return _run("supersolvable-two-power", group, _supersolvable_pow2_pair, [(a, b)])


def _supersolvable_pow2_pair(out: _Tally, a: Element, b: Element) -> None:
    e = eta_of_product(a, b)
    if e < 2:
        out.fail(
            {"a": a.index, "b": b.index, "a_name": a.name, "b_name": b.name,
             "class_size": conjugacy_class(a).size, "eta": e}
        )


def check_nilpotent_odd(group: FiniteGroup) -> VerifierReport:
    """In nilpotent groups a homogeneous class square forces odd class size."""
    if not is_nilpotent(group):
        raise HypothesisViolated(f"nilpotent-odd-size: {group.group_id} is not nilpotent")
    out = _Tally()
    data = _class_data(group)
    for r, size in zip(data.reps.tolist(), data.sizes.tolist()):
        out.checked += 1
        a = Element(group, r)
        if eta_of_product(a, a) == 1 and size % 2 == 0:
            out.fail({"a": r, "a_name": a.name, "class_size": size, "eta": 1})
    return out.report("nilpotent-odd-size", group)


def check_direct_product_eta(
    group: FiniteGroup,
    a: Element,
    k: FiniteGroup,
    b: Element,
    product_group: Optional[FiniteGroup] = None,
) -> VerifierReport:
    """Homogeneous squares stay homogeneous in a direct product.

    Conclusions checked on G x K: the class of (a, b) has size
    |a^G| * |b^K|, and its square is again one class. The product group can
    be passed in to amortize construction over many pairs; its factors must
    be those of group and k, the very same groups, or GroupMismatch.
    """
    _require_in(group, a)
    _require_in(k, b)
    factors = [id(f) for x in (group, k) for f in (x.factors or (x,))]
    if product_group is not None and [id(f) for f in product_group.factors] != factors:
        raise GroupMismatch(f"{product_group.group_id!r} is not {group.group_id!r} x {k.group_id!r}")
    if eta_of_product(a, a) != 1 or eta_of_product(b, b) != 1:
        raise HypothesisViolated(
            "direct-product-eta: both factors need a homogeneous class square"
        )
    prod = product_group if product_group is not None else direct_product(group, k)
    # the one-pair report names the product group; the aggregate names the factor
    return _run("direct-product-eta", prod, _direct_product_eta_pair, [(prod, a, k, b)])


def _class_size(a: Element) -> int:
    """|a^G|, read from the class record."""
    data = _class_data(a.group)
    return int(data.sizes[data.class_id[a.index]])


def _direct_product_eta_pair(out: _Tally, prod: FiniteGroup, a: Element, k: FiniteGroup,
                             b: Element) -> None:
    pair = Element(prod, a.index * k.order + b.index)
    # n / |C(pair)| from the product's own table: its class data comes from the factors
    size = prod.order // int(np.count_nonzero(_commutes_with(prod, pair.index)))
    expected = _class_size(a) * _class_size(b)
    e = eta_of_product(pair, pair)
    if size != expected or e != 1:
        out.fail(
            {
                "a": a.index,
                "b": b.index,
                "pair_index": pair.index,
                "pair_class_size": size,
                "expected_size": expected,
                "eta": e,
            }
        )


# -- per-group aggregation: the hypothesis gate, the pairs, one report -------


def _agg_theorem_a(group: FiniteGroup) -> VerifierReport:
    return _theorem_a_report(group, *equal_centralizer_arrays(group))


def _agg_theorem_b(group: FiniteGroup) -> VerifierReport:
    if not is_simple_nonabelian(group):
        return _vacuous("theorem-b", group, "needs a nonabelian simple group")
    return check_theorem_b(group)


def _grid(xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair (x, y) as the two pair arrays, x-major."""
    return np.repeat(xs, len(ys)), np.tile(ys, len(xs))


def _product_formula_arrays(group: FiniteGroup) -> Tuple[np.ndarray, np.ndarray, str]:
    every = np.arange(group.order)
    if group.order <= 27:
        return (*_grid(every, every), "pair strategy: all ordered element pairs")
    reps = _class_data(group).reps
    if group.order <= 120:
        return (*_grid(reps, every), "pair strategy: class representatives against all elements")
    return (*_grid(reps, reps), "pair strategy: class representatives only")


# Like _merge, kept for the tests: the aggregate's pairs as elements, in order.
def _product_formula_pairs(group: FiniteGroup) -> Tuple[List[Tuple[Element, Element]], str]:
    a, b, strategy = _product_formula_arrays(group)
    return _elements(group, a, b), strategy


def _agg_product_formula(group: FiniteGroup) -> VerifierReport:
    a, b, strategy = _product_formula_arrays(group)
    return _product_formula_report(group, a, b, [_PRODUCT_FORMULA_NOTE, strategy])


def _agg_quotient_eta(group: FiniteGroup) -> VerifierReport:
    n = group.order
    if n <= 27:
        kernels = list(normal_subgroups(group))
        a, b = _grid(np.arange(n), np.arange(n))
        strategy = "all normal subgroups, all ordered element pairs"
    else:
        kernels = [ElementSet.from_indices(group, [0])] + list(minimal_normal_subgroups(group))
        reps = _class_data(group).reps
        a, b = _grid(reps, reps)
        strategy = "minimal normal subgroups, class representatives only"
    return _quotient_eta_report(group, kernels, a, b, [f"kernel strategy: {strategy}"])


def _agg_center_intersection(group: FiniteGroup) -> VerifierReport:
    if group.order % 2 == 0:
        return _vacuous(
            "center-intersection", group, f"even order {group.order}; hypothesis not met"
        )
    # _center_intersection_pair for every class, read from the support of
    # C_i C_i in kernel row i: the classes of the square, and which are central
    data = _class_data(group)
    eta, central = class_eta_matrix(group), data.sizes == 1
    k = len(central)
    out = _Tally(k)
    for i, (a, size, count) in enumerate(zip(data.reps.tolist(), data.sizes.tolist(), eta.diagonal().tolist())):
        row = class_support_row(group, i)
        lo = int(row.searchsorted(i * k))
        square = row[lo : lo + count] - i * k
        singletons = data.reps[square[central[square]]].tolist()
        if bool(singletons) != (size == 1):
            out.fail({"a": a, "a_name": group.name_of(a), "class_size": size, "meets_center": bool(singletons)})
        if size > 1:
            if singletons:
                out.clause("rider", "fails", {"a": a, "clause": "rider", "singleton_members": singletons})
            else:
                out.clause("rider", "holds")
    return out.report("center-intersection", group)


def _equal_centralizer_pairs_where(group: FiniteGroup, keep) -> List[Tuple[Element, Element]]:
    """The equal-centralizer pairs whose first class size passes keep, as elements."""
    a, b = equal_centralizer_arrays(group)
    data = _class_data(group)
    chosen = keep(data.sizes[data.class_id[a]])
    return _elements(group, a[chosen], b[chosen])


def _agg_size2(group: FiniteGroup) -> VerifierReport:
    pairs = _equal_centralizer_pairs_where(group, lambda size: size == 2)
    return _run("size2-classes", group, _size2_pair, [(group, a, b) for a, b in pairs])


def _agg_supersolvable_pow2(group: FiniteGroup) -> VerifierReport:
    if not is_supersolvable(group):
        return _vacuous("supersolvable-two-power", group, "group is not supersolvable")
    pairs = _equal_centralizer_pairs_where(group, _is_two_power)
    return _run("supersolvable-two-power", group, _supersolvable_pow2_pair, pairs)


def _agg_nilpotent_odd(group: FiniteGroup) -> VerifierReport:
    if not is_nilpotent(group):
        return _vacuous("nilpotent-odd-size", group, "group is not nilpotent")
    return check_nilpotent_odd(group)


def _agg_direct_product_eta(group: FiniteGroup) -> VerifierReport:
    cap = max_order_cap()
    if group.order * group.order > cap:
        return _vacuous(
            "direct-product-eta",
            group,
            f"self-product order {group.order * group.order} exceeds the cap {cap}",
        )
    reps = [a for a in (Element(group, r) for r in _class_data(group).reps.tolist()) if eta_of_product(a, a) == 1]
    if not reps:
        return _vacuous(
            "direct-product-eta", group, "no class with a homogeneous square", hypotheses_met=True
        )
    prod = direct_product(group, group)
    pairs = [(prod, a, group, b) for a in reps for b in reps]
    return _run(
        "direct-product-eta", group, _direct_product_eta_pair, pairs,
        ["second factor is the group itself"],
    )


# Keyed by statement id in canonical order, and looked up at call time.
_AGGREGATORS = {
    "theorem-a": _agg_theorem_a,
    "theorem-b": _agg_theorem_b,
    "product-formula": _agg_product_formula,
    "subgroup-implies-normal": check_subgroup_implies_normal,
    "quotient-monotonicity": _agg_quotient_eta,
    "center-intersection": _agg_center_intersection,
    "size2-classes": _agg_size2,
    "supersolvable-two-power": _agg_supersolvable_pow2,
    "nilpotent-odd-size": _agg_nilpotent_odd,
    "direct-product-eta": _agg_direct_product_eta,
}
STATEMENT_IDS: Tuple[str, ...] = tuple(_AGGREGATORS)


def run_statement(group: FiniteGroup, statement_id: str) -> VerifierReport:
    """One aggregated report for one statement over all qualifying inputs."""
    try:
        agg = _AGGREGATORS[statement_id]
    except KeyError:
        raise ValueError(
            f"unknown statement id {statement_id!r}; known: {', '.join(STATEMENT_IDS)}"
        ) from None
    return agg(group)


def check_all(group: FiniteGroup) -> List[VerifierReport]:
    """Every statement on one group, in canonical statement order.

    Statements whose hypotheses the group fails come back vacuous instead of
    raising, so the result always has one row per statement id.
    """
    return [run_statement(group, sid) for sid in STATEMENT_IDS]
