"""Executable checkers for the statements about homogeneous class products.

Every checker computes both sides of its claim through independent code
paths: class products and their eta come from the class-support kernel,
commutator-set products from set_product, membership conditions from
commutator_set/is_normal, never deriving one side from the other.
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
    centralizer_buckets,
    class_eta_matrix,
    class_id_array,
    class_product,
    commutator_set,
    conjugacy_class,
    conjugacy_classes,
    decompose,
    eta_of_product,
    is_nilpotent,
    is_normal,
    is_prime_power,
    is_simple_nonabelian,
    is_subgroup,
    is_supersolvable,
    normal_subgroups,
    minimal_normal_subgroups,
    quotient,
    QuotientMap,
    set_product,
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

    def __init__(self) -> None:
        self.checked = 0
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


def _require_equal_centralizers(statement_id: str, a: Element, b: Element) -> None:
    if centralizer(a) != centralizer(b):
        raise HypothesisViolated(
            f"{statement_id}: centralizers of {a.name} and {b.name} differ in {a.group_id}"
        )


def equal_centralizer_pairs(group: FiniteGroup) -> List[Tuple[Element, Element]]:
    """All (class representative a, element b) with C(a) = C(b) as sets.

    Restricting the first coordinate to representatives loses nothing: every
    condition checked downstream is conjugation-covariant, so (a, b) and
    (a^g, b^g) stand or fall together.
    """
    buckets = centralizer_buckets(group)
    pairs: List[Tuple[Element, Element]] = []
    for cls in conjugacy_classes(group):
        a = cls.representative
        for b in buckets[centralizer(a).mask]:
            pairs.append((a, Element(group, b)))
    return pairs


# -- checkers: a public hypothesis gate over one pair, and the pair itself --


def check_theorem_a(group: FiniteGroup, a: Element, b: Element) -> VerifierReport:
    """Homogeneity of a^G b^G against the commutator-set criterion.

    Main claim, for C(a) = C(b): a^G b^G is a single class if and only if
    [a,G] = [b,G] = [ab,G] and [ab,G] is a normal subgroup. For b = a the
    shortcut clause ("a^G a^G = (a^2)^G iff [a,G] is normal") is tracked
    separately as clause in-particular; it can disagree with the main claim,
    which is reported as a discrepancy, not a failure.
    """
    _require_equal_centralizers("theorem-a", a, b)
    return _run("theorem-a", group, _theorem_a_pair, [(a, b)])


def _theorem_a_pair(out: _Tally, a: Element, b: Element) -> None:
    ab = a * b
    lhs = class_product(a, b) == conjugacy_class(ab).carrier
    sa = commutator_set(a)
    sb = commutator_set(b)
    sab = commutator_set(ab)
    rhs = sa == sb and sb == sab and is_normal(sab)
    if lhs != rhs:
        out.fail(
            {
                "a": a.index,
                "b": b.index,
                "a_name": a.name,
                "b_name": b.name,
                "single_class": lhs,
                "comm_sets_match": sa == sb and sb == sab,
                "comm_set_ab_is_normal": is_normal(sab),
                "eta": eta_of_product(a, b),
            }
        )
    if a.index == b.index:
        shortcut = is_normal(sa)
        if lhs == shortcut:
            out.clause("in-particular", "holds")
        else:
            out.clause(
                "in-particular",
                "discrepancy",
                {
                    "a": a.index,
                    "a_name": a.name,
                    "clause": "in-particular",
                    "comm_set": list(sa),
                    "comm_set_is_normal": shortcut,
                    "single_class": lhs,
                    "eta": eta_of_product(a, a),
                },
            )


def check_theorem_b(group: FiniteGroup) -> VerifierReport:
    """In a nonabelian simple group the only homogeneous product is 1*1."""
    if not is_simple_nonabelian(group):
        raise HypothesisViolated(f"theorem-b: {group.group_id} is not nonabelian simple")
    out = _Tally()
    pairs = equal_centralizer_pairs(group)
    out.checked = len(pairs)
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
    return _run("product-formula", group, _product_formula_pair, [(a, b)], [_PRODUCT_FORMULA_NOTE])


def _product_formula_pair(out: _Tally, a: Element, b: Element) -> None:
    """The left side is the class product from the kernel; the right side is
    the commutator-set product, translated by ab one element at a time.
    """
    lhs = class_product(a, b)  # raises GroupMismatch for elements of two groups
    g = a.group
    ab = g.mul(a.index, b.index)
    a_b = g.conj(a.index, b.index)
    rhs = _translate(g, ab, _comm_product(g, a_b, b.index))
    if lhs != rhs:
        out.fail(
            {
                "a": a.index,
                "b": b.index,
                "a_name": a.name,
                "b_name": b.name,
                "lhs_size": len(lhs),
                "rhs_size": len(rhs),
                "only_lhs": list(lhs - rhs),
                "only_rhs": list(rhs - lhs),
            }
        )
    if a_b == a.index:  # then rhs is already ab.[a,G].[b,G]
        if lhs == rhs:
            out.clause("commuting-case", "holds")
        else:
            out.clause(
                "commuting-case",
                "fails",
                {
                    "a": a.index,
                    "b": b.index,
                    "clause": "commuting-case",
                    "lhs_size": len(lhs),
                    "rhs_size": len(rhs),
                },
            )


def _comm_product(group: FiniteGroup, x: int, y: int) -> Tuple[int, ...]:
    """The members of [x,G].[y,G], a plain set product memoized on the two sets."""
    sx, sy = commutator_set(Element(group, x)), commutator_set(Element(group, y))
    memo: Dict[Tuple[int, int], Tuple[int, ...]] = group._cache.setdefault(
        "comm_set_products", {}
    )
    members = memo.get((sx.mask, sy.mask))
    if members is None:
        members = memo[(sx.mask, sy.mask)] = set_product(sx, sy).members
    return members


def _translate(group: FiniteGroup, c: int, members: Sequence[int]) -> ElementSet:
    """The set {c*s : s in members}."""
    row = group.table[c]
    mask = 0
    for s in members:
        mask |= 1 << row[s]
    return ElementSet(group, mask)


def check_subgroup_implies_normal(group: FiniteGroup) -> VerifierReport:
    """Every commutator set that is a subgroup must be a normal one."""
    out = _Tally()
    out.checked = group.order
    closed = 0
    for c in range(group.order):
        s = commutator_set(Element(group, c))
        if not is_subgroup(s):
            continue
        closed += 1
        if not is_normal(s):
            out.fail({"c": c, "c_name": group.name_of(c), "comm_set": list(s)})
    return out.report(
        "subgroup-implies-normal", group, [f"{closed} of {group.order} commutator sets are subgroups"]
    )


def check_quotient_eta(group: FiniteGroup, n: ElementSet, a: Element, b: Element) -> VerifierReport:
    """Passing to a quotient never increases the class count of a product.

    Second clause: classes that become disjoint in the quotient were already
    disjoint upstairs. Raises NotNormal for a bad n, and GroupMismatch for
    an element of another group.
    """
    qm = quotient(group, n)
    for x in (a, b):
        if x.group is not group:
            raise GroupMismatch(f"element of {x.group_id!r} checked in {group.group_id!r}")
    return _quotient_eta_report(group, [qm], np.array([a.index]), np.array([b.index]))


def _quotient_eta_report(group: FiniteGroup, quotients: Iterable[QuotientMap],
                         a: np.ndarray, b: np.ndarray, notes: Iterable[str] = ()) -> VerifierReport:
    """check_quotient_eta for every quotient map and every pair (a[p], b[p]).

    The eta of each product upstairs and in each quotient is read from that
    group's own class-support kernel, the quotient's through the projection;
    the parent's support is never pushed forward, which would make the
    inequality hold by construction. Witnesses come quotient by quotient,
    pair by pair, the eta witness before the disjointness one.
    """
    cid = class_id_array(group)
    eta_parent = class_eta_matrix(group)[cid[a], cid[b]]
    same_class = cid[a] == cid[b]
    out = _Tally()
    for qm in quotients:
        out.checked += len(a)
        proj = np.asarray(qm.projection)
        qcid = class_id_array(qm.quotient)
        qa, qb = qcid[proj[a]], qcid[proj[b]]
        eta_quot = class_eta_matrix(qm.quotient)[qa, qb]
        rises = eta_quot > eta_parent
        disjoint = qa != qb
        split = disjoint & same_class  # disjoint downstairs but not upstairs
        if disjoint.any():
            out.clause("disjointness", "holds")
        kernel = list(qm.kernel)
        for p in np.flatnonzero(rises | split).tolist():
            ai, bi = int(a[p]), int(b[p])
            if rises[p]:
                out.fail(
                    {
                        "a": ai,
                        "b": bi,
                        "kernel": kernel,
                        "eta_parent": int(eta_parent[p]),
                        "eta_quotient": int(eta_quot[p]),
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


def _is_two_power_class(a: Element) -> bool:
    size = conjugacy_class(a).size
    return size > 1 and size & (size - 1) == 0


def check_supersolvable_pow2(group: FiniteGroup, a: Element, b: Element) -> VerifierReport:
    """Supersolvable groups admit no homogeneous product over a 2-power class."""
    if not is_supersolvable(group):
        raise HypothesisViolated(f"supersolvable-two-power: {group.group_id} is not supersolvable")
    _require_equal_centralizers("supersolvable-two-power", a, b)
    if not _is_two_power_class(a):
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
    for cls in conjugacy_classes(group):
        out.checked += 1
        a = cls.representative
        if eta_of_product(a, a) == 1 and cls.size % 2 == 0:
            out.fail({"a": a.index, "a_name": a.name, "class_size": cls.size, "eta": 1})
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
    be passed in to amortize construction over many pairs.
    """
    if eta_of_product(a, a) != 1 or eta_of_product(b, b) != 1:
        raise HypothesisViolated(
            "direct-product-eta: both factors need a homogeneous class square"
        )
    prod = product_group if product_group is not None else direct_product(group, k)
    # the one-pair report names the product group; the aggregate names the factor
    return _run("direct-product-eta", prod, _direct_product_eta_pair, [(prod, a, k, b)])


def _direct_product_eta_pair(out: _Tally, prod: FiniteGroup, a: Element, k: FiniteGroup,
                             b: Element) -> None:
    pair = Element(prod, a.index * k.order + b.index)
    size = conjugacy_class(pair).size
    expected = conjugacy_class(a).size * conjugacy_class(b).size
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
    return _run("theorem-a", group, _theorem_a_pair, equal_centralizer_pairs(group))


def _agg_theorem_b(group: FiniteGroup) -> VerifierReport:
    if not is_simple_nonabelian(group):
        return _vacuous("theorem-b", group, "needs a nonabelian simple group")
    return check_theorem_b(group)


def _product_formula_pairs(group: FiniteGroup) -> Tuple[List[Tuple[Element, Element]], str]:
    n = group.order
    if n <= 27:
        pairs = [
            (Element(group, i), Element(group, j)) for i in range(n) for j in range(n)
        ]
        return pairs, "pair strategy: all ordered element pairs"
    reps = [cls.representative for cls in conjugacy_classes(group)]
    if n <= 120:
        pairs = [(a, Element(group, j)) for a in reps for j in range(n)]
        return pairs, "pair strategy: class representatives against all elements"
    pairs = [(a, b) for a in reps for b in reps]
    return pairs, "pair strategy: class representatives only"


def _agg_product_formula(group: FiniteGroup) -> VerifierReport:
    pairs, strategy = _product_formula_pairs(group)
    return _run(
        "product-formula", group, _product_formula_pair, pairs, [_PRODUCT_FORMULA_NOTE, strategy]
    )


def _agg_quotient_eta(group: FiniteGroup) -> VerifierReport:
    n = group.order
    if n <= 27:
        kernels = list(normal_subgroups(group))
        a = np.repeat(np.arange(n), n)
        b = np.tile(np.arange(n), n)
        strategy = "all normal subgroups, all ordered element pairs"
    else:
        kernels = [ElementSet.from_indices(group, [0])] + list(minimal_normal_subgroups(group))
        reps = np.array([cls.representative.index for cls in conjugacy_classes(group)])
        a = np.repeat(reps, len(reps))
        b = np.tile(reps, len(reps))
        strategy = "minimal normal subgroups, class representatives only"
    # one quotient group alive at a time
    return _quotient_eta_report(
        group, (quotient(group, k) for k in kernels), a, b, [f"kernel strategy: {strategy}"]
    )


def _agg_center_intersection(group: FiniteGroup) -> VerifierReport:
    if group.order % 2 == 0:
        return _vacuous(
            "center-intersection", group, f"even order {group.order}; hypothesis not met"
        )
    pairs = [(group, cls.representative) for cls in conjugacy_classes(group)]
    return _run("center-intersection", group, _center_intersection_pair, pairs)


def _agg_size2(group: FiniteGroup) -> VerifierReport:
    pairs = [
        (group, a, b) for a, b in equal_centralizer_pairs(group) if conjugacy_class(a).size == 2
    ]
    return _run("size2-classes", group, _size2_pair, pairs)


def _agg_supersolvable_pow2(group: FiniteGroup) -> VerifierReport:
    if not is_supersolvable(group):
        return _vacuous("supersolvable-two-power", group, "group is not supersolvable")
    pairs = [(a, b) for a, b in equal_centralizer_pairs(group) if _is_two_power_class(a)]
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
    reps = [
        cls.representative
        for cls in conjugacy_classes(group)
        if eta_of_product(cls.representative, cls.representative) == 1
    ]
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
