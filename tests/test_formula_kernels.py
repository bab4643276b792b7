"""The batched theorem-a and product-formula kernels against the oracles.

Both kernels run on the arrays of every ordered element pair of seven
groups, many more pairs than the checkers' own pair lists, so sides that
disagree do occur. Each array is compared with tests/bruteforce.py on the
raw table:
- theorem-a: whether a^G b^G is one class (bf.eta of bf.set_product of the
  two classes), whether [a,G] = [b,G] = [ab,G] (bf.commutator_set), and
  whether [ab,G] and [a,G] are normal (bf.is_normal);
- product-formula: each pair's gathered right side as a set, against
  ab.[a^b,G].[b,G] from bf.commutator_set and bf.set_product; and the
  verdict, against whether that set is the class product. The verdict is
  also checked on right sides perturbed two ways, one member dropped or
  every member moved by a fixed element, where it must fail exactly when
  the perturbed set differs from the class product.
"""

import numpy as np
import pytest

from classprod import build_group, cayley_rows
from classprod import verify

import bruteforce as bf

SPECS = ("sym:3", "sym:4", "q8", "dihedral:6", "es:3", "alt:5", "prod(sym:3,cyclic:3)")


class Oracle:
    """The brute-force sides of both statements on one raw table, memoized."""

    def __init__(self, rows):
        self.rows = rows
        self.class_of = {x: c for c in bf.all_classes(rows) for x in c}
        self.comm = [bf.commutator_set(rows, x) for x in range(len(rows))]
        self.products = {}
        self.single = {}
        self.normal = {}
        self.rhs = {}

    def class_product(self, a, b):
        key = (self.class_of[a], self.class_of[b])
        if key not in self.products:
            self.products[key] = bf.set_product(self.rows, *key)
        return self.products[key]

    def is_single_class(self, a, b):
        product = self.class_product(a, b)
        if product not in self.single:
            self.single[product] = bf.eta(self.rows, product) == 1
        return self.single[product]

    def is_normal(self, s):
        if s not in self.normal:
            self.normal[s] = bf.is_normal(self.rows, s)
        return self.normal[s]

    def right_side(self, a, b):
        """ab.[a^b,G].[b,G] with a^b = b^-1 a b."""
        if (a, b) not in self.rhs:
            rows = self.rows
            ab, a_b = rows[a][b], bf.conj(rows, a, b)
            comm = bf.set_product(rows, self.comm[a_b], self.comm[b])
            self.rhs[(a, b)] = frozenset(rows[ab][x] for x in comm)
        return self.rhs[(a, b)]


@pytest.fixture(scope="module", params=SPECS)
def case(request):
    g = build_group(request.param)
    every = np.arange(g.order)
    return g, Oracle(cayley_rows(g)), np.repeat(every, g.order), np.tile(every, g.order)


def test_theorem_a_sides_match_the_oracles(case):
    g, oracle, a, b = case
    rows = oracle.rows
    single, match, normal_ab, normal_a = verify._theorem_a_sides(g, a, b)
    expected_single, expected_match, expected_ab, expected_a = [], [], [], []
    for x, y in zip(a.tolist(), b.tolist()):
        expected_single.append(oracle.is_single_class(x, y))
        cx, cy, cxy = oracle.comm[x], oracle.comm[y], oracle.comm[rows[x][y]]
        expected_match.append(cx == cy == cxy)
        expected_ab.append(oracle.is_normal(cxy))
        expected_a.append(oracle.is_normal(cx))
    assert single.tolist() == expected_single
    assert match.tolist() == expected_match
    assert normal_ab.tolist() == expected_ab
    assert normal_a.tolist() == expected_a
    assert len(set(expected_single)) == len(set(expected_match)) == 2


def test_theorem_a_report_flags_the_oracle_pairs(case):
    """The report over every ordered pair, most of them outside the
    hypothesis C(a) = C(b): its witnesses, in order, are the pairs whose
    two oracle sides differ and the squares whose in-particular clause does.
    """
    g, oracle, a, b = case
    rows = oracle.rows
    expected = []
    for x, y in zip(a.tolist(), b.tolist()):
        single = oracle.is_single_class(x, y)
        cx, cy, cxy = oracle.comm[x], oracle.comm[y], oracle.comm[rows[x][y]]
        if single != (cx == cy == cxy and oracle.is_normal(cxy)):
            expected.append((x, y))
        if x == y and single != oracle.is_normal(cx):
            expected.append((x, "in-particular"))
    report = verify._theorem_a_report(g, a, b)
    got = [(w["a"], w.get("clause", w.get("b"))) for w in report.witnesses]
    assert got == expected[: verify._WITNESS_CAP]
    assert report.pairs_checked == len(a)
    if len(expected) > verify._WITNESS_CAP:
        assert report.notes[-1] == f"witness list truncated to 40 of {len(expected)}"


def test_product_formula_right_sides_match_the_oracle(case):
    g, oracle, _, _ = case
    every = np.arange(g.order)
    for x in range(g.order):
        owner, rhs = verify._product_formula_rhs(g, x, every)
        blocks = np.split(rhs, np.cumsum(np.bincount(owner, minlength=g.order))[:-1])
        for y, block in enumerate(blocks):
            assert set(block.ravel().tolist()) == oracle.right_side(x, y), (x, y)


def drop_least(group, owner, rhs):
    first = np.searchsorted(owner, np.arange(owner[-1] + 1))  # each pair's first row
    least = np.minimum.reduceat(rhs.min(axis=1), first)[owner][:, None]
    most = np.maximum.reduceat(rhs.max(axis=1), first)[owner][:, None]
    return np.where(rhs == least, most, rhs)


def moved(group, owner, rhs):
    return group.np_table()[1][rhs]


# Each perturbation of the gathered blocks, and the same change to a set.
PERTURBATIONS = {
    "clean": (None, lambda g, s: s),
    "drop-least": (drop_least, lambda g, s: s - {min(s)} if len(s) > 1 else s),
    "moved": (moved, lambda g, s: frozenset(g.mul(1, x) for x in s)),
}


@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_product_formula_verdicts_match_the_oracle(case, name, monkeypatch):
    g, oracle, a, b = case
    on_blocks, on_set = PERTURBATIONS[name]
    if on_blocks is not None:
        gather = verify._product_formula_rhs

        def perturbed(group, x, ys):
            owner, rhs = gather(group, x, ys)
            return owner, on_blocks(group, owner, rhs)

        monkeypatch.setattr(verify, "_product_formula_rhs", perturbed)
    expected = [
        oracle.class_product(x, y) == on_set(g, oracle.right_side(x, y))
        for x, y in zip(a.tolist(), b.tolist())
    ]
    assert verify._product_formula_holds(g, a, b).tolist() == expected
    assert all(expected) == (on_blocks is None)
