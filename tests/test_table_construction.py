"""Multiplication tables built by permutation closure and by table validation.

Closure tables are pinned by digest and checked entry by entry against
Permutation products. Table validation is checked against a naive cubic
reference written here, exceptions and their witnesses included.
"""

import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from classprod import GroupSpec, Permutation, build_group, from_cayley_table
from classprod import group as group_module
from classprod.errors import NoIdentity, NoInverse, NotAssociative
from classprod.scan import BUILTIN_SPECS

# sha256 of the int32 table bytes and of the newline-joined names
PINNED = {
    "sym:6": (
        "d248121bf54efcca227f2f3c4a1dea2546580fc085364643e6743bfdf43e1c9f",
        "e5237547f357176794c9c00f2449b47f98f9a5065526857d9fc2d59908c6c9ba",
    ),
    "alt:6": (
        "39caaeea79e8c4658fdf1bfc824bab769b3e3d0232e908cd88b03b32b7282fe3",
        "89aae549b5f62714b2f35b06c09d22c9be9c298907a0e79d3ef4e20f9de5a89a",
    ),
}

# built-ins whose element names are the cycle strings of a permutation closure
CLOSURE_KINDS = ("cyclic", "dihedral", "symmetric", "alternating")
CLOSURE_SPECS = tuple(s for s in BUILTIN_SPECS if GroupSpec.parse(s).kind in CLOSURE_KINDS)


def permutations_of(group):
    """Each element's permutation, parsed back from its name."""
    points = [int(p) for name in group.element_names for p in re.findall(r"\d+", name)]
    degree = max(points, default=1)
    return [Permutation.parse(degree, name) for name in group.element_names]


def assert_products(group, pairs):
    perms = permutations_of(group)
    for a, b in pairs:
        assert group.element_names[group.table[a][b]] == (perms[a] * perms[b]).cycle_string()


class TestClosureTables:
    @pytest.mark.parametrize("spec", sorted(PINNED))
    def test_pinned_digests(self, spec):
        g = build_group(spec)
        table = np.asarray(g.table, dtype=np.int32).tobytes()
        names = "\n".join(g.element_names).encode()
        assert (hashlib.sha256(table).hexdigest(), hashlib.sha256(names).hexdigest()) == PINNED[spec]

    def test_sym6_generator_indices(self):
        assert build_group("sym:6").generator_indices == (1, 2)

    @pytest.mark.parametrize("spec", [s for s in CLOSURE_SPECS if build_group(s).order <= 120])
    def test_every_entry_is_the_permutation_product(self, spec):
        g = build_group(spec)
        assert_products(g, ((a, b) for a in range(g.order) for b in range(g.order)))

    @pytest.mark.parametrize("spec", ["sym:6", "alt:6"])
    def test_sampled_entries_are_permutation_products(self, spec):
        g = build_group(spec)
        rng = random.Random(2006)
        assert_products(g, [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(3000)])


def reference_from_cayley(rows):
    """The table from_cayley_table must return, by the definitions alone."""
    n = len(rows)
    e = next(
        (i for i in range(n) if all(rows[i][x] == x and rows[x][i] == x for x in range(n))),
        None,
    )
    if e is None:
        raise NoIdentity("no two-sided identity element")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise NotAssociative(a, b, c)
    for x in range(n):
        if e not in rows[x] or rows[rows[x].index(e)][x] != e:
            raise NoInverse(x)
    old_order = [e] + [i for i in range(n) if i != e]
    new_of_old = {old: new for new, old in enumerate(old_order)}
    return [[new_of_old[rows[a][b]] for b in old_order] for a in old_order]


def outcome(fn, rows):
    try:
        result = fn(rows)
    except (NoIdentity, NotAssociative, NoInverse) as exc:
        return type(exc).__name__, str(exc)
    return "ok", result


@st.composite
def magmas(draw):
    """Tables of order 1..6: raw, with a planted identity, or a relabeled
    cyclic group with at most one swapped pair in one row."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(("raw", "identity", "cyclic")))
    if kind == "cyclic":
        label = draw(st.permutations(range(n)))
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                rows[label[a]][label[b]] = label[(a + b) % n]
        if n > 2 and draw(st.booleans()):
            a = draw(st.integers(0, n - 1))
            b, c = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
        return rows
    entries = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=n, max_size=n))
    if kind == "identity":
        e = draw(st.integers(0, n - 1))
        for x in range(n):
            rows[e][x] = rows[x][e] = x
    return rows


class TestTableValidationAgainstReference:
    @settings(deadline=None, max_examples=300)
    @given(magmas())
    def test_agrees_with_cubic_reference(self, rows):
        def validate(r):
            return [list(row) for row in from_cayley_table(r, "magma").table]

        assert outcome(validate, rows) == outcome(reference_from_cayley, rows)

    def test_many_generators_fall_back_to_the_cubic_scan(self, monkeypatch):
        # left-zero semigroup {1..4} (x*y = x) with identity 0 adjoined: it
        # is associative, but the greedy generating set needs all of 1..4,
        # more than 5.bit_length() = 3, so the cubic scan must decide
        n = 5
        rows = [list(range(n))] + [[x] + [x] * (n - 1) for x in range(1, n)]
        calls = []
        cubic = group_module._cubic_associativity
        monkeypatch.setattr(
            group_module, "_cubic_associativity", lambda t: calls.append(1) or cubic(t)
        )
        with pytest.raises(NoInverse) as exc:
            from_cayley_table(rows, "left-zero")
        assert calls == [1]
        assert exc.value.witness == 1
        assert str(exc.value) == "element 1 has no two-sided inverse"

    def test_group_tables_skip_the_cubic_scan(self, monkeypatch):
        monkeypatch.setattr(
            group_module, "_cubic_associativity", lambda t: pytest.fail("cubic scan ran")
        )
        g = build_group("sym:5")
        again = from_cayley_table([list(r) for r in g.table], "s5")
        assert np.array_equal(again.table, g.table)
