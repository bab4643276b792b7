"""One table per group: FiniteGroup.table is the read-only int16 array itself.

Every constructor path leaves table and np_table() as one frozen C-order
int16 array; the scalar methods read it with item() and return Python ints
that agree with the brute-force oracles; save_cayley writes the same bytes
as when the table was a list of row views.
"""

import hashlib

import numpy as np
import pytest

import bruteforce as bf
from classprod import build_group, cayley_rows, constructions, from_cayley_table
from classprod.classalg import ElementSet, quotient
from classprod.group import FiniteGroup, close_from_generators, save_cayley
from classprod.perm import Permutation

# save_cayley digests, recorded when table was a list of memoryview rows
SAVED_SHA256 = {
    "sym:5": "19d709d8ab6193bea2a7d5a5a22de9b99c1f5f5e10a0efbebc335874a52afd08",
    "prod(q8,es:3)": "df23d26250ad3904a44e005f5cfd785d9e68b0929c88448df366a691fa620c41",
}

ORACLE_SPECS = ("sym:4", "q8", "prod(es:3,cyclic:2)")


@pytest.fixture
def fresh_builds(monkeypatch):
    """An empty build cache, so a product is built with its table unfilled."""
    monkeypatch.setattr(constructions, "_BUILD_CACHE", {})


def table_slot(g: FiniteGroup):
    """The table as stored, read past the filling property, so an unfilled product has None."""
    return g._table


def assert_one_frozen_table(g: FiniteGroup) -> np.ndarray:
    t = table_slot(g)
    assert g.table is t and g.np_table() is t
    assert t.dtype == np.int16 and t.shape == (g.order, g.order)
    assert t.flags.c_contiguous and not t.flags.writeable
    assert sum(isinstance(getattr(g, s, None), np.ndarray) for s in FiniteGroup.__slots__) == 1
    return t


def test_generator_closure():
    gens = [Permutation.from_cycles(4, [(1, 2, 3, 4)]), Permutation.from_cycles(4, [(1, 2)])]
    g = close_from_generators(gens, "s4")
    assert assert_one_frozen_table(g).shape == (24, 24)


def test_adopted_int16_array():
    arr = np.array(cayley_rows(build_group("sym:3")), dtype=np.int16)
    g = FiniteGroup(arr, "s3-adopted")
    assert assert_one_frozen_table(g) is arr


@pytest.mark.parametrize("kind", ["list", "int64"])
def test_from_cayley_table(kind):
    rows = cayley_rows(build_group("q8"))
    g = from_cayley_table(rows if kind == "list" else np.array(rows), "q8-raw")
    assert assert_one_frozen_table(g).tolist() == rows


def test_cayley_file(tmp_path):
    ref = build_group("dihedral:6")
    path = tmp_path / "d6.cayley"
    save_cayley(ref, str(path))
    g = build_group(f"file:{path}")
    assert np.array_equal(assert_one_frozen_table(g), ref.np_table())


def test_product_before_and_after_its_fill(fresh_builds):
    g = build_group("prod(es:3,cyclic:2)")
    assert g.factors
    assert table_slot(g) is None
    t = g.table  # the first read fills the slot
    assert assert_one_frozen_table(g) is t


def test_product_filled_through_np_table(fresh_builds):
    g = build_group("prod(q8,cyclic:3)")
    t = g.np_table()
    assert assert_one_frozen_table(g) is t


@pytest.mark.parametrize("spec", ["sym:4", "prod(es:3,cyclic:2)"])
def test_trivial_quotient_shares_the_one_table(spec):
    g = build_group(spec)
    q = quotient(g, ElementSet.from_indices(g, [0])).quotient
    assert q.table is g.table
    assert assert_one_frozen_table(q) is assert_one_frozen_table(g)


def test_an_entry_read_directly_is_an_np_int16():
    g = build_group("sym:4")
    assert type(g.table[1][2]) is np.int16 and type(g.table[1, 2]) is np.int16
    assert type(g.mul(1, 2)) is int and g.mul(1, 2) == g.table[1, 2]


def _naive_power(rows, a, k):
    if k < 0:
        a, k = bf.inverse(rows, a), -k
    x = 0
    for _ in range(k):
        x = rows[x][a]
    return x


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_scalar_methods_return_ints_that_match_the_oracle(spec):
    g = build_group(spec)
    rows = g.np_table().tolist()
    n = g.order
    for a in range(n):
        assert type(g.inv(a)) is int and g.inv(a) == bf.inverse(rows, a)
        assert type(g.order_of(a)) is int and g.order_of(a) == bf.element_order(rows, a)
        for k in range(-7, 8):
            got = g.power(a, k)
            assert type(got) is int and got == _naive_power(rows, a, k), (a, k)
        for b in range(n):
            products = (g.mul(a, b), g.conj(a, b), g.comm(a, b))
            assert all(type(v) is int for v in products)
            conj = bf.conj(rows, a, b)
            assert products == (rows[a][b], conj, rows[bf.inverse(rows, a)][conj]), (a, b)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_large_powers_reduce_by_the_element_order(spec):
    g = build_group(spec)
    for a in range(g.order):
        k = g.order_of(a)
        for e in (1000003, -1000003):
            assert g.power(a, e) == g.power(a, e % k)


@pytest.mark.parametrize("spec", sorted(SAVED_SHA256))
def test_save_cayley_bytes_are_unchanged(spec, tmp_path, fresh_builds):
    path = tmp_path / "g.cayley"
    save_cayley(build_group(spec), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_SHA256[spec]
