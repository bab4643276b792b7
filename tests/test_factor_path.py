"""Direct products answer class questions from their factors, not their table.

A group built by direct_product keeps its factors as one flat tuple. Its
classes, commutator sets and subgroup tests of product-shaped sets come from
the factors; the table is filled only when read. Each product here is
checked against the orbit kernel on a copy of its own table and against the
brute-force oracles.
"""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

import bruteforce as bf
from classprod import cli, constructions
from classprod import classalg
from classprod.classalg import (
    ElementSet,
    _centralizer_ids,
    _class_data,
    _factor_parts,
    center,
    class_id_array,
    commutator_set,
    commutator_set_ids,
    conjugacy_classes,
    equal_centralizer_arrays,
    is_normal,
    is_subgroup,
    subgroup_generated,
)
from classprod.constructions import build_group, direct_product
from classprod.group import Element, FiniteGroup, save_cayley
from classprod.verify import run_statement

PRODUCTS = (
    "prod(q8,es:3)",
    "prod(sym:3,cyclic:4,cyclic:1)",
    "prod(cyclic:2,prod(sym:3,q8))",
    "prod(FILE,cyclic:2)",
    "prod(cyclic:2,FILE,q8)",
    "prod(dihedral:4,cyclic:3)",
    "prod(alt:4,cyclic:2)",
    "prod(cyclic:1,cyclic:1)",
    "prod(cyclic:2,cyclic:2,cyclic:2)",
    "prod(dihedral:3,dihedral:4)",
    "prod(sym:3,sym:3)",
)


@pytest.fixture(scope="module")
def sym3_file(tmp_path_factory):
    """sym:3 as a .cayley file: a factor with no generators."""
    path = tmp_path_factory.mktemp("factors") / "s3.cayley"
    save_cayley(build_group("sym:3"), str(path))
    return f"file:{path}"


@pytest.fixture
def fresh_builds(monkeypatch):
    """An empty build cache, so every product is built (and its table left unfilled) anew."""
    monkeypatch.setattr(constructions, "_BUILD_CACHE", {})


def table_filled(g: FiniteGroup) -> bool:
    try:
        FiniteGroup.table.__get__(g, FiniteGroup)
    except AttributeError:
        return False
    return True


def product(spec: str, sym3_file: str) -> FiniteGroup:
    g = build_group(spec.replace("FILE", sym3_file))
    assert g.factors and all(not f.factors for f in g.factors)
    return g


def orbit_copy(g: FiniteGroup) -> FiniteGroup:
    """The same group on the same table, with no factors: the orbit kernel answers."""
    ref = FiniteGroup(
        g.np_table(), g.group_id, element_names=g.element_names,
        generator_indices=g.generator_indices,
    )
    assert ref.factors == ()
    return ref


def candidate_sets(g: FiniteGroup, rng: random.Random):
    """Product-shaped masks (one subset per factor) and masks of other sets."""
    per_factor = []
    for f in g.factors:
        subsets = {1, (1 << f.order) - 1, center(f).mask}
        subsets.update(commutator_set(c.representative).mask for c in conjugacy_classes(f))
        subsets.update(c.carrier.mask | 1 for c in conjugacy_classes(f))
        subsets.add(subgroup_generated(ElementSet(f, 1 << rng.randrange(f.order))).mask)
        per_factor.append(sorted(subsets))
    combos = list(itertools.product(*per_factor))
    shaped = []
    for parts in rng.sample(combos, min(40, len(combos))):
        members = [0]
        for f, m in zip(g.factors, parts):
            members = [x * f.order + y for x in members for y in ElementSet(f, m)]
        shaped.append(ElementSet.from_indices(g, members).mask)
    n = g.order
    other = {ElementSet.full(g).mask, 1}
    for _ in range(12):
        gens = rng.sample(range(n), min(n, rng.randint(1, 2)))
        other.add(subgroup_generated(ElementSet.from_indices(g, gens)).mask)
        other.add(ElementSet.from_indices(g, [0] + rng.sample(range(n), min(n, 3))).mask)
    other.update(a | b for a, b in zip(shaped[::2], shaped[1::2]))
    return shaped, sorted(other)


@pytest.mark.parametrize("spec", PRODUCTS)
def test_class_data_matches_the_orbit_kernel_and_the_oracle(spec, sym3_file):
    g = product(spec, sym3_file)
    ref = orbit_copy(g)
    np.testing.assert_array_equal(class_id_array(g), class_id_array(ref))
    for got, want in zip(_class_data(g)[2:], _class_data(ref)[2:]):
        np.testing.assert_array_equal(got, want)
    got = [(c.representative.index, c.size, c.carrier.mask) for c in conjugacy_classes(g)]
    want = [(c.representative.index, c.size, c.carrier.mask) for c in conjugacy_classes(ref)]
    assert got == want
    oracle = sorted(bf.all_classes(g.np_table().tolist()), key=min)
    assert [set(c.carrier) for c in conjugacy_classes(g)] == [set(c) for c in oracle]


@pytest.mark.parametrize("spec", PRODUCTS)
def test_commutator_sets_match_the_orbit_kernel_and_the_oracle(spec, sym3_file):
    g = product(spec, sym3_file)
    ref = orbit_copy(g)
    rows = g.np_table().tolist()
    sampled = set(random.Random(spec).sample(range(g.order), min(g.order, 48)))
    for x in range(g.order):
        got = commutator_set(Element(g, x))
        assert got.mask == commutator_set(Element(ref, x)).mask, x
        if x in sampled:
            assert set(got) == bf.commutator_set(rows, x), x


def oracle_centralizer_ids(g: FiniteGroup) -> list:
    """Ids numbered by least member, equal exactly when bf.centralizer is."""
    rows, first = g.np_table().tolist(), {}
    return [first.setdefault(bf.centralizer(rows, x), len(first)) for x in range(g.order)]


@pytest.mark.parametrize("spec", PRODUCTS)
def test_centralizer_ids_come_from_the_factors(spec, sym3_file, fresh_builds):
    g = product(spec, sym3_file)
    ids = _centralizer_ids(g)
    equal_centralizer_arrays(g)
    assert not table_filled(g)
    assert ids.tolist() == oracle_centralizer_ids(g)
    np.testing.assert_array_equal(ids, _centralizer_ids(orbit_copy(g)))


def test_a_fault_in_a_factors_centralizer_ids_reaches_the_product(sym3_file, fresh_builds):
    g = product("prod(sym:3,FILE)", sym3_file)
    faulty = _centralizer_ids(g.factors[1]).copy()
    faulty[faulty == faulty.max()] = 0  # one centralizer merged into the first
    g.factors[1]._cache["centralizer_ids"] = faulty
    assert _centralizer_ids(g).tolist() != oracle_centralizer_ids(g)


@pytest.mark.parametrize("spec", PRODUCTS)
def test_commutator_set_ids_come_from_the_factors(spec, sym3_file, fresh_builds):
    g = product(spec, sym3_file)
    ids, holders = commutator_set_ids(g)
    assert not table_filled(g)
    sets = [commutator_set(Element(g, x)).mask for x in range(g.order)]
    assert [sets[h] for h in holders] == list(dict.fromkeys(sets[h] for h in holders))  # one holder per set
    assert all(sets[x] == sets[holders[i]] for x, i in enumerate(ids.tolist()))
    assert len(holders) == len(set(sets))


@pytest.mark.parametrize("spec", PRODUCTS)
def test_subgroup_and_normal_tests_match_the_orbit_kernel_and_the_oracle(spec, sym3_file):
    g = product(spec, sym3_file)
    ref = orbit_copy(g)
    rows = g.np_table().tolist()
    shaped, other = candidate_sets(g, random.Random(spec))
    for m in shaped:
        assert _factor_parts(ElementSet(g, m)) is not None
    assert any(_factor_parts(ElementSet(g, m)) is None for m in other) or g.order <= 2
    for m in shaped + other:
        s, r = ElementSet(g, m), ElementSet(ref, m)
        members = list(s)
        assert is_subgroup(s) == is_subgroup(r) == bf.is_subgroup(rows, members), members
        assert is_normal(s) == is_normal(r) == bf.is_normal(rows, members), members


def test_a_diagonal_is_not_product_shaped_but_is_a_subgroup():
    g = build_group("prod(sym:3,sym:3)")
    diagonal = ElementSet.from_indices(g, [x * 6 + x for x in range(6)])
    assert _factor_parts(diagonal) is None
    assert is_subgroup(diagonal) and not is_normal(diagonal)


def test_the_filled_table_is_the_product_table(sym3_file):
    g = product("prod(cyclic:2,FILE,q8)", sym3_file)
    nested = product("prod(cyclic:2,prod(FILE,q8))", sym3_file)
    fs = [f.np_table().tolist() for f in g.factors]
    orders = [f.order for f in g.factors]
    want = np.empty((g.order, g.order), dtype=np.int64)
    for x in itertools.product(*map(range, orders)):
        for y in itertools.product(*map(range, orders)):
            xi = yi = zi = 0
            for f, o, a, b in zip(fs, orders, x, y):
                xi, yi, zi = xi * o + a, yi * o + b, zi * o + f[a][b]
            want[xi, yi] = zi
    t = g.np_table()
    assert t.dtype == np.int16 and t.flags.c_contiguous and not t.flags.writeable
    np.testing.assert_array_equal(t, want)
    np.testing.assert_array_equal(nested.np_table(), want)
    assert [list(r) for r in g.table] == want.tolist()


def test_classes_and_build_leave_the_table_unfilled(fresh_builds, capsys):
    spec = "prod(es:3,es:5)"
    for argv in (["classes", "--group", spec, "--json"], ["build", "--group", spec]):
        constructions._BUILD_CACHE.clear()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert not table_filled(build_group(spec)), argv
        assert peak < 4e6, (argv, peak)


def test_order_15625_classes_at_the_int16_limit(fresh_builds, monkeypatch, capsys):
    monkeypatch.setenv("CLASSPROD_MAX_ORDER", "32768")
    spec = "prod(es:5,es:5)"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert cli.main(["classes", "--group", spec, "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert '"group_id": "prod(es:5,es:5)"' in capsys.readouterr().out
    g = build_group(spec)
    assert g.order == 15625 and not table_filled(g)
    assert elapsed < 2.0 and peak < 32e6, (elapsed, peak)


def test_direct_product_eta_catches_a_fault_in_the_factor_path(fresh_builds, monkeypatch):
    """Class sizes read from the factors must not vouch for themselves."""
    spec = "prod(cyclic:2,sym:3)"
    assert run_statement(build_group(spec), "direct-product-eta").ok

    def every_element_its_own_class(group):  # as if every factor were abelian
        ids = np.arange(group.order)
        return ids, ids, np.ones_like(ids)

    monkeypatch.setattr(classalg, "_factor_classes", every_element_its_own_class)
    constructions._BUILD_CACHE.clear()
    report = run_statement(build_group(spec), "direct-product-eta")
    assert report.verdict == "fails"
    assert any(w["pair_class_size"] != w["expected_size"] for w in report.witnesses)


def test_a_product_of_products_keeps_one_flat_factor_tuple():
    a, b, c = (build_group(s) for s in ("cyclic:2", "sym:3", "q8"))
    right = direct_product(a, direct_product(b, c))
    left = direct_product(direct_product(a, b), c)
    assert right.factors == left.factors == (a, b, c)
    assert right.group_id == "prod(cyclic:2,prod(sym:3,q8))"
    assert right.element_names != left.element_names  # names keep the nesting
