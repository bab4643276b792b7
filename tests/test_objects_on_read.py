"""Per-element objects are made only where something reads them.

A direct product names an element from its operands when the name is read
and finds a name's index by splitting it against them; `classes` reads the
class record and decides each distinct commutator set once; a class carrier
is made from its own block of the class record; `--json` documents are
written as they are encoded.
"""

import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import bruteforce as bf
from classprod import (
    ElementSet,
    build_group,
    conjugacy_classes,
    direct_product,
    from_cayley_table,
    minimal_normal_subgroups,
    symmetric,
)
from classprod import classalg, constructions
from classprod.cli import main, resolve_element
from classprod.constructions import GroupSpec
from classprod.verify import run_statement

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SPEC = "prod(es:3,es:5)"


def z3(names=None):
    return from_cayley_table([[(i + j) % 3 for j in range(3)] for i in range(3)], "z3", element_names=names)


def odd_name_products():
    """Products of two table groups whose names hold commas and parentheses,
    one pair of names reading two ways, and a factor with no names."""
    a = z3(["e", "x", "x,y"])
    b = z3(["y,e", "e", "(q)"])
    c = z3(["(,", "),(", ","])
    return [direct_product(a, b), direct_product(direct_product(a, z3()), c), direct_product(c, b)]


@pytest.fixture
def fresh_builds(monkeypatch):
    """build_group's cache, emptied for one test: the groups the CLI builds land here."""
    cache = {}
    monkeypatch.setattr(constructions, "_BUILD_CACHE", cache)
    return cache


# -- products name elements on read -------------------------------------------


@pytest.mark.parametrize(
    "g",
    [GroupSpec.parse(s).build() for s in ("prod(sym:3,cyclic:3,es:3)", "prod(q8,es:3)")] + odd_name_products(),
    ids=lambda g: g.group_id,
)
def test_index_of_name_is_the_first_index_of_the_name(g):
    found = [g.index_of_name(g.name_of(i)) for i in range(g.order)]
    assert g._names is None  # nothing above made the list
    names = g.element_names
    assert found == [names.index(name) for name in names]
    assert [g.index_of_name(name) for name in names] == found  # and with the list made
    for other in ("nope", "()", "(,)", "((1 2),)", names[-1] + " "):
        assert g.index_of_name(other) is None


def test_a_group_without_names_is_named_by_index():
    g = z3()
    assert g.element_names is None and [g.name_of(i) for i in range(3)] == ["0", "1", "2"]
    assert [g.index_of_name(s) for s in ("0", "1", "2", "3", "02", "-1", "", "1" * 5000)] == [0, 1, 2] + [None] * 5


def test_a_name_that_reads_two_ways_takes_the_first_index():
    g = odd_name_products()[0]
    assert g.name_of(3) == g.name_of(7) == "(x,y,e)"
    assert g.index_of_name("(x,y,e)") == 3


def test_product_names_are_the_operands_names():
    g = GroupSpec.parse("prod(sym:3,cyclic:3,es:3)").build()
    s3c3, es3 = GroupSpec.parse("prod(sym:3,cyclic:3)").build(), GroupSpec.parse("es:3").build()
    expected = [f"({a},{b})" for a in s3c3.element_names for b in es3.element_names]
    assert [g.name_of(i) for i in range(g.order)] == expected
    assert g.element_names == expected


def test_a_product_pickles_with_its_operands():
    g = GroupSpec.parse("prod(sym:3,cyclic:3,es:3)").build()
    copy = pickle.loads(pickle.dumps(g))
    assert copy._names is None and copy._table is None
    assert [copy.name_of(i) for i in range(copy.order)] == g.element_names
    assert copy.index_of_name(g.name_of(100)) == 100
    assert np.array_equal(copy.np_table(), g.np_table())


def test_a_hostile_selector_on_a_product_is_refused_at_once():
    g = GroupSpec.parse("prod(sym:3,sym:3)").build()
    start = time.perf_counter()
    for text in ("(" + "," * 100000 + ")", "(" + "(1 2)," * 30000 + "())", "((1 2)," + " " * 100000 + "())"):
        with pytest.raises(ValueError, match="cannot resolve"):
            resolve_element(g, text)
    assert time.perf_counter() - start < 1.0
    assert g._names is None


LONG = ["prod(" + ",".join(["cyclic:1"] * 1200) + ")", "prod(cyclic:2," + ",".join(["cyclic:1"] * 1100) + ",cyclic:3)"]


@pytest.mark.parametrize("text", LONG, ids=["1200 factors", "1102 factors"])
def test_a_long_product_keeps_flat_operands_and_names_its_elements(text, fresh_builds, capsys):
    """Left-nested products of more factors than the recursion limit: one operand
    per factor and no intermediate product, so naming does not recurse."""
    g = build_group(text)
    assert len(g._operands) == text.count(",") + 1 and not any(x._operands for x in g._operands)
    last = g.name_of(g.order - 1)
    assert last.startswith("(" * len(g._operands)) and g.index_of_name(last) == g.order - 1
    assert main(["classes", "--group", text]) == 0
    assert last in capsys.readouterr().out
    assert main(["product", "--group", text, "-a", last, "-b", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["a"] == {"index": g.order - 1, "name": last, "class_size": 1}
    cosets = classalg.quotient(g, classalg.normal_subgroups(g)[0]).quotient  # G/{e}: each element its own coset
    assert cosets.element_names == [f"[{g.name_of(i)}]" for i in range(g.order)] and g._names is None
    assert g.element_names == [g.name_of(i) for i in range(g.order)]


CYCLE = "(" + " ".join(map(str, range(1, 4097))) + ")"  # the generator of cyclic:4096


@pytest.mark.parametrize("spec, selector, index, name", [
    ("prod(cyclic:4096,cyclic:2)", "b", 2, f"({CYCLE},())"),
    ("prod(cyclic:2,cyclic:4096)", "a", 1, f"((),{CYCLE})"),
], ids=["closure first", "closure last"])
def test_a_closure_operand_is_named_one_element_at_a_time(spec, selector, index, name, fresh_builds, monkeypatch,
                                                          capsys):
    """A product reads each operand's own name: a closure operand makes the
    cycle strings it is asked for, not its whole name list."""
    monkeypatch.setenv("CLASSPROD_MAX_ORDER", "8192")
    assert main(["product", "--group", spec, "-a", "1", "-b", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[selector] == {"index": index, "name": name, "class_size": 1}
    (g,) = fresh_builds.values()
    closure = next(x for x in g._operands if x.order == 4096)
    assert closure._names is None and closure._images is not None
    assert g._names is None and g._prefix is None


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--group", SPEC, "--json"],
        ["classes", "--group", SPEC],
        ["build", "--group", SPEC, "--json"],
        ["product", "--group", SPEC, "-a", "((1,0,0),(0,1,0))", "-b", "((2, 0, 0), (0, 0, 1))", "--json"],
        ["product", "--group", SPEC, "-a", "5", "-b", "1200"],
        ["product", "--group", SPEC, "-a", "g0*g2", "-b", "g1^2*g3", "--json"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[3:]),
)
def test_the_cli_makes_no_name_list_of_a_product(argv, fresh_builds, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    (group,) = fresh_builds.values()
    assert group.factors and group._names is None


# -- classes reads the class record -------------------------------------------


def test_classes_json_traces_under_one_mib(fresh_builds, capsys):
    """From cold caches, after import: 1.76 MiB when every class had an
    ElementSet and a commutator mask and the product named every element."""
    tracemalloc.start()
    try:
        assert main(["classes", "--group", SPEC, "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_classes_decides_each_distinct_commutator_set_once(fresh_builds, capsys, monkeypatch):
    decided = []
    is_subgroup = classalg.is_subgroup
    monkeypatch.setattr("classprod.cli.is_subgroup", lambda s: decided.append(s.mask) or is_subgroup(s))
    assert main(["classes", "--group", SPEC, "--json"]) == 0
    capsys.readouterr()
    assert len(decided) == len(set(decided)) == 4


# -- carriers a class at a time -----------------------------------------------


def quotient_of_s4():
    g = symmetric(4)
    return classalg.quotient(g, minimal_normal_subgroups(g)[0]).quotient


@pytest.mark.parametrize("g", [build_group("prod(dihedral:4,cyclic:2)"), build_group("sym:4"), quotient_of_s4()],
                         ids=lambda g: g.group_id)
def test_carriers_are_the_classes(g):
    got = conjugacy_classes(g)
    assert [frozenset(c.carrier) for c in got] == bf.all_classes(g.np_table().tolist())
    assert [c.representative.index for c in got] == [min(c.carrier) for c in got]


@pytest.mark.parametrize("statement, spec", [("nilpotent-odd-size", "prod(dihedral:4,cyclic:3)"),
                                             ("nilpotent-odd-size", "es:3"),
                                             ("direct-product-eta", "sym:3"),
                                             ("direct-product-eta", "q8")])
def test_checkers_that_read_sizes_make_no_carriers(statement, spec, monkeypatch):
    g = GroupSpec.parse(spec).build()
    want = run_statement(g, statement).to_dict()

    def forbidden(*args):
        raise AssertionError("a class carrier was made")

    monkeypatch.setattr(classalg, "_conjugacy_classes", forbidden)
    assert run_statement(GroupSpec.parse(spec).build(), statement).to_dict() == want


# -- JSON written as it is encoded --------------------------------------------


def test_a_closed_stdout_is_a_broken_pipe_error():
    child = subprocess.Popen(
        [sys.executable, "-m", "classprod.cli", "classes", "--group", "prod(dihedral:8,dihedral:8,dihedral:8)", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC},
    )
    got = b""
    while len(got) < 300:
        got += os.read(child.stdout.fileno(), 300 - len(got))
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 2
    assert got.startswith(b'{\n  "group_id": "prod(prod(dihedral:8,dihedral:8),dihedral:8)"')
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_json_documents_end_in_one_newline(capsys):
    assert main(["build", "--group", "sym:3", "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n") and not out.endswith("\n\n")


def test_element_sets_of_a_product_still_name_members():
    g = build_group("prod(sym:3,cyclic:2)")
    s = ElementSet.from_indices(g, [0, 1])
    assert [g.name_of(i) for i in s] == ["((),())", "((),(1 2))"]
