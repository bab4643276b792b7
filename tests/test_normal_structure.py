"""Normal-subgroup structure: a pin, a reference chief series, oracles.

The pin is one sha256 over the normal-subgroup lattice (groups of order at
most 216), the minimal normal subgroups, the normal closure of every class,
the center and the supersolvable and simple-nonabelian verdicts, on every
built-in group and five direct products; any change to one of these moves
the digest. The quotient-chain supersolvability test kept here is the
reference for is_supersolvable, which walks its chief series inside G. The
class closures are compared with subgroup_generated, the element closure,
which also catches a planted wrong square class. The class-support
kernel's keys are compared with a dense k x k scratch reference written
here.
"""

import hashlib
import random

import numpy as np
import pytest

import bruteforce as bf
from classprod import (
    TrivialGroup,
    build_group,
    cayley_rows,
    center,
    conjugacy_classes,
    from_cayley_table,
    is_normal,
    is_simple_nonabelian,
    is_supersolvable,
    minimal_normal_subgroups,
    normal_closure,
    normal_subgroups,
    quotient,
    subgroup_generated,
)
from classprod import classalg
from classprod.constructions import _is_prime
from classprod.scan import BUILTIN_SPECS
from test_class_kernels import relabeled

PRODUCTS = (
    "prod(q8,es:3)",
    "prod(sym:3,cyclic:3)",
    "prod(dihedral:4,dihedral:4)",
    "prod(sym:4,cyclic:2)",
    "prod(alt:4,cyclic:3)",
)
LATTICE_MAX_ORDER = 216
DIGEST = "bf0b006887b41f96d2b182e126d1dde103e39b02c2456408d92818ee16926573"


def structure_digest(specs):
    h = hashlib.sha256()
    for spec in specs:
        g = build_group(spec)
        h.update(f"{spec}\n".encode())
        if g.order <= LATTICE_MAX_ORDER:
            h.update(repr([s.members for s in normal_subgroups(g)]).encode())
        try:
            minimal = [s.members for s in minimal_normal_subgroups(g)]
        except TrivialGroup:
            minimal = "trivial"
        h.update(repr(minimal).encode())
        closures = [normal_closure(c.representative).members for c in conjugacy_classes(g)]
        h.update(repr(closures).encode())
        h.update(repr(center(g).members).encode())
        h.update(f"{is_supersolvable(g)} {is_simple_nonabelian(g)}\n".encode())
    return h.hexdigest()


def test_structure_digest_over_the_catalog():
    assert structure_digest(BUILTIN_SPECS + PRODUCTS) == DIGEST


# -- is_supersolvable against the quotient chain ---------------------------


def supersolvable_by_quotients(group, tie_break=None):
    """Reference: a chief series built as minimal normal subgroups of quotients.

    Each step takes a minimal normal subgroup of the current quotient (the
    least by (order, members), or tie_break's choice) and passes to the
    quotient by it; the group is supersolvable when every one has prime order.
    """
    current = group
    while current.order > 1:
        candidates = minimal_normal_subgroups(current)
        chosen = tie_break.choice(candidates) if tie_break is not None else candidates[0]
        if not _is_prime(len(chosen)):
            return False
        current = quotient(current, chosen).quotient
    return True


RELABELED = [
    (spec, seed)
    for spec in ("sym:4", "es:3", "dihedral:6", "alt:5", "prod(sym:3,cyclic:3)")
    for seed in (1, 2)
]


def supersolvable_groups():
    named = [build_group(s) for s in BUILTIN_SPECS + PRODUCTS]
    return named + [relabeled(spec, seed) for spec, seed in RELABELED]


@pytest.mark.parametrize("g", supersolvable_groups(), ids=lambda g: g.group_id)
def test_supersolvable_matches_quotient_chain(g):
    want = supersolvable_by_quotients(g)
    assert is_supersolvable(g) == want
    for seed in range(5):
        assert is_supersolvable(g, tie_break=random.Random(seed)) == want
        assert supersolvable_by_quotients(g, tie_break=random.Random(seed)) == want


def test_structure_stays_inside_the_group(monkeypatch):
    """No quotient group and no element closure: the class closures come from one class-level pass."""

    def forbidden(*args, **kwargs):
        raise AssertionError("built an element closure, a quotient or its minimal normals")

    for name in ("subgroup_generated", "quotient", "minimal_normal_subgroups"):
        monkeypatch.setattr(classalg, name, forbidden)
    g = from_cayley_table(cayley_rows(build_group("prod(q8,es:3)")), "q8xes3")  # no caches
    assert is_supersolvable(g) and is_supersolvable(g, tie_break=random.Random(0))
    monkeypatch.undo()
    monkeypatch.setattr(classalg, "subgroup_generated", forbidden)
    assert all(is_normal(s) for s in normal_subgroups(g))
    minimal_normal_subgroups(g)
    is_simple_nonabelian(g)
    for cls in conjugacy_classes(g):
        normal_closure(cls.representative)


# -- the class closures against the element closure --------------------------


def closure_mismatches(g, masks):
    """The classes whose closure mask is not the subgroup their class generates."""
    classes = conjugacy_classes(g)
    return [i for i, m in enumerate(masks) if m != subgroup_generated(classes[i].carrier).mask]


# cyclic:64 and the 256-element product need deep squaring and have k = n
@pytest.mark.parametrize(
    "g",
    supersolvable_groups() + [build_group(s) for s in ("cyclic:64", "prod(cyclic:16,cyclic:16)")],
    ids=lambda g: g.group_id,
)
def test_class_closures_are_the_generated_subgroups(g):
    assert closure_mismatches(g, classalg._class_closures(g)) == []


@pytest.mark.parametrize("spec", ["prod(sym:3,cyclic:3)", "cyclic:64", "dihedral:6"])
def test_a_wrong_square_class_is_caught(spec):
    g = build_group(spec)
    data = classalg._class_data(g)
    sq = data.class_id[g.np_table()[data.reps, data.reps]]
    closures = classalg._class_closures(g)
    assert tuple(classalg._closure_masks(g, sq)) == closures
    # plant, as the class of r_j^2, a class outside the closure of C_j
    j = next(j for j, m in enumerate(closures) if j and m != (1 << g.order) - 1)
    outside = next(l for l, c in enumerate(data.masks) if not c & closures[j])
    wrong = sq.copy()
    wrong[j] = outside
    assert j in closure_mismatches(g, classalg._closure_masks(g, wrong))


# -- the lattice -----------------------------------------------------------


def test_lattice_of_es3_squared():
    g = build_group("es:3^2")
    lattice = normal_subgroups(g)
    assert len(lattice) == 259
    assert all(is_normal(s) for s in lattice)
    assert lattice[0].members == (0,) and len(lattice[-1]) == g.order


@pytest.mark.parametrize("spec", ["dihedral:6", "sym:5", "prod(sym:3,cyclic:3)"])
def test_lattice_matches_oracle(spec):
    g = build_group(spec)
    rows = cayley_rows(g)
    got = [frozenset(s) for s in normal_subgroups(g)]
    assert got == bf.normal_subgroups(rows)
    for cls in conjugacy_classes(g):
        want = bf.generated(rows, cls.carrier)
        assert frozenset(normal_closure(cls.representative)) == want, cls
    assert frozenset(center(g)) == bf.center(rows)


# -- kernel keys -----------------------------------------------------------


def dense_keys(g, i):
    """Row i of the class-support kernel through a k x k boolean scratch."""
    classes = conjugacy_classes(g)
    cid = classalg.class_id_array(g)
    k = len(classes)
    support = np.zeros((k, k), dtype=bool)  # support[j, l]: C_l lies in C_i C_j
    support[cid, cid[g.np_table()[classes[i].representative.index]]] = True
    return np.flatnonzero(support), support.sum(axis=1)


@pytest.mark.parametrize("spec", ["prod(cyclic:16,cyclic:16)", "sym:5", "prod(q8,es:3)"])
def test_kernel_keys_match_dense_reference(spec):
    g = build_group(spec)
    for i in range(len(conjugacy_classes(g))):
        kernel = classalg._kernel_row(g, i)
        keys, eta = dense_keys(g, i)
        assert kernel.keys[i].dtype == np.int32
        assert np.array_equal(kernel.keys[i], keys), i
        assert np.array_equal(kernel.eta[i], eta), i
