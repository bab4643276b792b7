"""A second, independent oracle: sympy's permutation groups.

For the permutation specs up to sym:6 and alt:6, and a few direct products
of them, the order, the sorted class sizes and the nilpotency verdict must
agree with sympy.combinatorics. For the permutation built-ins, the center,
each class's normal closure and the minimal normal subgroups must also
agree, as sets of permutations: the sympy group is generated by the group's
own generators, and elements are matched through their cycle strings.
Skipped when sympy is not installed.
"""

import re

import pytest

sympy_groups = pytest.importorskip("sympy.combinatorics.named_groups")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402
from sympy.combinatorics.group_constructs import DirectProduct  # noqa: E402

from classprod import (  # noqa: E402
    build_group,
    center,
    conjugacy_classes,
    is_nilpotent,
    minimal_normal_subgroups,
    normal_closure,
)
from classprod.scan import BUILTIN_SPECS  # noqa: E402

NAMED = {
    "cyclic": sympy_groups.CyclicGroup,
    "dihedral": sympy_groups.DihedralGroup,
    "sym": sympy_groups.SymmetricGroup,
    "alt": sympy_groups.AlternatingGroup,
}

SPECS = (
    [f"cyclic:{n}" for n in range(1, 13)]
    + [f"dihedral:{n}" for n in range(1, 9)]
    + [f"sym:{n}" for n in range(1, 7)]
    + [f"alt:{n}" for n in range(3, 7)]
    + ["prod(sym:3,cyclic:3)", "prod(dihedral:4,cyclic:3)", "prod(dihedral:4,cyclic:4)",
       "prod(alt:4,cyclic:2)", "prod(sym:3,sym:3)"]
)


def sympy_group(spec):
    if spec.startswith("prod("):
        return DirectProduct(*(sympy_group(s) for s in spec[5:-1].split(",")))
    kind, n = spec.split(":")
    return NAMED[kind](int(n))


@pytest.mark.parametrize("spec", SPECS)
def test_against_sympy(spec):
    ours, theirs = build_group(spec), sympy_group(spec)
    assert ours.order == theirs.order()
    assert sorted(c.size for c in conjugacy_classes(ours)) == sorted(
        len(c) for c in theirs.conjugacy_classes()
    )
    assert is_nilpotent(ours) == theirs.is_nilpotent


PERMUTATION_BUILTINS = [s for s in BUILTIN_SPECS if s.split(":")[0] in NAMED]


def cycles_of(name):
    return [[int(p) for p in c.split()] for c in re.findall(r"\(([^)]*)\)", name)]


@pytest.mark.parametrize("spec", PERMUTATION_BUILTINS)
def test_normal_structure_against_sympy(spec):
    ours = build_group(spec)
    names = ours.element_names
    degree = max([p for name in names for c in cycles_of(name) for p in c], default=1)

    def perm(name):
        images = list(range(degree))
        for c in cycles_of(name):
            for p, q in zip(c, c[1:] + c[:1]):
                images[p - 1] = q - 1
        return Permutation(images)

    def ours_as_perms(element_set):
        return frozenset(perm(names[i]) for i in element_set)

    def theirs(group):
        return frozenset(group.generate())

    g = PermutationGroup([perm(names[i]) for i in ours.generator_indices])
    assert g.order() == ours.order
    assert ours_as_perms(center(ours)) == theirs(g.center())
    closures = {}
    for cls in conjugacy_classes(ours):
        rep = cls.representative
        closures[rep.index] = theirs(g.normal_closure(perm(rep.name)))
        assert ours_as_perms(normal_closure(rep)) == closures[rep.index]
    nontrivial = {c for c in closures.values() if len(c) > 1}
    minimal = {c for c in nontrivial if not any(d < c for d in nontrivial)}
    if ours.order > 1:
        assert {ours_as_perms(m) for m in minimal_normal_subgroups(ours)} == minimal
