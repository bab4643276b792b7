"""A second, independent oracle: sympy's permutation groups.

For the permutation specs up to sym:6 and alt:6, and a few direct products
of them, the order, the sorted class sizes and the nilpotency verdict must
agree with sympy.combinatorics. Skipped when sympy is not installed.
"""

import pytest

sympy_groups = pytest.importorskip("sympy.combinatorics.named_groups")
from sympy.combinatorics.group_constructs import DirectProduct  # noqa: E402

from classprod import build_group, conjugacy_classes, is_nilpotent  # noqa: E402

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
