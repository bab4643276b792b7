"""Every public one-pair checker refuses an element of another group.

Each call below passes an element, a kernel or a product group that does
not belong to the group being checked; the checker must raise
GroupMismatch rather than report a verdict computed in the wrong group.
"""

import pytest

from classprod import (
    Element,
    ElementSet,
    GroupMismatch,
    build_group,
    direct_product,
    extraspecial_p3,
    verify,
)

S3, D4, ES3, C729 = (build_group(s) for s in ("sym:3", "dihedral:4", "es:3", "cyclic:729"))


def d4(i):
    return Element(D4, i)


CALLS = {
    "theorem-a both foreign": lambda: verify.check_theorem_a(S3, d4(1), d4(1)),
    "theorem-a one foreign": lambda: verify.check_theorem_a(S3, Element(S3, 0), d4(0)),
    "product-formula": lambda: verify.check_product_formula(S3, Element(S3, 1), d4(1)),
    "quotient-monotonicity element": lambda: verify.check_quotient_eta(
        S3, ElementSet(S3, 1), d4(1), Element(S3, 1)
    ),
    "quotient-monotonicity kernel": lambda: verify.check_quotient_eta(
        S3, ElementSet(D4, 1), Element(S3, 1), Element(S3, 1)
    ),
    "center-intersection odd": lambda: verify.check_center_intersection(ES3, Element(C729, 5)),
    "center-intersection even": lambda: verify.check_center_intersection(S3, d4(1)),
    "size2-classes": lambda: verify.check_size2(S3, d4(1), d4(1)),
    "supersolvable-two-power": lambda: verify.check_supersolvable_pow2(S3, d4(1), d4(1)),
    "direct-product-eta a": lambda: verify.check_direct_product_eta(
        ES3, Element(C729, 5), ES3, Element(ES3, 0)
    ),
    "direct-product-eta b": lambda: verify.check_direct_product_eta(
        ES3, Element(ES3, 0), ES3, Element(C729, 5)
    ),
    "direct-product-eta other group": lambda: verify.check_direct_product_eta(
        ES3, Element(ES3, 0), ES3, Element(ES3, 0), product_group=C729
    ),
    "direct-product-eta equal factors": lambda: verify.check_direct_product_eta(
        ES3, Element(ES3, 0), ES3, Element(ES3, 0),
        product_group=direct_product(extraspecial_p3(3), extraspecial_p3(3)),
    ),
}


@pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
def test_one_pair_checker_rejects_a_foreign_argument(call):
    with pytest.raises(GroupMismatch):
        call()


def test_the_product_of_the_same_groups_is_accepted():
    prod = direct_product(ES3, ES3)
    e = Element(ES3, 0)
    report = verify.check_direct_product_eta(ES3, e, ES3, e, product_group=prod)
    assert report.verdict == "holds" and report.group_id == prod.group_id
