"""Group specs as flat factor lists, checked against the cap before building.

A product's params are its factors in order; a left-nested first factor is
spliced in, a right-nested one stays whole. Every factor's order that the
spec itself gives is multiplied against the cap before any factor is
built. Integer parameters are ASCII digits, and one that int() cannot read
gets a one-line message.
"""

import pytest

from classprod import NotOddPrime, OrderExceeded, build_group, constructions
from classprod.cli import main
from classprod.constructions import GroupSpec

LONG = "prod(" + ",".join(["cyclic:1"] * 1200) + ")"


@pytest.fixture(autouse=True)
def default_cap(monkeypatch):
    monkeypatch.delenv("CLASSPROD_MAX_ORDER", raising=False)


@pytest.fixture
def no_closure(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a factor was built before the product's cap check")

    monkeypatch.setattr(constructions, "close_from_generators", forbidden)
    monkeypatch.setattr(constructions, "_is_prime", forbidden)


def test_long_product_hashes_prints_and_compares():
    spec = GroupSpec.parse(LONG)
    assert len(spec.params) == 1200
    assert hash(spec) == hash(GroupSpec.parse(LONG))
    assert spec == GroupSpec.parse(LONG)
    assert repr(spec).count("GroupSpec(kind='cyclic'") == 1200


def test_left_nesting_is_spliced_and_right_nesting_kept():
    flat = GroupSpec.parse("prod(q8,cyclic:2,sym:3)")
    assert GroupSpec.parse("prod(prod(q8,cyclic:2),sym:3)") == flat
    assert [f.kind for f in flat.params] == ["quaternion8", "cyclic", "symmetric"]
    right = GroupSpec.parse("prod(q8,prod(cyclic:2,sym:3))")
    assert right != flat
    assert len(right.params) == 2 and right.params[1] == GroupSpec.parse("prod(cyclic:2,sym:3)")
    assert right.canonical() == "prod(q8,prod(cyclic:2,sym:3))"
    assert build_group(right).group_id == "prod(q8,prod(cyclic:2,sym:3))"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("prod(cyclic:2048,cyclic:4)", "prod(cyclic:2048,cyclic:4) has order 8192, over the cap 4096"),
        ("prod(sym:7,cyclic:2)", "prod(sym:7,cyclic:2) has order at least 5040, over the cap 4096"),
        ("prod(es:16,cyclic:2)", "prod(es:16,cyclic:2) has order 8192, over the cap 4096"),
        ("prod(sym:1000000000000000000,cyclic:2)", "has order at least 5040, over the cap 4096"),
        ("prod(es:3^1000000000,cyclic:2)", "has order at least 6561, over the cap 4096"),
        ("prod(cyclic:2,prod(q8,dihedral:300))", "has order at least 4800, over the cap 4096"),
    ],
)
def test_product_order_is_checked_before_any_factor(no_closure, spec, message):
    with pytest.raises(OrderExceeded) as info:
        build_group(spec)
    assert str(info.value).endswith(message)


def test_unread_file_factor_makes_the_order_a_bound(no_closure, tmp_path):
    path = tmp_path / "c2.gens"
    path.write_text("degree 2\ngen (1 2)\n")
    with pytest.raises(OrderExceeded, match=r"^prod\(file:c2.gens,cyclic:8192\) has order at least"):
        build_group(f"prod(file:{path},cyclic:8192)")


def test_unit_es_prime_with_many_copies_fails_fast():
    # es:1 gives no order factors, so a billion copies are never counted one by one
    with pytest.raises(NotOddPrime, match="got 1$"):
        build_group("prod(es:1^1000000000,cyclic:2)")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cyclic:" + "9" * 5000, "error: parameter of 'cyclic' has 5000 digits, too many"),
        ("es:" + "9" * 5000, "error: parameter of 'es' has 5000 digits, too many"),
        ("es:3^" + "9" * 5000, "error: parameter of 'es' has 5000 digits, too many"),
        ("cyclic:²", "error: parameter of 'cyclic' must be a positive integer: 'cyclic:²'"),
        ("cyclic:٣", "error: parameter of 'cyclic' must be a positive integer: 'cyclic:٣'"),
        ("es:3^²", "error: bad es power in 'es:3^²'"),
        ("es:٣", "error: bad es prime in 'es:٣'"),
        ("es:3^0", "error: bad es power in 'es:3^0'"),
        ("sym:0", "error: parameter of 'sym' must be >= 1: 'sym:0'"),
    ],
)
def test_parameters_are_ascii_digits(capsys, spec, message):
    assert main(["build", "--group", spec]) == 2
    err = capsys.readouterr().err
    assert err == message + "\n" and len(err) < 140
