"""Hostile group specs fail fast with a typed error and exit code 2.

Each family checks its order against the cap before any work that grows
with its parameter. The expensive step of each family is patched to raise
here, so reaching it fails the test rather than hanging it: the trial
division in _is_prime, the permutation closure, and math.factorial. Long
products are built without recursing once per factor; nesting deeper than
the parser's limit is a ValueError.
"""

import math

import pytest

from classprod import NotOddPrime, OrderExceeded, build_group, constructions
from classprod.cli import main
from classprod.constructions import GroupSpec

OVER_CAP = (
    "es:1000000000000000003",
    "cyclic:5000",
    "dihedral:3000",
    "sym:20000",
    "alt:20000",
    "sym:300000",
)


@pytest.fixture(autouse=True)
def default_cap(monkeypatch):
    monkeypatch.delenv("CLASSPROD_MAX_ORDER", raising=False)


def _forbidden(*args, **kwargs):
    raise AssertionError("expensive step reached before the cap check")


@pytest.fixture
def no_expensive_steps(monkeypatch):
    monkeypatch.setattr(constructions, "_is_prime", _forbidden)
    monkeypatch.setattr(constructions, "close_from_generators", _forbidden)
    monkeypatch.setattr(math, "factorial", _forbidden)


def left_nested(count):
    text = "cyclic:1"
    for _ in range(count - 1):
        text = f"prod({text},cyclic:1)"
    return text


def nested(depth):
    """A left- and a right-nested product, each depth prod(...) levels deep."""
    right = "cyclic:1"
    for _ in range(depth):
        right = f"prod(cyclic:1,{right})"
    return left_nested(depth + 1), right


@pytest.mark.parametrize("spec", OVER_CAP)
def test_over_cap_raises_before_expensive_work(no_expensive_steps, spec):
    with pytest.raises(OrderExceeded) as info:
        build_group(spec)
    message = str(info.value)
    assert message.startswith(f"{spec} has order ")
    assert message.endswith("over the cap 4096")
    assert len(message) < 120


@pytest.mark.parametrize("spec", OVER_CAP)
def test_cli_exits_2_with_short_message(no_expensive_steps, capsys, spec):
    assert main(["build", "--group", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "over the cap" in err and len(err) < 140


def test_messages_for_small_inputs_name_the_order():
    with pytest.raises(OrderExceeded, match=r"^sym:7 has order 5040, over the cap 4096$"):
        constructions.symmetric(7)
    with pytest.raises(OrderExceeded, match=r"^alt:8 has order 20160, over the cap 4096$"):
        constructions.alternating(8)
    with pytest.raises(OrderExceeded, match=r"^es:17 has order 4913, over the cap 4096$"):
        constructions.extraspecial_p3(17)
    with pytest.raises(OrderExceeded, match=r"^witness for n=17 has order 4913, over"):
        constructions.odd_eta1_witness(17)
    with pytest.raises(OrderExceeded, match=r"^cyclic:4097 has order 4097, over"):
        constructions.cyclic(4097)
    with pytest.raises(OrderExceeded, match=r"^dihedral:2049 has order 4098, over"):
        constructions.dihedral(2049)


def test_partial_order_is_named_as_a_bound():
    with pytest.raises(OrderExceeded, match=r"^sym:8 has order at least 5040, over the cap 4096$"):
        constructions.symmetric(8)


def test_long_product_builds_with_unchanged_id(capsys):
    text = "prod(" + ",".join(["cyclic:1"] * 1200) + ")"
    expected = left_nested(1200)
    assert GroupSpec.parse(text).canonical() == expected
    g = build_group(text)
    assert g.order == 1 and g.group_id == expected
    assert main(["build", "--group", text]) == 0
    assert capsys.readouterr().out.startswith(f"{expected}: order 1,")


def test_long_product_with_real_factors():
    text = "prod(cyclic:2," + ",".join(["cyclic:1"] * 1100) + ",cyclic:3)"
    g = build_group(text)
    assert g.order == 6
    assert g.group_id == GroupSpec.parse(text).canonical()
    assert g.group_id.startswith("prod(prod(prod(") and g.group_id.endswith(",cyclic:3)")


@pytest.mark.parametrize("depth", [50, 100])
def test_nesting_within_the_limit_builds(depth):
    for text in nested(depth):
        assert build_group(text).group_id == text


@pytest.mark.parametrize("depth", [101, 1500])
def test_deep_nesting_is_a_value_error(capsys, depth):
    for text in nested(depth):
        with pytest.raises(ValueError, match="nested more than 100 deep"):
            GroupSpec.parse(text)
        assert main(["build", "--group", text]) == 2
        err = capsys.readouterr().err
        assert err == "error: prod(...) nested more than 100 deep\n"


def test_bad_es_primes_keep_their_type():
    for p in (2, 4, 9, 15):
        with pytest.raises(NotOddPrime):
            constructions.extraspecial_p3(p)
