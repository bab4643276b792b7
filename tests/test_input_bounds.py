"""Hostile inputs fail fast with a typed error, a short message and exit 2.

A .gens file may not declare a degree over the order cap: the 25-byte file
below used to build million-point permutations before any other check. An
order past 64 bits is named by a power of ten below it, so an order whose
decimal form passes Python's 4,300-digit str limit never reaches str(); a
degree or an element selector's integer past the same limit never reaches
int(). Selector integers and .gens cycle points are ASCII digits only. A
value read from a file or the environment is quoted in an error line by at
most its first 40 characters and its length.
"""

import pytest

from classprod import InvalidPermutation, OrderExceeded, build_group
from classprod.cli import main
from classprod.group import load_gens, max_order_cap
from classprod.perm import Permutation


@pytest.fixture(autouse=True)
def default_cap(monkeypatch):
    monkeypatch.delenv("CLASSPROD_MAX_ORDER", raising=False)


@pytest.fixture
def big_degree(tmp_path, monkeypatch):
    path = tmp_path / "big.gens"
    path.write_text("degree 1000000\ngen (1 2)\n")
    assert path.stat().st_size == 25

    def forbidden(*args, **kwargs):
        raise AssertionError("a permutation was built before the degree check")

    monkeypatch.setattr(Permutation, "parse", forbidden)
    monkeypatch.setattr(Permutation, "identity", forbidden)
    return path


def test_gens_degree_over_the_cap_is_rejected_first(big_degree):
    with pytest.raises(OrderExceeded, match=r":1: degree 1000000 is over the cap 4096$"):
        load_gens(str(big_degree))


def test_cli_exits_2_on_a_degree_over_the_cap(big_degree, capsys):
    assert main(["build", "--group", f"file:{big_degree}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {big_degree}:1: degree 1000000 is over the cap 4096\n"


def test_gens_degree_at_the_cap_loads(tmp_path):
    path = tmp_path / "c2.gens"
    path.write_text("degree 4096\ngen (1 4096)\n")
    assert build_group(f"file:{path}").order == 2


def test_order_past_the_str_digit_limit_is_named_by_a_bound(capsys):
    spec = "prod(cyclic:4096,cyclic:" + "9" * 4300 + ")"
    assert main(["build", "--group", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: prod(cyclic:4096,cyclic:999")
    assert err.endswith(" has order at least 10^4303, over the cap 4096\n")


def test_orders_within_64_bits_are_printed_exactly():
    largest = 2**64 - 1
    with pytest.raises(OrderExceeded, match=rf"^cyclic:{largest} has order {largest},"):
        build_group(f"cyclic:{largest}")
    with pytest.raises(OrderExceeded, match=rf"^cyclic:{largest + 1} has order at least 10\^19,"):
        build_group(f"cyclic:{largest + 1}")


def test_gens_degree_past_the_str_digit_limit_is_over_the_cap(tmp_path, capsys):
    path = tmp_path / "huge.gens"
    path.write_text("degree " + "9" * 5000 + "\ngen (1 2)\n")
    with pytest.raises(OrderExceeded, match=r":1: degree at least 10\^4999 is over the cap 4096$"):
        load_gens(str(path))
    assert main(["build", "--group", f"file:{path}"]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: degree at least 10^4999 is over the cap 4096\n"


# -- element selectors: ASCII digits, and no integer past int()'s limit ------


@pytest.mark.parametrize(
    "selector", ["9" * 5000, "g0^" + "9" * 5000, "g" + "9" * 5000, "g0*g1^-" + "9" * 5000],
    ids=["index", "exponent", "generator", "second-exponent"],
)
def test_selector_past_the_str_digit_limit_is_one_line(selector, capsys):
    assert main(["product", "--group", "q8", "-a", selector, "-b", "0"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: element selector {selector[:40]!r}... has an integer of 5000 digits, too many\n"


@pytest.mark.parametrize("selector", ["٣", "g٠", "g0^٢", "-٣"], ids=["index", "generator", "exponent", "negative"])
def test_selector_digits_are_ascii(selector, capsys):
    assert main(["product", "--group", "q8", "-a", selector, "-b", "0"]) == 2
    assert capsys.readouterr().err == f"error: cannot resolve element selector {selector!r} in q8\n"


# -- cycle points in .gens files: ASCII digits --------------------------------


@pytest.mark.parametrize("cycle", ["(١ 2)", "(1 ²)"], ids=["arabic-indic", "superscript"])
def test_cycle_points_are_ascii_digits(cycle):
    with pytest.raises(InvalidPermutation) as info:
        Permutation.parse(3, cycle)
    assert str(info.value) == f"non-integer point in {cycle!r}"


@pytest.mark.parametrize("cycle", ["(١ 2)", "(1 ²)"], ids=["arabic-indic", "superscript"])
def test_cli_exits_2_on_a_non_ascii_cycle_point(tmp_path, cycle, capsys):
    path = tmp_path / "x.gens"
    path.write_text(f"degree 3\ngen {cycle}\n", encoding="utf-8")
    assert main(["build", "--group", f"file:{path}"]) == 2
    assert capsys.readouterr().err == f"error: {path}:2: non-integer point in {cycle!r}\n"


# -- values from files and the environment: at most 40 characters echoed -------

LONG = {"nines-4000": "9" * 4000, "nines-5000": "9" * 5000, "x-5000": "x" * 5000}
ECHOES = (
    [pytest.param({"CLASSPROD_MAX_ORDER": v}, None, None, id=f"env-{k}") for k, v in LONG.items()]
    + [pytest.param({}, "g.cayley", v + "\n0\n", id=f"cayley-{k}") for k, v in LONG.items()]
    + [
        pytest.param({}, "g.gens", "degree 3\n" + "y" * 5000 + "\n", id="gens-unknown-line"),
        pytest.param({}, "g.gens", "degree " + "x" * 5000 + "\n", id="gens-degree"),
        pytest.param({}, "g.gens", "degree 3\ngen (" + "9" * 4000 + ")\n", id="gens-point"),
        pytest.param({}, "g.gens", "degree 3\ngen (" + "9" * 5000 + ")\n", id="gens-point-past-int"),
        pytest.param({}, "g.gens", "degree 3\ngen " + "z" * 5000 + "\n", id="gens-cycle-text"),
    ]
)


@pytest.mark.parametrize("env,name,text", ECHOES)
def test_a_long_value_is_echoed_in_one_short_line(env, name, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if name is not None:
        (tmp_path / name).write_text(text)
    assert main(["build", "--group", f"file:{name}" if name else "cyclic:5"]) == 2
    err = capsys.readouterr().err.encode()
    assert err.count(b"\n") == 1 and err.endswith(b"\n")
    assert len(err) < 200, err[:300]


@pytest.mark.parametrize("digits", [4000, 5000])
def test_an_env_cap_past_the_limit_is_too_large_whatever_its_length(digits, monkeypatch):
    monkeypatch.setenv("CLASSPROD_MAX_ORDER", "9" * digits)
    with pytest.raises(ValueError) as info:
        max_order_cap()
    assert str(info.value) == (
        "CLASSPROD_MAX_ORDER must be at most 32768, the largest order an int16 table can"
        f" index, got {'9' * 40}... ({digits} digits)"
    )
