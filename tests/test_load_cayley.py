"""load_cayley: the one-call parse and the per-line loop give the same results.

A well-formed file is parsed by numpy in one call; every irregular file
falls back to the per-line loop, so each error message names the same line
as before, and every table the loop accepts comes back with the same
entries.
"""

import pytest

from classprod import build_group, cayley_rows
from classprod.group import load_cayley, save_cayley


def per_line(path):
    """The per-line reference: one int() per entry."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    return [[int(p) for p in ln.split()] for ln in lines[1:]]


def write(tmp_path, text, name="t.cayley"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("spec", ["cyclic:1", "sym:3", "q8", "alt:5"])
def test_saved_tables_round_trip(tmp_path, spec):
    g = build_group(spec)
    path = str(tmp_path / "g.cayley")
    save_cayley(g, path)
    rows = load_cayley(path)
    assert rows == cayley_rows(g)
    assert all(type(v) is int for row in rows for v in row)


@pytest.mark.parametrize(
    "text",
    [
        "# a comment line\n3\n0 1 2  # trailing comment\n\n1 2 0\n2\t0 1\n",
        "2\n+0 1\n1 00\n",  # signs and leading zeros, as int() reads them
        "2\n0 1_0\n1 0\n",  # '_' separators: int() reads them, numpy does not
        "2\n0 ١\n1 0\n",  # a non-ASCII digit, the same
        "2\n0 4294967296\n1 0\n",  # past int32
        "2\n0 99999999999999999999\n1 0\n",  # past int64
        "2\n0\x0b1\n1\xa00\n",  # other whitespace inside a line
        "1\n-5\n",
    ],
)
def test_accepted_files_match_the_per_line_loop(tmp_path, text):
    path = write(tmp_path, text)
    assert load_cayley(path) == per_line(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: empty file"),
        ("# only a comment\n\n", "{path}: empty file"),
        ("three\n0\n", "{path}: first line must be the order, got 'three'"),
        ("2 2\n0 1\n1 0\n", "{path}: first line must be the order, got '2 2'"),
        ("0\n", "{path}: expected 0 table rows, found 0"),
        ("3\n0 1 2\n1 2 0\n", "{path}: expected 3 table rows, found 2"),
        ("2\n0 1\n1 0\n1 0\n", "{path}: expected 2 table rows, found 3"),
        ("2\n0 1\n1 x\n", "{path}:3: non-integer table entry"),
        ("2\n0 1.0\n1 0\n", "{path}:2: non-integer table entry"),
        ("2\n0 1 0\n1\n", "{path}:2: expected 2 entries, found 3"),
        ("2\n0 1\n1\n", "{path}:3: expected 2 entries, found 1"),
        ("2\n0\n1\n", "{path}:2: expected 2 entries, found 1"),
        ("3\n0 1 2\n1 2 0\n2 0 1 3\n", "{path}:4: expected 3 entries, found 4"),
        # line numbers count the lines left after comments and blanks go
        ("2\n# skipped\n0 1\n\n1 0x1\n", "{path}:3: non-integer table entry"),
    ],
)
def test_error_messages(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ValueError) as info:
        load_cayley(path)
    assert str(info.value) == message.format(path=path)
