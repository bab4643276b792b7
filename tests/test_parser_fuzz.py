"""Fuzzing of the three text parsers: group specs, .gens files, .cayley files.

Inputs come from each parser's own alphabet plus a superscript digit, an
Arabic-Indic digit, tabs and '#'. Only ClassprodError, ValueError or
OSError may escape, always with a one-line message. A spec that parses
and names no file comes back equal from its canonical string, and the
canonical string is a fixed point. Numbers stay a few digits long, so no
example asks for a large allocation.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from classprod import ClassprodError
from classprod.constructions import GroupSpec
from classprod.group import load_cayley, load_gens

EXTRA = "²٣\t#"
FUZZ = settings(database=None, deadline=None, max_examples=100)

digits = st.text("0123456789" + EXTRA, min_size=0, max_size=4)
prefixes = st.sampled_from(("cyclic", "dihedral", "dih", "sym", "alt", "es", "q8", "file", "bogus"))


@st.composite
def leaves(draw):
    head = draw(prefixes)
    if head == "q8":
        return head
    text = f"{head}:{draw(digits)}"
    if head == "es" and draw(st.booleans()):
        text += f"^{draw(digits)}"
    return text


spec_texts = st.one_of(
    st.recursive(
        leaves(),
        lambda inner: st.lists(inner, min_size=1, max_size=4).map(lambda fs: f"prod({','.join(fs)})"),
        max_leaves=8,
    ),
    st.text("prodcyclisymaltdhe:^(),q8 0123456789" + EXTRA, max_size=30),
)


def escapes_cleanly(call, *args):
    """call(*args), or None if it raised an allowed error with a one-line message."""
    try:
        return call(*args)
    except (ClassprodError, ValueError, OSError) as exc:
        assert "\n" not in str(exc), str(exc)
        return None


@FUZZ
@given(spec_texts)
def test_parse_round_trips_through_canonical(text):
    spec = escapes_cleanly(GroupSpec.parse, text)
    if spec is None:
        return
    canonical = spec.canonical()
    again = GroupSpec.parse(canonical)
    assert again.canonical() == canonical
    if "file:" not in canonical:
        assert again == spec


def load(loader, text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        return escapes_cleanly(loader, path)
    finally:
        os.remove(path)


def file_texts(lines, alphabet):
    line = st.one_of(st.sampled_from(lines), st.text(alphabet, max_size=12))
    return st.lists(line, max_size=6).map("\n".join)


@FUZZ
@given(file_texts(("degree 3", "gen (1 2 3)", "gen (1 2)", "gen ()", "# c"), "degreen()0123456789 -" + EXTRA))
def test_load_gens_raises_only_allowed_errors(text):
    load(load_gens, text)


@FUZZ
@given(file_texts(("1", "2", "0", "0 1", "1 0", "# c"), "0123456789 -" + EXTRA))
def test_load_cayley_raises_only_allowed_errors(text):
    load(load_cayley, text)
