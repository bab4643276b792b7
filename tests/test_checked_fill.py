"""Every raw table goes through one checked block fill and one inverse search.

Files, row lists and arrays are range-checked a block of rows at a time on
their way into the int16 table, and name the first bad entry alike. A
.cayley file over the order cap is rejected without a table, and
FiniteGroup finds missing inverses with no n x n temporary. Element names
of the wrong length and degrees not in ASCII digits are refused with the
same messages wherever they turn up.
"""

import numpy as np
import pytest

from classprod import NoInverse, OrderExceeded, build_group, from_cayley_table
from classprod.group import FiniteGroup, load_gens

from test_blocked_cayley import traced_peak
from test_cayley_ingest import write_table

INT16_BYTES = np.dtype(np.int16).itemsize


def cyclic_table(n):
    ar = np.arange(n)
    return (ar[:, None] + ar) % n


def test_over_cap_file_is_rejected_without_a_table(tmp_path):
    n = 600
    path = write_table(tmp_path / "c600.cayley", cyclic_table(n))

    def build():
        with pytest.raises(OrderExceeded) as info:
            build_group(f"file:{path}", max_order=500)
        return str(info.value)

    message, peak = traced_peak(build)
    table_bytes = n * n * INT16_BYTES
    assert message == "table of order 600 exceeds the order cap 500"
    assert peak < table_bytes, f"peak {peak} B for a table of {table_bytes} B"


def test_missing_inverses_are_found_without_an_n_by_n_temporary():
    t = build_group("prod(dihedral:8,dihedral:8,dihedral:8)").np_table().copy()
    assert t.flags.owndata and t.flags.writeable and t.flags.c_contiguous
    table_bytes = t.size * INT16_BYTES
    g, peak = traced_peak(lambda: FiniteGroup(t, "d8^3"))
    assert g.order == 4096 and g.np_table() is t
    assert all(g.mul(a, g.inv(a)) == 0 for a in range(g.order))
    assert peak <= 0.1 * table_bytes, f"peak {peak} B for a table of {table_bytes} B"


def test_missing_inverse_is_named_by_the_constructor():
    # the monoid (Z/101, *) listed as 1..100, 0: identity 1 at index 0, and
    # only 0, at index 100, has no inverse
    values = np.r_[1:101, 0]
    index_of = np.r_[100, 0:100]
    t = index_of[values[:, None] * values % 101]
    with pytest.raises(NoInverse) as info:
        FiniteGroup(t, "z101")
    assert info.value.witness == 100


@pytest.mark.parametrize("layout", ["int64", "fortran"])
@pytest.mark.parametrize("build", [FiniteGroup, from_cayley_table])
@pytest.mark.parametrize("entry", [129, -3])
def test_bad_entry_in_the_last_block_is_named(layout, build, entry):
    t = cyclic_table(129)  # the last block holds row 128 alone
    t = t.astype(np.int64) if layout == "int64" else np.asfortranarray(t.astype(np.int16))
    t[128, 5] = entry
    with pytest.raises(ValueError) as info:
        build(t, "c129")
    assert str(info.value) == f"row 128 contains entry {entry} outside 0..128"


def z3_with_identity_at(e):
    """The rows of Z/3 relabeled so that its identity sits at index e."""
    old_of_new = np.roll(np.arange(3), e)
    t = cyclic_table(3)[old_of_new][:, old_of_new]
    new_of_old = np.argsort(old_of_new)
    return new_of_old[t].tolist()


@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("names", [["a", "b"], ["a", "b", "c", "d"]])
def test_element_names_of_the_wrong_length_are_refused(e, names):
    rows = z3_with_identity_at(e)
    assert rows[e] == [0, 1, 2]
    with pytest.raises(ValueError) as info:
        from_cayley_table(rows, "z3", element_names=names)
    assert str(info.value) == f"expected 3 element names, got {len(names)}"


@pytest.mark.parametrize("degree", ["²", "0٣"])
def test_degree_must_be_ascii_digits(tmp_path, degree):
    path = tmp_path / "g.gens"
    path.write_text(f"# not ASCII\ndegree {degree}\ngen (1 2)\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_gens(str(path))
    assert str(info.value) == f"{path}:2: malformed degree line 'degree {degree}'"
