"""Every table is int16, so no table may index past 32767.

The order cap cannot be raised past TABLE_ORDER_LIMIT (32768), by the
environment or by a max_order argument, so no builder allocates a table
whose indices would wrap. A table from outside is range-checked before it is
narrowed, and building the order-3375 group holds little beyond its one
int16 table.
"""

import math
import tracemalloc

import numpy as np
import pytest

from classprod import OrderExceeded, build_group, cayley_rows, from_cayley_table
from classprod import constructions
from classprod.cli import main
from classprod.constructions import cyclic, direct_product, extraspecial_p3, symmetric
from classprod.group import (
    TABLE_ORDER_LIMIT,
    FiniteGroup,
    close_from_generators,
    max_order_cap,
)
from classprod.perm import Permutation

PAST_THE_LIMIT = 10**6  # a max_order far above what an int16 table can index


@pytest.fixture(autouse=True)
def default_cap(monkeypatch):
    monkeypatch.delenv("CLASSPROD_MAX_ORDER", raising=False)


class TestEnvironmentCap:
    def test_past_the_limit_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("CLASSPROD_MAX_ORDER", "32769")
        with pytest.raises(ValueError, match="must be at most 32768"):
            max_order_cap()
        assert main(["build", "--group", "cyclic:2"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: CLASSPROD_MAX_ORDER must be at most 32768")
        assert captured.err.endswith("got 32769\n")

    def test_at_the_limit_is_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("CLASSPROD_MAX_ORDER", "32768")
        assert max_order_cap() == 32768
        assert main(["build", "--group", "cyclic:2"]) == 0
        # the default cap refuses this order; the raised one does not
        assert direct_product(cyclic(65), cyclic(64)).order == 4160


@pytest.fixture
def no_big_work(monkeypatch):
    """Should a builder get past the limit, fail at once instead of allocating gigabytes."""
    empty = np.empty

    def guarded_empty(shape, *args, **kwargs):
        if math.prod(shape if isinstance(shape, tuple) else (shape,)) > TABLE_ORDER_LIMIT**2:
            raise AssertionError(f"an array of shape {shape} was allocated")
        return empty(shape, *args, **kwargs)

    def no_closure(*args, **kwargs):
        raise AssertionError("a closure started before the order check")

    monkeypatch.setattr(np, "empty", guarded_empty)
    monkeypatch.setattr(constructions, "close_from_generators", no_closure)


class TestMaxOrderArgument:
    def test_is_cut_down_to_the_limit(self):
        assert max_order_cap(PAST_THE_LIMIT) == TABLE_ORDER_LIMIT
        assert max_order_cap(100) == 100

    def test_closure_stops_at_the_limit(self, no_big_work):
        # sym:8 has order 40320; the search stops at element 32769
        gens = [Permutation.from_cycles(8, [(1, 2)]), Permutation.from_cycles(8, [tuple(range(1, 9))])]
        with pytest.raises(OrderExceeded, match="exceeds the order cap 32768"):
            close_from_generators(gens, "sym8", max_order=PAST_THE_LIMIT)

    @pytest.mark.parametrize(
        "build",
        [
            lambda groups: cyclic(TABLE_ORDER_LIMIT + 1, max_order=PAST_THE_LIMIT),
            lambda groups: symmetric(8, max_order=PAST_THE_LIMIT),
            lambda groups: extraspecial_p3(37, max_order=PAST_THE_LIMIT),
            lambda groups: build_group("prod(sym:5,sym:6)", max_order=PAST_THE_LIMIT),
            lambda groups: direct_product(groups["sym:5"], groups["sym:6"], max_order=PAST_THE_LIMIT),
        ],
        ids=["cyclic", "symmetric", "extraspecial", "prod-spec", "direct_product"],
    )
    def test_builders_refuse_orders_past_the_limit(self, groups, no_big_work, build):
        with pytest.raises(OrderExceeded, match="over the cap 32768"):
            build(groups)

    def test_raw_tables_past_the_limit(self):
        rows = [[]] * (TABLE_ORDER_LIMIT + 1)  # the length alone decides
        with pytest.raises(OrderExceeded, match="exceeds the order cap 32768"):
            from_cayley_table(rows, "big", max_order=PAST_THE_LIMIT)
        with pytest.raises(OrderExceeded, match="over the int16 limit 32768"):
            FiniteGroup(rows, "big")


class TestNarrowing:
    @staticmethod
    def wrapping_table(kind):
        """The table of sym:3 with one entry 5 written as 65541, which int16 wraps to 5."""
        rows = cayley_rows(build_group("sym:3"))
        a, b = next((a, b) for a in range(1, 6) for b in range(1, 6) if rows[a][b] == 5)
        rows[a][b] = 65536 + 5
        return a, (rows if kind == "list" else np.array(rows, dtype=kind))

    @pytest.mark.parametrize("kind", ["list", "int64", "int32"])
    def test_entry_past_int16_is_named(self, kind):
        a, table = self.wrapping_table(kind)
        with pytest.raises(ValueError) as info:
            FiniteGroup(table, "wraps")
        assert str(info.value) == f"row {a} contains entry 65541 outside 0..5"

    def test_negative_entry_is_named(self):
        rows = cayley_rows(build_group("sym:3"))
        rows[2][3] = -1
        with pytest.raises(ValueError, match=r"^row 2 contains entry -1 outside 0\.\.5$"):
            FiniteGroup(rows, "negative")

    @pytest.mark.parametrize("kind", ["list", "int64", "int32"])
    def test_from_cayley_table_names_it_too(self, kind):
        a, table = self.wrapping_table(kind)
        with pytest.raises(ValueError) as info:
            from_cayley_table(table, "wraps")
        assert str(info.value) == f"row {a} contains entry 65541 outside 0..5"


def test_order_3375_build_holds_little_beyond_its_table(monkeypatch):
    monkeypatch.setattr(constructions, "_BUILD_CACHE", {})  # build it, not a cached copy
    tracemalloc.start()
    try:
        g = build_group("prod(es:3,es:5)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = g.order * g.order * np.dtype(np.int16).itemsize
    assert g.np_table().nbytes == table_bytes
    assert peak < 1.25 * table_bytes, f"peak {peak} B for a table of {table_bytes} B"
