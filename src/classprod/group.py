"""Finite groups as immutable multiplication tables over integer indices.

Every table is one read-only C-order int16 array, so no group may have more
than TABLE_ORDER_LIMIT = 32768 elements; every builder checks its order
against that limit before it allocates a table.
"""

from __future__ import annotations

import math
import os
import re
from collections import deque
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    GroupMismatch,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    OrderExceeded,
    _shown,
)
from .perm import Permutation

DEFAULT_MAX_ORDER = 4096
MAX_ORDER_ENV = "CLASSPROD_MAX_ORDER"
# The most elements an int16 table can index: entries run 0..32767.
TABLE_ORDER_LIMIT = int(np.iinfo(np.int16).max) + 1


def max_order_cap(max_order: Optional[int] = None) -> int:
    """Effective order cap: max_order if given, else CLASSPROD_MAX_ORDER, else 4096.

    CLASSPROD_MAX_ORDER must be an integer in 1..TABLE_ORDER_LIMIT, or
    ValueError; a max_order argument above the limit is cut down to it.
    """
    if max_order is not None:
        return min(max_order, TABLE_ORDER_LIMIT)
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
        digits = str(cap)
    except ValueError:  # not an integer, or one past int()'s limit on digits
        m = re.fullmatch(r"\s*([+-]?)0*([0-9]+)\s*", raw)
        if m is None:
            raise ValueError(f"{MAX_ORDER_ENV} must be an integer, got {_shown(raw)}") from None
        cap = int(m[1] + m[2][:6])  # six digits are out of range exactly when the whole is
        digits = m[1].lstrip("+") + m[2]
    shown = _shown(digits, quote=False)
    if cap < 1:
        raise ValueError(f"{MAX_ORDER_ENV} must be positive, got {shown}")
    if cap > TABLE_ORDER_LIMIT:
        raise ValueError(
            f"{MAX_ORDER_ENV} must be at most {TABLE_ORDER_LIMIT}, the largest order"
            f" an int16 table can index, got {shown}"
        )
    return cap


_BLOCK_ROWS = 64  # rows per block of every raw table's fill and of table validation


def _blocks(t: np.ndarray) -> Iterator[np.ndarray]:
    return (t[r : r + _BLOCK_ROWS] for r in range(0, len(t), _BLOCK_ROWS))


def _fill(blocks: Iterator[np.ndarray], n: int) -> np.ndarray:
    """A fresh C-order int16 n x n table of blocks of rows, each checked to lie in
    0..n-1 before the cast, which would wrap it; ValueError names the first bad
    entry as a plain int once every block is read, so a later block may fail first.
    The table is made at the first block that passes, so a fault there costs none."""
    table, i, fault = None, 0, None
    for block in blocks:
        if fault is None:
            bad = (block < 0) | (block >= n)
            if bad.any():
                r, c = divmod(int(np.argmax(bad)), n)
                fault = f"row {i + r} contains entry {int(block[r, c])!r} outside 0..{n - 1}"
            else:
                if table is None:
                    table = np.empty((n, n), dtype=np.int16)
                table[i : i + len(block)] = block
        i += len(block)
    if fault is not None:
        raise ValueError(fault)
    return table


class FiniteGroup:
    """A finite group on indices 0..order-1, index 0 being the identity.

    The table is one read-only int16 n x n array, np_table(), so order is
    at most TABLE_ORDER_LIMIT (32768); table[a] is row a as a zero-copy
    memoryview of it, so table[a][b] is the product a*b. A direct product
    (from_factors) keeps its factors in factors, empty for any other group,
    and fills its table on first read. The constructor takes a table through
    the checked fill that from_cayley_table uses, which names the first bad
    row or entry, and adopts with no copy only an owned, writable C-order
    int16 n x n array with entries in 0..n-1. It checks the identity row
    and column and the inverses, but not associativity: class data of a
    table that is no group is meaningless, so untrusted tables belong in
    from_cayley_table, which checks everything. With no inverse_table, a's
    inverse is the first x with a*x = e, searched a block of rows at a time;
    either way NoInverse names the first a without one. Elements are
    ordered by construction: breadth-first discovery order for generator
    input, canonicalized table order (identity moved to the front) for raw
    table input. Instances are treated as immutable; derived data such as
    conjugacy classes is cached on first use under _cache, which classalg
    alone fills, with ints, bools, numpy arrays and containers of those
    only, so that no cached value refers back to a group.
    """

    identity_index = 0

    __slots__ = (
        "order",
        "group_id",
        "table",
        "inverse_table",
        "element_names",
        "named_elements",
        "generator_indices",
        "factors",
        "_np_table",
        "_cache",
    )

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        group_id: str,
        element_names: Optional[List[str]] = None,
        named_elements: Optional[Dict[str, int]] = None,
        generator_indices: Tuple[int, ...] = (),
        inverse_table: Optional[List[int]] = None,
    ):
        n = len(table)
        if n == 0:
            raise NoIdentity("empty multiplication table")
        _check_limit(n, group_id)
        owned = (isinstance(table, np.ndarray) and table.dtype == np.int16 and table.shape == (n, n)
                 and table.flags.carray and table.flags.owndata)  # carray: C-order, writable
        # one pass over an owned table: a negative entry reads as 32768 or more here
        t = table if owned and table.view(np.uint16).max() < n else _table_array(table, n, group_id)
        ar = np.arange(n)
        if not np.array_equal(t[0], ar):
            raise NoIdentity(f"row 0 of {group_id!r} is not the identity row")
        if not np.array_equal(t[:, 0], ar):
            raise NoIdentity(f"column 0 of {group_id!r} is not the identity column")
        if inverse_table is None:
            inverse_table = _right_inverses(t, 0)
        inverse_table = _checked_inverses(t, inverse_table, group_id)
        self._describe(n, group_id, element_names, named_elements, generator_indices, inverse_table)
        self.factors: Tuple[FiniteGroup, ...] = ()
        self._set_table(t)

    @classmethod
    def _on_table_of(
        cls,
        owner: "FiniteGroup",
        group_id: str,
        element_names: Optional[List[str]],
        generator_indices: Tuple[int, ...],
        inverse_table: Sequence[int],
    ) -> "FiniteGroup":
        """A group on owner's frozen table and row views, shared with no copy.

        Only a table another group already owns frozen comes in here, never
        a caller's array, so nothing can write to it. The new group has its
        own caches; its inverses are checked against the table.
        """
        t = owner.np_table()
        group = cls.__new__(cls)
        inverse_table = _checked_inverses(t, inverse_table, group_id)
        group._describe(owner.order, group_id, element_names, None, generator_indices, inverse_table)
        group.factors = ()
        group._np_table, group.table = t, owner.table
        return group

    @classmethod
    def from_factors(
        cls,
        factors: Sequence["FiniteGroup"],
        group_id: str,
        element_names: Optional[List[str]],
        generator_indices: Tuple[int, ...],
        inverse_table: Sequence[int],
    ) -> "FiniteGroup":
        """The direct product of factors, x-major: (x_1, ..., x_m) is index
        sum_i x_i * |F_i+1| * ... * |F_m|.

        factors is one flat tuple of groups that are not products. Class data,
        commutator sets and subgroup tests of product-shaped sets are read
        from the factors (classalg); the table is filled from the factors'
        tables on the first read of table or np_table(), and is then the
        same read-only int16 array as any group's.
        """
        n = math.prod(f.order for f in factors)
        _check_limit(n, group_id)
        group = cls.__new__(cls)
        group._describe(n, group_id, element_names, None, generator_indices, inverse_table)
        group.factors = tuple(factors)
        return group

    def __getattr__(self, name: str):
        # reached only for a product whose table slots are still unset
        if name not in ("table", "_np_table") or not self.factors:
            raise AttributeError(name)
        t = self.factors[0].np_table()
        for k in self.factors[1:]:
            go, ko = len(t), k.order
            # g * ko <= n - ko < 32768, and 0 when |g| = 1 even for ko = 32768
            scaled = (t.astype(np.int32) * ko).astype(np.int16)
            t = np.empty((go * ko, go * ko), dtype=np.int16)
            np.add(scaled[:, None, :, None], k.np_table()[None, :, None, :],
                   out=t.reshape(go, ko, go, ko))
        self._set_table(t)
        return object.__getattribute__(self, name)

    def _describe(
        self,
        n: int,
        group_id: str,
        element_names: Optional[List[str]],
        named_elements: Optional[Dict[str, int]],
        generator_indices: Tuple[int, ...],
        inverse_table: Sequence[int],
    ) -> None:
        """Everything but the table, checked against the order n."""
        self.order = n
        self.group_id = group_id
        self.inverse_table = list(inverse_table)
        if element_names is not None and len(element_names) != n:
            raise ValueError(f"expected {n} element names, got {len(element_names)}")
        self.element_names = element_names
        self.named_elements = dict(named_elements or {})
        for g in generator_indices:
            if not 0 <= g < n:
                raise ValueError(f"generator index {g} of {group_id!r} outside 0..{n - 1}")
        self.generator_indices = tuple(generator_indices)
        self._cache: Dict[str, object] = {}

    def _set_table(self, t: np.ndarray) -> None:
        t.setflags(write=False)
        flat = memoryview(t.reshape(-1))
        n = self.order
        self._np_table = t
        self.table = [flat[i * n : (i + 1) * n] for i in range(n)]

    # -- index-level arithmetic ------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse_table[a]

    def conj(self, a: int, g: int) -> int:
        """a conjugated by g, that is g^-1 * a * g."""
        t = self.table
        return t[t[self.inverse_table[g]][a]][g]

    def comm(self, a: int, g: int) -> int:
        """The commutator a^-1 * a^g."""
        return self.table[self.inverse_table[a]][self.conj(a, g)]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse_table[a], -k)
        acc = 0
        while k:
            if k & 1:
                acc = self.table[acc][a]
            a = self.table[a][a]
            k >>= 1
        return acc

    def order_of(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    # -- element accessors -------------------------------------------------

    def element(self, index: int) -> "Element":
        return Element(self, index)

    def elements(self) -> Iterator["Element"]:
        for i in range(self.order):
            yield Element(self, i)

    def name_of(self, index: int) -> str:
        if self.element_names is not None:
            return self.element_names[index]
        return str(index)

    def np_table(self) -> np.ndarray:
        """The table itself: read-only, shared with the rows of self.table."""
        return self._np_table

    def __repr__(self) -> str:
        return f"FiniteGroup({self.group_id!r}, order={self.order})"


def _check_limit(n: int, group_id: str) -> None:
    if n > TABLE_ORDER_LIMIT:
        raise OrderExceeded(
            f"table of {group_id!r} has order {n}, over the int16 limit {TABLE_ORDER_LIMIT}"
        )


def _right_inverses(t: np.ndarray, e: int) -> np.ndarray:
    """For each x the first y with x*y = e, or 0 where there is none."""
    return np.concatenate([(block == e).argmax(axis=1) for block in _blocks(t)])


def _checked_inverses(t: np.ndarray, inverse_table: Sequence[int], group_id: str) -> List[int]:
    """inverse_table as a list of ints, checked in O(n) to hold, for every a, an
    x in 0..n-1 with a*x = e; NoInverse names the first a whose entry fails."""
    n = len(t)
    inverse = np.asarray(inverse_table)
    if inverse.shape != (n,) or inverse.dtype.kind not in "iu":
        raise ValueError(
            f"expected {n} integer inverses for {group_id!r}, got shape {inverse.shape}"
            f" of dtype {inverse.dtype}"
        )
    ok = (inverse >= 0) & (inverse < n)
    ok[ok] = t[np.flatnonzero(ok), inverse[ok]] == 0
    if not ok.all():
        raise NoInverse(int(np.argmin(ok)))
    return inverse.tolist()


class Element:
    """A group element; an index bound to the group that owns it."""

    __slots__ = ("group", "index")

    def __init__(self, group: FiniteGroup, index: int):
        if not 0 <= index < group.order:
            raise ValueError(f"index {index} outside 0..{group.order - 1} for {group.group_id!r}")
        self.group = group
        self.index = index

    @property
    def group_id(self) -> str:
        return self.group.group_id

    @property
    def name(self) -> str:
        return self.group.name_of(self.index)

    def __mul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.index == other.index
            and self.group is other.group
        )

    def __hash__(self) -> int:
        return hash((self.group.group_id, self.index))

    def __repr__(self) -> str:
        return f"<{self.name} #{self.index} in {self.group_id}>"


def _require_same_group(a: Element, b: Element) -> None:
    if a.group is not b.group:
        raise GroupMismatch(f"elements of different groups: {a.group_id!r} vs {b.group_id!r}")


def mul(a: Element, b: Element) -> Element:
    _require_same_group(a, b)
    return Element(a.group, a.group.mul(a.index, b.index))


def inv(a: Element) -> Element:
    return Element(a.group, a.group.inv(a.index))


def conjugate(a: Element, g: Element) -> Element:
    """g^-1 * a * g."""
    _require_same_group(a, g)
    return Element(a.group, a.group.conj(a.index, g.index))


def commutator(a: Element, g: Element) -> Element:
    """a^-1 * a^g, written [a, g]."""
    _require_same_group(a, g)
    return Element(a.group, a.group.comm(a.index, g.index))


def element_order(a: Element) -> int:
    return a.group.order_of(a.index)


# -- construction from generators ---------------------------------------


def close_from_generators(
    gens: Sequence[Permutation],
    group_id: str,
    max_order: Optional[int] = None,
) -> FiniteGroup:
    """Breadth-first closure of permutation generators into a full group.

    Discovery order is deterministic: the queue is seeded with the identity
    and neighbors are produced by right multiplication in generator-list
    order, so element indices depend only on the generator sequence.

    The search also records the Cayley graph: right[k][i] is the index of
    elems[i] * gens[k], and element b was first reached as
    elems[parent[b]] * gens[via[b]]. The table then follows one column at a
    time, a * b = (a * parent[b]) * gens[via[b]], as a gather over all a.
    """
    if not gens:
        raise InvalidPermutation("at least one generator is required")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise InvalidPermutation(f"generators disagree on degree: {g.degree} vs {degree}")
    cap = max_order_cap(max_order)

    identity = Permutation.identity(degree)
    elems: List[Permutation] = [identity]
    index: Dict[Tuple[int, ...], int] = {identity.images: 0}
    parent, via = [0], [0]
    right: List[List[int]] = [[] for _ in gens]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        p = elems[i]
        for k, g in enumerate(gens):
            q = p * g
            j = index.get(q.images)
            if j is None:
                if len(elems) >= cap:
                    raise OrderExceeded(
                        f"closure of {group_id!r} exceeds the order cap {cap}"
                    )
                j = index[q.images] = len(elems)
                elems.append(q)
                parent.append(i)
                via.append(k)
                queue.append(j)
            right[k].append(j)

    n = len(elems)
    steps = np.asarray(right, dtype=np.int16)
    t = np.empty((n, n), dtype=np.int16)
    t[:, 0] = np.arange(n, dtype=np.int16)
    for b in range(1, n):
        t[:, b] = steps[via[b]][t[:, parent[b]]]
    names = [p.cycle_string() for p in elems]
    gen_indices = tuple(index[g.images] for g in gens)
    return FiniteGroup(t, group_id, element_names=names, generator_indices=gen_indices)


# -- construction from a raw table --------------------------------------

def _check_cap(n: int, max_order: Optional[int]) -> None:
    """Raise OrderExceeded when a raw table of order n is over the order cap."""
    cap = max_order_cap(max_order)
    if n > cap:
        raise OrderExceeded(f"table of order {n} exceeds the order cap {cap}")


def from_cayley_table(
    rows: Sequence[Sequence[int]],
    group_id: str,
    element_names: Optional[Sequence[str]] = None,
    max_order: Optional[int] = None,
) -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a FiniteGroup.

    Checks, in order: the order cap, shape and entry range, a two-sided
    identity, associativity (Light's test, with the cubic scan naming the
    first failing triple), and two-sided inverses, on a copy of rows.
    Elements are then relabeled so the identity is index 0; other elements
    keep their relative order.
    """
    n = len(rows)
    if n == 0:
        raise NoIdentity("empty multiplication table")
    _check_cap(n, max_order)
    return _group_of_table(_table_array(rows, n, group_id), group_id, element_names)


def _group_of_table(
    t: np.ndarray, group_id: str, element_names: Optional[Sequence[str]] = None
) -> FiniteGroup:
    """from_cayley_table past the entry range, on an int16 table t that it takes
    over; no check makes an n x n temporary, and t is relabeled in place."""
    n = len(t)
    ar = np.arange(n)
    # a two-sided identity e has e*0 = 0, so only those rows are candidates
    candidates = np.flatnonzero(t[:, 0] == 0).tolist()
    is_e = (x for x in candidates if np.array_equal(t[x], ar) and np.array_equal(t[:, x], ar))
    e = next(is_e, None)
    if e is None:
        raise NoIdentity("no two-sided identity element")

    if not _light_test(t, e):
        _cubic_associativity(t)  # undecided: name the first failing triple, or pass

    y = _right_inverses(t, e)
    ok = (t[ar, y] == e) & (t[y, ar] == e)
    if not ok.all():
        raise NoInverse(int(np.argmin(ok)))

    names = list(element_names) if element_names is not None else None
    if names is not None and len(names) != n:  # before the relabeling reads them
        raise ValueError(f"expected {n} element names, got {len(names)}")
    if e != 0:
        old_order = np.r_[e, 0:e, e + 1 : n]
        new_of_old = np.empty(n, dtype=np.int16)
        new_of_old[old_order] = ar
        # new row i > 0 is old row old_order[i] <= i, so filled from the last
        # block down no row is overwritten before it is read; new row 0 is ar
        for r in reversed(range(0, n, _BLOCK_ROWS)):
            rows = old_order[r : r + _BLOCK_ROWS]
            t[r : r + len(rows)] = new_of_old[t[rows][:, old_order]]
        t[0] = ar
        y = new_of_old[y[old_order]]
        if names is not None:
            names = [names[old] for old in old_order.tolist()]
    return FiniteGroup(t, group_id, element_names=names, inverse_table=y.tolist())


def _table_array(rows: Sequence[Sequence[int]], n: int, group_id: str) -> np.ndarray:
    """rows as a fresh n x n int16 array; ValueError names the first bad row or entry.

    An array must be n x n. An integer array, or rows that numpy reads as
    n-wide integer blocks, go through _fill a block of rows at a time, so no
    wider whole-table array is made. Anything else (ragged rows, bools,
    floats, ints past int64, in any block) takes the per-entry loop from row
    0, which decides exactly which rows and entries are accepted and hands
    _fill one checked row at a time.
    """
    if isinstance(rows, np.ndarray):
        if rows.shape != (n, n):
            raise ValueError(f"table of {group_id!r} is not square: shape {rows.shape}")
        if rows.dtype.kind in "iu":
            return _fill(_blocks(rows), n)
    else:
        try:
            return _fill(_int_blocks(rows, n), n)
        except _NotIntRows:
            pass
    return _fill(_checked_rows(rows, n), n)


def _checked_rows(rows: Sequence[Sequence[int]], n: int) -> Iterator[np.ndarray]:
    """Each row as a one-row int16 array once its every entry is an int in 0..n-1."""
    for i, row in enumerate(rows):
        try:
            row = list(row)
        except TypeError:
            raise ValueError(f"row {i} is {type(row).__name__!r}, not a sequence") from None
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"row {i} contains entry {v!r} outside 0..{n - 1}")
        yield np.array([row], dtype=np.int16)


class _NotIntRows(Exception):
    """Raised by _int_blocks at a block of rows that is no integer array of n columns."""


def _int_blocks(rows: Sequence[Sequence[int]], n: int) -> Iterator[np.ndarray]:
    """The n rows as integer arrays of _BLOCK_ROWS rows, or _NotIntRows at the
    first block that numpy does not read as one of n columns."""
    it = iter(rows)
    for r in range(0, n, _BLOCK_ROWS):
        try:
            block = np.array(list(islice(it, _BLOCK_ROWS)))
        except (ValueError, TypeError, OverflowError):
            raise _NotIntRows from None
        if block.shape != (min(_BLOCK_ROWS, n - r), n) or block.dtype.kind not in "iu":
            raise _NotIntRows
        yield block


def _light_test(t: np.ndarray, e: int) -> bool:
    """True when Light's test proves the table associative.

    The middles b with (x*b)*y == x*(b*y) for all x, y include the identity
    e and are closed under products. So if they include a set S whose
    right-multiplication closure of {e} is the whole table, every triple
    associates. S is chosen greedily, least unreached element first; each
    pick at least doubles the closure in a group, so a group needs at most
    log2(n) of them. False means undecided: some s failed, or S grew past
    n.bit_length() elements.
    """
    n = len(t)
    reached = np.zeros(n, dtype=bool)
    reached[e] = True
    gens: List[int] = []
    while not reached.all():
        if len(gens) == n.bit_length():
            return False
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[t[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(fresh & ~reached)
            reached[frontier] = True
    # (x*s)*y against x*(s*y), for a block of x and all y at a time
    return all(np.array_equal(t[b[:, s]], b[:, t[s]]) for b in _blocks(t) for s in gens)


def _cubic_associativity(t: np.ndarray) -> None:
    """Raise NotAssociative for the first failing triple (a, b, c), a-major."""
    n = len(t)
    for a in range(n):
        for r in range(0, n, _BLOCK_ROWS):
            left = t[t[a, r : r + _BLOCK_ROWS]]  # (a*b)*c over a block of b, all c
            right = t[a][t[r : r + _BLOCK_ROWS]]  # a*(b*c)
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise NotAssociative(a, r + b, c)


def cayley_rows(group: FiniteGroup) -> List[List[int]]:
    """A fresh copy of the multiplication table, suitable for re-import."""
    return group.np_table().tolist()


# -- file formats --------------------------------------------------------


def load_gens(path: str, max_order: Optional[int] = None) -> Tuple[int, List[Permutation]]:
    """Read a .gens file: a 'degree d' line, then 'gen (cycles)' lines.

    Lines may carry '#' comments. Cycles are 1-based and disjoint. A degree
    over the order cap (max_order_cap(max_order)) raises OrderExceeded before
    any permutation is built.
    """
    cap = max_order_cap(max_order)
    degree: Optional[int] = None
    gens: List[Permutation] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("degree"):
                if degree is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate degree line")
                parts = line.split()
                digits = parts[-1].lstrip("0")
                if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()) or not digits:
                    raise ValueError(f"{path}:{lineno}: malformed degree line {_shown(line)}")
                if len(digits) > 20 or int(digits) > cap:  # past 20 digits, int() never reads it
                    shown = f"at least 10^{len(digits) - 1}" if len(digits) > 20 else digits
                    raise OrderExceeded(f"{path}:{lineno}: degree {shown} is over the cap {cap}")
                degree = int(digits)
            elif line.startswith("gen"):
                if degree is None:
                    raise ValueError(f"{path}:{lineno}: gen line before degree line")
                try:
                    gens.append(Permutation.parse(degree, line[3:].strip()))
                except InvalidPermutation as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
            else:
                raise ValueError(f"{path}:{lineno}: unrecognized line {_shown(line)}")
    if degree is None:
        raise ValueError(f"{path}: missing degree line")
    if not gens:
        raise ValueError(f"{path}: no generators")
    return degree, gens


def load_cayley(path: str) -> List[List[int]]:
    """Read a .cayley file: first line the order n, then n rows of n indices.

    The rows come back as lists of the Python ints int() reads, entries
    outside 0..n-1 too; file: specs read the table with _read_cayley.
    """
    blocks = _cayley_blocks(path)
    next(blocks)  # the order
    return [row for block in blocks for row in block.tolist()]


def _read_cayley(path: str, max_order: Optional[int] = None) -> np.ndarray:
    """A .cayley file's table, filled a block of rows at a time. Faults come in
    from_cayley_table's order: the file's own, then the order cap (with no
    table made), then the first entry outside 0..n-1."""
    blocks = _cayley_blocks(path)
    n = next(blocks)
    if not 0 < n <= max_order_cap(max_order):
        deque(blocks, maxlen=0)  # the file's own faults, n < 1 among them
        _check_cap(n, max_order)
    return _fill(blocks, n)


def _cayley_blocks(path: str) -> Iterator:
    """The order n on a .cayley file's first line, then its rows as 2-d blocks: an
    int16 array where numpy parses a block, else a one-row object array of the
    ints int() reads per line. Once the whole file is read, ValueError names a
    wrong row count, or else the first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = filter(None, (ln.split("#", 1)[0].strip() for ln in fh))
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        try:
            n = int(first)
        except ValueError:
            raise ValueError(f"{path}: first line must be the order, got {_shown(first)}") from None
        yield n
        found, fault = 0, None
        while block := list(islice(lines, _BLOCK_ROWS)):
            lineno, found = found + 2, found + len(block)  # numbering kept lines only
            if fault is not None or found > n:
                continue
            try:
                rows = np.loadtxt(block, dtype=np.int16, ndmin=2)
            except ValueError:
                rows = None
            if rows is not None and rows.shape == (len(block), n):
                yield rows
                continue
            for lineno, ln in enumerate(block, start=lineno):
                try:
                    row = [int(p) for p in ln.split()]
                except ValueError:
                    fault = f"{path}:{lineno}: non-integer table entry"
                    break
                if len(row) != n:
                    fault = f"{path}:{lineno}: expected {n} entries, found {len(row)}"
                    break
                yield np.array([row], dtype=object)
    if n < 1 or found != n:
        raise ValueError(f"{path}: expected {_shown(str(n), quote=False)} table rows, found {found}")
    if fault is not None:
        raise ValueError(fault)


def save_cayley(group: FiniteGroup, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{group.order}\n")
        for row in group.table:
            fh.write(" ".join(str(v) for v in row) + "\n")
