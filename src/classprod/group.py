"""Finite groups as immutable multiplication tables over integer indices.

Every table is one read-only C-order int16 array, so no group may have more
than TABLE_ORDER_LIMIT = 32768 elements; every builder checks its order
against that limit before it allocates a table.
"""

from __future__ import annotations

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
from .perm import Permutation, cycle_string_of

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

    table is the group's one table: a read-only C-order int16 n x n array,
    also returned by np_table(), so order is at most TABLE_ORDER_LIMIT
    (32768) and table[a, b] is the product a*b as an np.int16; mul and the
    other scalar methods return it as an int. A direct product (product_of)
    keeps its factors in factors, empty for any other group, and fills its
    table on first read. The constructor takes a table through the checked
    fill that from_cayley_table uses, which names the first bad row or
    entry, and adopts with no copy only an owned, writable C-order int16
    n x n array with entries in 0..n-1. It checks the identity row
    and column and the inverses, but not associativity: class data of a
    table that is no group is meaningless, so untrusted tables belong in
    from_cayley_table, which checks everything. With no inverse_table, a's
    inverse is the first x with a*x = e, searched a block of rows at a time;
    either way NoInverse names the first a without one. Elements are
    ordered by construction: breadth-first discovery order for generator
    input, canonicalized table order (identity moved to the front) for raw
    table input. name_of(i) is the i-th of element_names, or str(i) when
    there are none; a closure keeps its elements' images instead and makes a
    name, their cycle string, only when one is read, keeping each it makes,
    and a product makes "(x,y)" in the same way, from each operand's own
    name, read from its list when it has one. Instances are treated as
    immutable; derived data such as conjugacy classes is cached on first use
    under _cache, which classalg alone fills, each array read-only, with
    ints, bools, numpy arrays and containers of those only, so that no
    cached value refers back to a group.
    """

    identity_index = 0

    __slots__ = (
        "order",
        "group_id",
        "_table",
        "inverse_table",
        "_names",
        "_images",
        "_made",
        "_operands",
        "_prefix",
        "named_elements",
        "generator_indices",
        "factors",
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
        n = _order_of(table, group_id)
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
        """A group on owner's frozen table, shared with no copy.

        Only a table another group already owns frozen comes in here, never
        a caller's array, so nothing can write to it. The new group has its
        own caches; its inverses are checked against the table.
        """
        t = owner.np_table()
        group = cls.__new__(cls)
        inverse_table = _checked_inverses(t, inverse_table, group_id)
        group._describe(owner.order, group_id, element_names, None, generator_indices, inverse_table)
        group.factors = ()
        group._table = t
        return group

    @classmethod
    def product_of(
        cls,
        g: "FiniteGroup",
        k: "FiniteGroup",
        group_id: str,
        generator_indices: Tuple[int, ...],
        inverse_table: Sequence[int],
    ) -> "FiniteGroup":
        """The direct product of g and k, x-major: (x, y) is index x * |k| + y.

        factors is one flat tuple of groups that are not products, g's (a
        product gives its own) then k's. Class data, commutator sets and
        subgroup tests of product-shaped sets are read from the factors
        (classalg); the table is filled from the factors' tables on the first
        read of table or np_table(), and is then the same read-only int16 array
        as any group's. The operands that names are read from are g and k, or
        g's operands and k when g is a product, so a left-nested product of m
        groups keeps m operands and no intermediate product; the names of all
        but the last are joined into one list, _prefix, when a name is looked up.
        """
        n = g.order * k.order
        _check_limit(n, group_id)
        group = cls.__new__(cls)
        group._describe(n, group_id, None, None, generator_indices, inverse_table)
        group.factors = tuple(f for x in (g, k) for f in (x.factors or (x,)))
        group._operands = (g._operands or (g,)) + (k,)
        return group

    @property
    def table(self) -> np.ndarray:
        """The group's one read-only int16 table; a product fills it on the first read."""
        t = self._table
        if t is None:
            t = self.factors[0].np_table()
            for k in self.factors[1:]:
                go, ko = len(t), k.order
                # g * ko <= n - ko < 32768, and 0 when |g| = 1 even for ko = 32768
                scaled = (t.astype(np.int32) * ko).astype(np.int16)
                t = np.empty((go * ko, go * ko), dtype=np.int16)
                np.add(scaled[:, None, :, None], k.np_table()[None, :, None, :],
                       out=t.reshape(go, ko, go, ko))
            self._set_table(t)
        return t

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
        self._table: Optional[np.ndarray] = None
        self.inverse_table = list(inverse_table)
        if element_names is not None and len(element_names) != n:
            raise ValueError(f"expected {n} element names, got {len(element_names)}")
        self._names = element_names
        self._images: Optional[Tuple[str, bytes]] = None
        self._made: Dict[int, str] = {}
        self._operands: Tuple[FiniteGroup, ...] = ()
        self._prefix: Optional[List[str]] = None
        self.named_elements = dict(named_elements or {})
        for g in generator_indices:
            if not 0 <= g < n:
                raise ValueError(f"generator index {g} of {group_id!r} outside 0..{n - 1}")
        self.generator_indices = tuple(generator_indices)
        self._cache: Dict[object, object] = {}

    def _set_table(self, t: np.ndarray) -> None:
        t.setflags(write=False)
        self._table = t

    # -- index-level arithmetic: item() returns a Python int, not np.int16 --

    def mul(self, a: int, b: int) -> int:
        return self.table.item(a, b)

    def inv(self, a: int) -> int:
        return self.inverse_table[a]

    def conj(self, a: int, g: int) -> int:
        """a conjugated by g, that is g^-1 * a * g."""
        t = self.table
        return t.item(t.item(self.inverse_table[g], a), g)

    def comm(self, a: int, g: int) -> int:
        """The commutator a^-1 * a^g."""
        return self.table.item(self.inverse_table[a], self.conj(a, g))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse_table[a], -k)
        t, acc = self.table, 0
        while k:
            if k & 1:
                acc = t.item(acc, a)
            a = t.item(a, a)
            k >>= 1
        return acc

    def order_of(self, a: int) -> int:
        t, k, x = self.table, 1, a
        while x != 0:
            x = t.item(x, a)
            k += 1
        return k

    # -- element accessors -------------------------------------------------

    def element(self, index: int) -> "Element":
        return Element(self, index)

    def elements(self) -> Iterator["Element"]:
        for i in range(self.order):
            yield Element(self, i)

    def name_of(self, index: int) -> str:
        if self._names is not None:
            return self._names[index]
        if self._operands:  # each operand's own name, read from its list if it has one
            names, rest = [], index
            for x in reversed(self._operands):
                rest, i = divmod(rest, x.order)
                names.append(x.name_of(i) if x._names is None else x._names[i])
            return "(" * (len(names) - 1) + names.pop() + "".join(f",{y})" for y in reversed(names))
        if self._images is not None:  # a closure's image rows: (typecode, bytes); each string made once
            name = self._made.get(index)
            if name is None:
                flat = memoryview(self._images[1]).cast(self._images[0])
                d = len(flat) // self.order
                name = self._made[index] = cycle_string_of(flat[index * d : index * d + d].tolist())
            return name
        return str(index)

    def index_of_name(self, name: str) -> Optional[int]:
        """The first i with name_of(i) == name, or None, with no list of this
        group's names made: a closure whose names are not made reads name as a
        cycle string and finds its images among the kept ones, and a product
        splits name at a comma into a name of its prefix list and one its last
        operand reads back."""
        if self._names is not None:
            return self._names.index(name) if name in self._names else None
        if self._operands:
            if not (name.startswith("(") and name.endswith(")")):
                return None
            prefix, last = self._prefix_names(), self._operands[-1]
            names = last.element_names
            longest = max(map(len, names)) if names is not None else len(str(last.order - 1))
            # names may hold commas: try each split whose right part is not too long
            inner, found = name[1:-1], []
            at = inner.find(",", max(0, len(inner) - 1 - longest))
            while at >= 0:
                x, y = inner[:at], last.index_of_name(inner[at + 1 :])
                if y is not None and x in prefix:
                    found.append(prefix.index(x) * last.order + y)
                at = inner.find(",", at + 1)
            return min(found, default=None)
        if self._images is None:  # named str(i)
            i = int(name) if name.isascii() and name.isdigit() and len(name) <= len(str(self.order)) else -1
            return i if 0 <= i < self.order and str(i) == name else None
        typecode, raw = self._images
        dtype = np.dtype(typecode)
        try:
            images = Permutation.parse(len(raw) // (self.order * dtype.itemsize), name).images
        except InvalidPermutation:
            return None
        row = (np.array(images) - 1).astype(dtype).tobytes()
        at = raw.find(row)
        while at > 0 and at % len(row):  # a match across two rows
            at = raw.find(row, at + 1)
        i = at // len(row)
        return i if at >= 0 and self.name_of(i) == name else None  # the name as written, not any cycle order

    @property
    def element_names(self) -> Optional[List[str]]:
        """Every element's name in index order, or None. On the first read a
        closure makes them from its images, which it then frees, and a product
        from its operands' lists."""
        if self._names is None:
            if self._images is not None:
                self._names = [self.name_of(i) for i in range(self.order)]
                self._images, self._made = None, {}
            elif self._operands:
                last = self._operands[-1]
                self._names = _joined(self._prefix_names(), last.element_names or list(map(str, range(last.order))))
                self._prefix = None
        return self._names

    def _prefix_names(self) -> List[str]:
        """A product's names of the product of its operands but the last, joined
        left to right from their own lists on the first read."""
        if self._prefix is None:
            first, *rest = (x.element_names or list(map(str, range(x.order))) for x in self._operands[:-1])
            for names in rest:
                first = _joined(first, names)
            self._prefix = first
        return self._prefix

    def np_table(self) -> np.ndarray:
        """self.table, the group's one read-only int16 array."""
        return self.table

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

    Each level numbers its new products x_i * g_k in (i, k) order after the
    identity, index 0. Elements are rows of 0-based images (int32 past degree
    32768), keyed by their bytes in one dict, multiplied a block of rows at a time.

    The search records right[k][i], the index of x_i * g_k, and that a was first
    reached as x_parent[a] * g_via[a]. A block of one level at a time, left[k][a]
    (the index of g_k * a) is right[via[a]][left[k][parent[a]]], row a of the table
    is row parent[a] read at left[via[a]], and a^-1 = g_via[a]^-1 * parent[a]^-1.
    """
    if not gens:
        raise InvalidPermutation("at least one generator is required")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise InvalidPermutation(f"generators disagree on degree: {g.degree} vs {degree}")
    cap = max_order_cap(max_order)

    dtype = np.int16 if degree <= TABLE_ORDER_LIMIT else np.int32
    g_img = (np.array([g.images for g in gens], dtype=np.int64) - 1).astype(dtype)
    m, width = len(gens), degree * g_img.itemsize
    index: Dict[bytes, int] = {np.arange(degree, dtype=dtype).tobytes(): 0}
    parent, via = [0], [0]
    right: List[List[int]] = [[] for _ in gens]
    starts, level = [1], list(index)  # starts[i]: the first index of level i + 1
    per_block = max(1, _BLOCK_ROWS // m)  # so a block of products has at most 64 rows
    while level:
        frontier = np.frombuffer(b"".join(level), dtype=dtype).reshape(len(level), degree)
        first, level = starts[-1] - len(frontier), []
        for r in range(0, len(frontier), per_block):
            block = g_img[:, frontier[r : r + per_block]]  # block[k, i]: x_(first+r+i) * g_k
            buf, rows = block.tobytes(), block.shape[1]
            for i in range(rows):
                for k in range(m):
                    key = buf[(k * rows + i) * width : (k * rows + i + 1) * width]
                    j = index.get(key)
                    if j is None:
                        if len(index) >= cap:
                            raise OrderExceeded(f"closure of {group_id!r} exceeds the order cap {cap}")
                        j = index[key] = len(index)
                        parent.append(first + r + i)
                        via.append(k)
                        level.append(key)
                    right[k].append(j)
        starts.append(len(index))

    n = len(index)
    gen_indices = tuple(index[row.tobytes()] for row in g_img)
    images = ("h" if dtype is np.int16 else "i", b"".join(index))
    del index, level
    steps, parent, via = np.asarray(right, dtype=np.int16), np.asarray(parent), np.asarray(via)
    blocks = [slice(r, min(r + _BLOCK_ROWS, hi))
              for lo, hi in zip(starts, starts[1:]) for r in range(lo, hi, _BLOCK_ROWS)]
    left = np.empty_like(steps)
    left[:, 0] = gen_indices
    for a in blocks:
        left[:, a] = steps[via[a], left[:, parent[a]]]
    back = np.argsort(left, axis=1).astype(np.int16)  # back[k][x]: the index of g_k^-1 * x
    t = np.empty((n, n), dtype=np.int16)
    t[0] = np.arange(n)
    inverse = np.zeros(n, dtype=np.int16)
    for a in blocks:
        t[a] = t.take(parent[a, None] * n + left[via[a]])  # flat: faster than t[p, q]
        inverse[a] = back[via[a], inverse[parent[a]]]
    group = FiniteGroup(t, group_id, generator_indices=gen_indices, inverse_table=inverse)
    group._images = images
    return group


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
    n = _order_of(rows, group_id)
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


def _joined(left: List[str], right: List[str]) -> List[str]:
    """The names "(a,b)" of a direct product, a-major, from its two operands' names."""
    return [f"({a},{b})" for a in left for b in right]


def _order_of(rows: Sequence[Sequence[int]], group_id: str) -> int:
    """len(rows); a 0-d array, which has no len, is named as any array that is not n x n."""
    if isinstance(rows, np.ndarray) and rows.ndim == 0:
        raise ValueError(f"table of {group_id!r} is not square: shape {rows.shape}")
    return len(rows)


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
                raise ValueError(f"row {i} contains entry {_entry_shown(v)} outside 0..{n - 1}")
        yield np.array([row], dtype=np.int16)


def _entry_shown(v: object) -> str:
    """A table entry for an error line: its repr, clipped by _shown. An int past
    str()'s limit on digits is written as its leading digits padded with zeros."""
    try:
        return _shown(repr(v), quote=False)
    except ValueError:
        if not isinstance(v, int):
            raise
    sign, v = ("-", -v) if v < 0 else ("", v)
    pad = int((v.bit_length() - 1) * 0.3010299956) - 40  # v has more than pad + 40 digits
    return _shown(sign + str(v // 10**pad) + "0" * pad, quote=False)


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
            fh.write(" ".join(map(str, row.tolist())) + "\n")
