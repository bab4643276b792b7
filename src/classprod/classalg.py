"""Conjugacy classes, class products, and subgroup structure predicates.

Everything here works on one group at a time; mixing groups raises
GroupMismatch. Derived data (classes, centralizers, closures, verdicts of the
structure predicates) is cached on the owning FiniteGroup by one helper,
_kept, which builds each fact once and makes its arrays read-only; only the
class kernel, filled a block of rows at a time, and the last quotient, one
replaced entry, keep their own code. No other module reads or writes those
caches. A cache holds ints, bools, numpy arrays and containers of those,
nothing else: the Element, ElementSet, ConjugacyClass and QuotientMap objects
that point back at a group are made at the API on each call, so no group sits
in a reference cycle and a dropped group is freed at once. The caches are
idempotent pure computations, so a duplicated computation under concurrent
access is harmless.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constructions import _is_prime, _prime_powers
from .errors import GroupMismatch, NotInvariant, NotNormal, TrivialGroup
from .group import Element, FiniteGroup, _require_same_group


class ElementSet:
    """An immutable subset of a group's elements, stored as a bitmask."""

    __slots__ = ("group", "mask")

    def __init__(self, group: FiniteGroup, mask: int = 0):
        if mask < 0 or mask >> group.order:
            raise ValueError(f"mask has bits outside 0..{group.order - 1}")
        self.group = group
        self.mask = mask

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices) -> "ElementSet":
        mask = 0
        n = group.order
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} outside 0..{n - 1}")
            mask |= 1 << i
        return cls(group, mask)

    @classmethod
    def full(cls, group: FiniteGroup) -> "ElementSet":
        return cls(group, (1 << group.order) - 1)

    @property
    def group_id(self) -> str:
        return self.group.group_id

    @property
    def members(self) -> Tuple[int, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _indices(self.mask)

    def __contains__(self, item) -> bool:
        i = item.index if isinstance(item, Element) else item
        return 0 <= i < self.group.order and (self.mask >> i) & 1 == 1

    def _require_same(self, other: "ElementSet") -> None:
        if self.group is not other.group:
            raise GroupMismatch(
                f"sets of different groups: {self.group_id!r} vs {other.group_id!r}"
            )

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._require_same(other)
        return ElementSet(self.group, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._require_same(other)
        return ElementSet(self.group, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._require_same(other)
        return ElementSet(self.group, self.mask & ~other.mask)

    def issubset(self, other: "ElementSet") -> bool:
        self._require_same(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "ElementSet") -> bool:
        self._require_same(other)
        return self.mask & other.mask == 0

    def conjugate_by(self, g: int) -> "ElementSet":
        """The set {g^-1*s*g : s in this set}."""
        grp = self.group
        left = set_product(ElementSet(grp, 1 << grp.inv(g)), self)
        return set_product(left, ElementSet(grp, 1 << g))

    def translate_left(self, c: int) -> "ElementSet":
        """The set {c*s : s in this set}."""
        return set_product(ElementSet(self.group, 1 << c), self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.mask == other.mask
            and self.group is other.group
        )

    def __hash__(self) -> int:
        return hash((self.group.group_id, self.mask))

    def __repr__(self) -> str:
        shown = ",".join(str(i) for i in list(self)[:8])
        tail = ",..." if len(self) > 8 else ""
        return f"ElementSet({self.group_id}, {{{shown}{tail}}})"


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class with its canonical (least index) representative."""

    representative: Element
    carrier: ElementSet

    @property
    def size(self) -> int:
        return len(self.carrier)

    def __repr__(self) -> str:
        return f"ConjugacyClass({self.representative.name}, size={self.size})"


@dataclass(frozen=True)
class ClassDecomposition:
    """A conjugation-invariant set split into the classes it contains."""

    source: ElementSet
    classes: Tuple[ConjugacyClass, ...]

    @property
    def eta(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class QuotientMap:
    """A quotient group together with the projection map and its kernel."""

    source: FiniteGroup
    quotient: FiniteGroup
    projection: Tuple[int, ...]
    kernel: ElementSet

    def project(self, a: Element) -> Element:
        if a.group is not self.source:
            raise GroupMismatch(
                f"element of {a.group_id!r} projected along {self.source.group_id!r}"
            )
        return Element(self.quotient, self.projection[a.index])


# -- class table ---------------------------------------------------------

# Rows per block of the centralizer compare and the set-product gather; a
# boolean block is 1 MiB at the order cap, against 16 MiB for the whole table.
_BLOCK_ROWS = 256
# Entries per block of the class equations and kernel rows: 64 KiB as int64.
# On es:3^2 blocks four times as large were no faster and traced 0.1 MiB more.
_BLOCK_CELLS = 1 << 13


def _mask_of(indices: np.ndarray, n: int) -> int:
    """The bitmask of a set of indices below n, given as indices or a bool mask."""
    member = np.zeros(n, dtype=bool)
    member[indices] = True
    return int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little")


def _indices(mask: int) -> Iterator[int]:
    """The set bits of a bitmask, ascending: the inverse of _mask_of."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kept(group: FiniteGroup, key: Hashable, build: Callable[[], Any]) -> Any:
    """group._cache[key], stored on the first call as build() with its arrays, bare or in a tuple, read-only."""
    if key not in group._cache:
        value = build()
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        group._cache[key] = value
    return group._cache[key]


def _inverse_array(group: FiniteGroup) -> np.ndarray:
    return _kept(group, "np_inverse", lambda: np.asarray(group.inverse_table))


def _conjugates(group: FiniteGroup, a: int) -> np.ndarray:
    """a^g = g^-1 * a * g for every g, in g order."""
    t = group.np_table()
    return t[t[_inverse_array(group), a], np.arange(group.order)]


def _conjugation(group: FiniteGroup, g: int) -> np.ndarray:
    """x -> x^g for every x, from the row r = T[g^-1]: g^-1*x = r[x], z*g = inv[r[inv[z]]]."""
    inv = _inverse_array(group)
    r = group.np_table()[inv[g]]
    return inv[r[inv[r]]]


def _commutes_with(group: FiniteGroup, a: "int | np.ndarray") -> np.ndarray:
    """a*g == g*a for every g, from two rows: g*a = inv[T[a^-1][inv[g]]]; one row per a if a is an array."""
    t, inv = group.np_table(), _inverse_array(group)
    return t[a] == inv.take(t[inv[a]].take(inv, axis=-1))


def _orbit_minima(least: np.ndarray, perms: List[np.ndarray]) -> np.ndarray:
    """Each element's least orbit-mate under the perms, from labels least[x] <= x:
    min-label propagation with pointer jumping until nothing changes."""
    while True:
        lowered = least
        for p in perms:
            lowered = np.minimum(lowered, lowered[p])
        lowered = lowered[lowered]
        if np.array_equal(lowered, least):
            return least
        least = lowered


def _orbit_classes(group: FiniteGroup) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classes as orbits under conjugation by the generators, each checked by
    the class equation |orbit| * |C(r)| = n at its least member r.

    generator_indices may be empty or generate a proper subgroup H: at the
    first orbit too small, a g moving r out of it joins them, and the check
    resumes at r. Each such g lies outside H, so at most log2(n) join (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, 4.1).
    The equations are checked a block of orbits at a time; the block doubles
    after each block that passes and is one orbit again after a join, which
    would discard the rest of a wide block.
    Returns the class id of every element, and each class's least member
    and size.
    """
    n = group.order
    perms = [_conjugation(group, g) for g in dict.fromkeys(group.generator_indices)]
    least = _orbit_minima(np.arange(n), perms)
    reps, sizes = np.flatnonzero(least == np.arange(n)), np.bincount(least, minlength=n)
    i, width, widest = 0, 1, max(1, _BLOCK_CELLS // n)
    while i < len(reps):
        block = reps[i : i + width]
        short = sizes[block] * np.count_nonzero(_commutes_with(group, block), axis=1) != n
        if not short.any():
            i, width = i + len(block), min(2 * width, widest)
            continue
        i, width = i + int(np.argmax(short)), 1
        r = reps[i]
        perms.append(_conjugation(group, int(np.argmax(least[_conjugates(group, r)] != r))))
        moved = least[perms[-1][r]]  # in a group, r^g lies outside the orbit and then joins it
        least = _orbit_minima(least, perms)
        if moved == r or least[perms[-1][r]] != r:
            raise ValueError(f"table of {group.group_id!r} is not a group: conjugation fails at {r}")
        reps, sizes = np.flatnonzero(least == np.arange(n)), np.bincount(least, minlength=n)
    return np.searchsorted(reps, least), reps, sizes[reps]


def _mixed_radix(digits: Iterable[Tuple[np.ndarray, int]]) -> np.ndarray:
    """The digits of (x_1, ..., x_m) read in mixed radix, given each factor's (digits, radix)."""
    out = np.zeros(1, dtype=np.int64)
    for d, radix in digits:
        out = (out[:, None] * radix + d).reshape(-1)
    return out


def _factor_classes(group: FiniteGroup) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_orbit_classes of a direct product, from its factors and not its table.

    The class of (h, k) is h^H x k^K, so a class id is the factor class ids
    in mixed radix. Its least member is built from the factors' least
    members, so class ids still run in the order of least members.
    """
    data = [_class_data(f) for f in group.factors]
    class_id = _mixed_radix((d.class_id, len(d.reps)) for d in data)
    reps = _mixed_radix((d.reps, f.order) for d, f in zip(data, group.factors))
    return class_id, reps, np.bincount(class_id)


def _factor_parts(s: "ElementSet") -> Optional[List["ElementSet"]]:
    """The subset of each factor whose product set is s, if s is one."""
    group = s.group
    if not group.factors:
        return None
    member, size = _member_array(s), len(s)
    parts, before, product = [], 1, 1
    for f in group.factors:
        # s lies in the product of its projections, and is it when the sizes agree
        part = member.reshape(before, f.order, -1).any(axis=(0, 2))
        product *= int(np.count_nonzero(part))
        if product > size:
            return None
        parts.append(ElementSet(f, _mask_of(part, f.order)))
        before *= f.order
    return parts


class _ClassData(NamedTuple):
    """A group's class record: read-only arrays, in class order."""

    reps: np.ndarray  # each class's least member
    class_id: np.ndarray  # the class id of every element
    order: np.ndarray  # every element, listed class by class, in index order within a class
    starts: np.ndarray  # the start of each class's block in order
    sizes: np.ndarray  # the size of each class


def _class_data(group: FiniteGroup) -> _ClassData:
    """The group's class record, cached; classes run in order of their least members."""
    def build() -> _ClassData:
        class_id, reps, sizes = (_factor_classes if group.factors else _orbit_classes)(group)
        order = np.argsort(class_id, kind="stable")
        return _ClassData(reps, class_id, order, np.cumsum(sizes) - sizes, sizes)
    return _kept(group, "class_data", build)


def _bits(masks: Sequence[int], width: int) -> np.ndarray:
    """The bool matrix of int masks below 2^width, one row per mask."""
    size = (width + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), size), axis=1, count=width, bitorder="little").view(bool)


def _masks(rows: np.ndarray) -> List[int]:
    """Each row of a bool matrix as an int mask: the inverse of _bits."""
    return [int.from_bytes(r.tobytes(), "little") for r in np.packbits(rows, axis=1, bitorder="little")]


def _element_sets(group: FiniteGroup, sets: Sequence[int]) -> List["ElementSet"]:
    """The elements of each class set, an int with bit j set for class j, 256 sets at
    a time: only the public API turns the normal structure's class sets into elements."""
    data = _class_data(group)
    blocks = (_bits(sets[s0 : s0 + _BLOCK_ROWS], len(data.reps)) for s0 in range(0, len(sets), _BLOCK_ROWS))
    return [ElementSet(group, m) for block in blocks for m in _masks(block.take(data.class_id, axis=1))]


def _order_of(group: FiniteGroup) -> Callable[[int], int]:
    """The order of a class set: per class size, the size times the classes of that size in it."""
    planes: Dict[int, int] = {}  # each class size, and the classes of that size
    for j, z in enumerate(_class_data(group).sizes.tolist()):
        planes[z] = planes.get(z, 0) | 1 << j
    return lambda s: sum(z * (s & p).bit_count() for z, p in planes.items())


def _conjugacy_classes(group: FiniteGroup, ids: Sequence[int]) -> Tuple[ConjugacyClass, ...]:
    """The classes ids, each carrier made from its own block of the class record."""
    data, n = _class_data(group), group.order
    return tuple(
        ConjugacyClass(Element(group, int(data.reps[i])),
                       ElementSet(group, _mask_of(data.order[data.starts[i] : data.starts[i] + data.sizes[i]], n)))
        for i in ids
    )


def class_id_array(group: FiniteGroup) -> np.ndarray:
    """The class id of every element, as a read-only array."""
    return _class_data(group).class_id


def _member_array(x: "ElementSet") -> np.ndarray:
    """The membership vector of x: a bool array over the group's elements."""
    return _bits([x.mask], x.group.order)[0]


def conjugacy_classes(group: FiniteGroup) -> Tuple[ConjugacyClass, ...]:
    """All classes, ordered by their least representatives.

    Each call builds a fresh tuple, equal to the last, from the cached class record.
    """
    return _conjugacy_classes(group, range(len(_class_data(group).reps)))


def class_id_of(a: Element) -> int:
    return int(_class_data(a.group).class_id[a.index])


def conjugacy_class(a: Element) -> ConjugacyClass:
    return _conjugacy_classes(a.group, [class_id_of(a)])[0]


def centralizer(a: Element) -> ElementSet:
    """All g with a^g = a, from two table rows."""
    return ElementSet(a.group, _mask_of(_commutes_with(a.group, a.index), a.group.order))


def _centralizer_ids(group: FiniteGroup) -> np.ndarray:
    """An id for every element's centralizer, equal exactly when the centralizers
    are and numbered by least member: bit g of a packed row is set when a*g = g*a,
    compared a block of rows at a time, and the row's bytes are its key.

    C((h,k)) = C(h) x C(k), so a product takes its factors' ids in mixed
    radix; they run in order of least members, as the factors' ids do.
    """
    def build() -> np.ndarray:
        if group.factors:
            return _mixed_radix((c, int(c.max()) + 1) for c in map(_centralizer_ids, group.factors))
        n, t, seen = group.order, group.np_table(), {}
        ids = np.empty(n, dtype=np.int64)
        for a0 in range(0, n, _BLOCK_ROWS):
            a1 = a0 + _BLOCK_ROWS  # slices stop at n
            bits = np.packbits(t[a0:a1] == t[:, a0:a1].T, axis=1, bitorder="little")
            ids[a0:a1] = [seen.setdefault(row.tobytes(), len(seen)) for row in bits]
        return ids
    return _kept(group, "centralizer_ids", build)


def centralizer_buckets(group: FiniteGroup) -> Dict[int, Tuple[int, ...]]:
    """Group elements by their exact centralizer mask, in order of least members."""
    ids = _centralizer_ids(group)
    buckets = np.split(np.argsort(ids, kind="stable"), np.cumsum(np.bincount(ids))[:-1])
    return {centralizer(Element(group, int(m[0]))).mask: tuple(m.tolist()) for m in buckets}


def equal_centralizer_arrays(group: FiniteGroup) -> Tuple[np.ndarray, np.ndarray]:
    """Every (class representative a, element b) with C(a) = C(b), as two
    arrays: a in class order, and the b of each a in index order.

    Restricting the first coordinate to representatives loses nothing: every
    condition checked downstream is conjugation-covariant, so (a, b) and
    (a^g, b^g) stand or fall together.
    """
    ids, reps = _centralizer_ids(group), _class_data(group).reps
    members, counts = np.argsort(ids, kind="stable"), np.bincount(ids)  # id by id, index order within
    sizes = counts[ids[reps]]
    # the b of a representative r are the block of members with id ids[r]
    first = (np.cumsum(counts) - counts)[ids[reps]] - (np.cumsum(sizes) - sizes)
    return np.repeat(reps, sizes), members[np.arange(sizes.sum()) + np.repeat(first, sizes)]


def commutator_set(a: Element) -> ElementSet:
    """[a, G] = {a^-1 * a^g : g in G}, which is a^-1 times the class of a."""
    group = a.group
    def build() -> int:
        if group.factors:  # [(h,k),G] = [h,H] x [k,K]
            # below a factor F, (x, y) is bit x*w + y with y < w, so the mask
            # of A x Y is the mask of Y times the sum of 2^(x*w) over x in A
            mask, width, rest = 1, 1, a.index
            for f in reversed(group.factors):
                rest, x = divmod(rest, f.order)
                mask *= sum(1 << (y * width) for y in commutator_set(Element(f, x)))
                width *= f.order
            return mask
        data, i = _class_data(group), class_id_of(a)
        members = data.order[data.starts[i] : data.starts[i] + data.sizes[i]]
        return _mask_of(group.np_table()[group.inverse_table[a.index], members], group.order)
    return ElementSet(group, _kept(group, ("commutator_set", a.index), build))


def commutator_set_ids(group: FiniteGroup) -> Tuple[np.ndarray, List[int]]:
    """An id for every element's commutator set, equal exactly when the sets
    are equal, and one element with each id.

    [x,G] = x^-1 x^G, so the sets of the members x of a class C are the rows
    of one gather T[inv[C]][:, C]; sorted, a row is its set's key across
    all classes. A product's sets are products of its factors' sets, so
    its ids and holders are the factors' in mixed radix.
    """
    def build() -> Tuple[np.ndarray, List[int]]:
        if group.factors:  # [(h,k),G] = [h,H] x [k,K]: the factors' ids and holders in mixed radix
            parts = [commutator_set_ids(f) for f in group.factors]
            ids = _mixed_radix((f_ids, len(f_holders)) for f_ids, f_holders in parts)
            holders = _mixed_radix((np.array(h), f.order) for (_, h), f in zip(parts, group.factors))
            return ids, holders.tolist()
        t, inv = group.np_table(), _inverse_array(group)
        _, _, order, starts, sizes = _class_data(group)
        ids = np.empty(group.order, dtype=np.int64)
        seen: Dict[bytes, Tuple[int, int]] = {}  # set -> (its id, the first member seen)
        for start, size in zip(starts.tolist(), sizes.tolist()):
            members = order[start : start + size]
            block = np.sort(t[inv[members][:, None], members], axis=1)
            for x, row in zip(members.tolist(), block):
                ids[x] = seen.setdefault(row.tobytes(), (len(seen), x))[0]
        return ids, [x for _, x in seen.values()]
    return _kept(group, "commutator_set_ids", build)


def center(group: FiniteGroup) -> ElementSet:
    """Elements commuting with everything: the union of the one-element classes."""
    return _element_sets(group, _masks(_class_data(group).sizes[None] == 1))[0]


def is_abelian(group: FiniteGroup) -> bool:
    return len(_class_data(group).reps) == group.order


# -- set products and decomposition --------------------------------------


def _products(group: FiniteGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The membership vector of {u*v : u in xs, v in ys}, gathered a block of rows at a time."""
    t = group.np_table()
    member = np.zeros(group.order, dtype=bool)
    for x0 in range(0, len(xs), _BLOCK_ROWS):
        member[t[xs[x0 : x0 + _BLOCK_ROWS, None], ys]] = True
    return member


def set_product(x: ElementSet, y: ElementSet) -> ElementSet:
    """The product set {u*v : u in x, v in y}."""
    x._require_same(y)
    xs, ys = (np.flatnonzero(_member_array(s)) for s in (x, y))
    return ElementSet(x.group, _mask_of(_products(x.group, xs, ys), x.group.order))


# -- class-support kernel ----------------------------------------------------
#
# a^G b^G is the union of the classes of a*y over y in b^G. For the
# representative r of class i, the pairs (class of y, class of r*y) over all
# y therefore give the class support of C_i C_j for every j at once: one
# gather, class_id[T[r]], read as keys j*k + l < 2^30, sorted and
# deduplicated. Rows are built a block of classes at a time, on the first
# use of any row in the block, and each is kept as those keys: at most one
# per element and O(n log n) to sort, whatever the number of classes k.
# (Class multiplication coefficients: Holt, Eick and O'Brien, Handbook of
# Computational Group Theory, 2005, section 7.)


class _ClassKernel(NamedTuple):
    eta: np.ndarray  # k x k, rows filled as they are built
    keys: List[Optional[np.ndarray]]


def _kernel_row(group: FiniteGroup, i: int) -> _ClassKernel:
    """The group's kernel with row i (the products C_i C_j) built, with its block."""
    data = _class_data(group)
    k = len(data.reps)
    kernel = group._cache.get("class_kernel")  # not _kept: eta fills by blocks and is frozen once complete
    if kernel is None:
        kernel = group._cache["class_kernel"] = _ClassKernel(np.zeros((k, k), dtype=np.int32), [None] * k)
    if kernel.keys[i] is None:
        rows = max(1, _BLOCK_CELLS // group.order)
        i0 = i - i % rows
        cid = data.class_id.astype(np.int32)
        block = cid.take(group.np_table()[data.reps[i0 : i0 + rows]])
        # row r's keys are offset by r*k^2; rows*k^2 <= _BLOCK_CELLS*k, or k^2 for one row, is below 2^31
        block += cid * k
        block += (np.arange(len(block), dtype=np.int32) * (k * k))[:, None]
        block.sort(axis=1)
        block = block.reshape(-1)
        fresh = np.empty(len(block), dtype=bool)  # flat: faster than the same steps on rows
        fresh[0] = True
        np.not_equal(block[1:], block[:-1], out=fresh[1:])
        keys = block.compress(fresh)
        eta = np.bincount(keys // k, minlength=len(block) // group.order * k).reshape(-1, k)  # (r*k + j)
        keys %= k * k
        keys.setflags(write=False)  # and so each row, a slice of it
        ends = np.cumsum(eta.sum(axis=1)).tolist()
        kernel.eta[i0 : i0 + len(eta)] = eta
        kernel.keys[i0 : i0 + len(eta)] = [keys[a:b] for a, b in zip([0, *ends], ends)]
    return kernel


def class_support_row(group: FiniteGroup, i: int) -> np.ndarray:
    """Row i of the kernel: a sorted key j*k + l for each class C_l in C_i C_j."""
    return _kernel_row(group, i).keys[i]


def class_eta_matrix(group: FiniteGroup) -> np.ndarray:
    """eta(C_i C_j) for every ordered pair of classes, as a read-only k x k array."""
    kernel = group._cache.get("class_kernel")
    if kernel is None or kernel.eta.flags.writeable:  # frozen once every row is built
        for i in range(len(_class_data(group).reps)):
            kernel = _kernel_row(group, i)
        kernel.eta.setflags(write=False)
    return kernel.eta


def class_product(a: Element, b: Element) -> ElementSet:
    """a^G * b^G, the union of the classes in the pair's support row."""
    _require_same_group(a, b)
    group = a.group
    data = _class_data(group)
    i, j = int(data.class_id[a.index]), int(data.class_id[b.index])
    kernel = _kernel_row(group, i)
    keys, first = kernel.keys[i], j * len(data.reps)
    lo = int(keys.searchsorted(first))
    return _element_sets(group, [_mask_of(keys[lo : lo + kernel.eta[i, j]] - first, len(data.reps))])[0]


def decompose(x: ElementSet) -> ClassDecomposition:
    """Split a conjugation-invariant set into its conjugacy classes.

    Raises NotInvariant with a witness pair (element, conjugator) if some
    member has a conjugate outside the set: the least such member, and the
    least conjugator that moves it out.
    """
    group = x.group
    data, member = _class_data(group), _member_array(x)
    counts = np.bincount(data.class_id[member], minlength=len(data.reps))
    partial = (counts > 0) & (counts < data.sizes)
    if partial.any():
        i = int(np.argmax(member & partial[data.class_id]))
        g = int(np.argmin(member[_conjugates(group, i)]))
        raise NotInvariant(i, g)
    parts = _conjugacy_classes(group, np.flatnonzero(counts).tolist())
    return ClassDecomposition(source=x, classes=parts)


def eta(x: ElementSet) -> int:
    """Number of conjugacy classes a G-invariant set splits into."""
    return decompose(x).eta


def eta_of_product(a: Element, b: Element) -> int:
    """eta(a^G b^G), read from the class-support kernel."""
    _require_same_group(a, b)
    class_id = _class_data(a.group).class_id
    i = class_id[a.index]
    return int(_kernel_row(a.group, i).eta[i, class_id[b.index]])


# -- subgroup predicates --------------------------------------------------


def is_subgroup(s: ElementSet) -> bool:
    """Nonempty and closed under the group product."""
    def build() -> bool:
        parts = _factor_parts(s)  # a product set is closed exactly when each part is
        if parts is None:
            return set_product(s, s).issubset(s)
        return all(is_subgroup(p) for p in parts)
    return len(s) > 0 and _kept(s.group, ("is_subgroup", s.mask), build)


def is_normal(s: ElementSet) -> bool:
    """A subgroup that is a union of conjugacy classes."""
    def build() -> bool:
        data = _class_data(s.group)
        counts = np.bincount(data.class_id[_member_array(s)], minlength=len(data.reps))
        return bool(np.all((counts == 0) | (counts == data.sizes)))
    return is_subgroup(s) and _kept(s.group, ("is_normal", s.mask), build)


def subgroup_generated(s: ElementSet) -> ElementSet:
    """Closure of a set under products; the empty set generates the trivial group.

    Each round multiplies the new elements by every generator and squares
    them, so a cyclic subgroup of order m takes O(log m) rounds, not m.
    """
    group = s.group
    t = group.np_table()
    gens = np.flatnonzero(_member_array(s))
    member = np.arange(group.order) == 0  # the identity
    frontier = np.flatnonzero(member)
    while frontier.size:
        reached = member | _products(group, frontier, gens)
        reached[t[frontier, frontier]] = True
        frontier = np.flatnonzero(reached & ~member)
        member = reached
    return ElementSet(group, _mask_of(member, group.order))


# -- theorem A's criterion ---------------------------------------------------


def _theorem_a_criterion(group: FiniteGroup, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Theorem A's criterion for every pair (a[p], b[p]), as arrays: match,
    [a,G] = [b,G] = [ab,G] by commutator-set ids; normal_ab and normal_a,
    whether [ab,G] and [a,G] are normal, one is_normal call per distinct set.
    The checkers, the scan's audit and the product verb all read it here."""
    ids, holders = commutator_set_ids(group)
    ia, ib, iab = ids[a], ids[b], ids[group.np_table()[a, b]]
    normal = np.zeros(len(holders), dtype=bool)
    needed = np.bincount(np.concatenate((ia, iab)), minlength=len(holders))
    for s in np.flatnonzero(needed).tolist():
        normal[s] = is_normal(commutator_set(Element(group, holders[s])))
    return (ia == ib) & (ib == iab), normal[iab], normal[ia]


# -- normal subgroups ------------------------------------------------------
#
# A normal subgroup is a class set, the join of the closures of its classes, and
# the join NM of normal N and M holds the classes of x*r_j, x in N and j a class
# of M (A. Hulpke, "Computing normal subgroups", 1998).


def _closure_masks(group: FiniteGroup, sq: np.ndarray) -> Iterator[int]:
    """The class sets of the subgroups the classes generate; sq[j] is the class of r_j^2.

    <C_i> is a union of classes: reached[b*k + j] says C_j lies in <C_(i0 + b)>.
    For each new key a round adds the classes of C_j * r_i (those of C_j C_i) and of
    r_j^2: O(log m) rounds for a cyclic closure of order m, |<C_i>| table reads in all.
    """
    data = _class_data(group)
    t, cid, k = group.np_table(), data.class_id, len(data.reps)
    for i0 in range(0, k, _BLOCK_ROWS):
        reached = np.zeros(min(_BLOCK_ROWS, k - i0) * k, dtype=bool)
        keys = np.arange(len(reached) // k) * (k + 1) + i0  # C_i lies in <C_i>
        while keys.size:
            reached[keys] = True
            b, j = np.divmod(keys, k)
            size = data.sizes[j]
            pair = np.repeat(np.arange(len(b)), size)
            member = data.order[(data.starts[j] - np.cumsum(size) + size)[pair] + np.arange(len(pair))]
            keys = np.concatenate((b[pair] * k + cid[t[member, data.reps[i0 + b[pair]]]], b * k + sq[j]))
            keys = np.sort(keys[~reached[keys]])  # distinct by sort and compare: np.unique imports numpy.ma
            keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
        yield from _masks(reached.reshape(-1, k))


def _class_closures(group: FiniteGroup) -> Tuple[int, ...]:
    """The class set of the normal closure of every class, in class order."""
    def build() -> Tuple[int, ...]:
        data = _class_data(group)
        sq = data.class_id[group.np_table()[data.reps, data.reps]]
        return tuple(_closure_masks(group, sq))
    return _kept(group, "class_closures", build)


def _joins(group: FiniteGroup, n: int, ms: np.ndarray) -> List[int]:
    """NM for the normal class set n and each normal M, a bool row of ms: the classes of
    x*r_j over x in N and the classes j of M, gathered for 256 such j at a time."""
    data = _class_data(group)
    t, cid, k = group.np_table(), data.class_id, len(data.reps)
    xs, used = np.flatnonzero(_bits([n], k)[0][cid]), np.flatnonzero(ms.any(axis=0))
    joined = np.zeros((len(ms), k), dtype=np.float32)
    for j0 in range(0, len(used), _BLOCK_ROWS):
        js = used[j0 : j0 + _BLOCK_ROWS]
        support = np.zeros((len(js), k), dtype=np.float32)
        for x0 in range(0, len(xs), _BLOCK_ROWS):
            support[np.arange(len(js)), cid[t[xs[x0 : x0 + _BLOCK_ROWS, None], data.reps[js]]]] = 1
        joined += ms[:, js].astype(np.float32) @ support
    return _masks(joined > 0)


def _by_order_and_members(group: FiniteGroup, sets: Iterable[int]) -> Tuple[int, ...]:
    """Sorted by (order, member tuple): classes run by least member, so class ids compare as members do."""
    order = _order_of(group)
    return tuple(sorted(sets, key=lambda s: (order(s), tuple(_indices(s)))))


def normal_closure(a: Element) -> ElementSet:
    """Least normal subgroup containing a: the subgroup generated by a's class."""
    return _element_sets(a.group, [_class_closures(a.group)[class_id_of(a)]])[0]


def normal_subgroups(group: FiniteGroup) -> Tuple[ElementSet, ...]:
    """All normal subgroups: the joins of class closures, 256 closures at a time."""
    def build() -> Tuple[int, ...]:
        closures = list(dict.fromkeys(_class_closures(group)))
        rows, found, worklist = _bits(closures, len(_class_data(group).reps)), set(closures), closures[:]
        while worklist:
            n = worklist.pop()
            for c0 in range(0, len(rows), _BLOCK_ROWS):
                fresh = set(_joins(group, n, rows[c0 : c0 + _BLOCK_ROWS])) - found
                found |= fresh
                worklist += fresh
        return _by_order_and_members(group, found)
    return tuple(_element_sets(group, _kept(group, "normal_subgroups", build)))


def minimal_normal_subgroups(group: FiniteGroup) -> List[ElementSet]:
    """Nontrivial normal subgroups minimal under inclusion, the minimal class closures, sorted
    by (order, member tuple); TrivialGroup on the one-element group, which has none."""
    if group.order == 1:
        raise TrivialGroup("the trivial group has no minimal normal subgroups")
    def build() -> Tuple[int, ...]:
        # M is minimal when every class in M but the identity's has M for closure
        generating = Counter(_class_closures(group)[1:])
        minimal = [m for m, count in generating.items() if count == m.bit_count() - 1]
        return _by_order_and_members(group, minimal)
    return _element_sets(group, _kept(group, "minimal_normals", build))


# -- quotients -------------------------------------------------------------


def _coset_group(group: FiniteGroup, n: ElementSet, named: bool = False) -> Tuple[FiniteGroup, np.ndarray]:
    """G/N as quotient() makes it, with no names unless named, and the coset of every element."""
    if n.group is not group:
        raise GroupMismatch(f"subgroup of {n.group_id!r} used with {group.group_id!r}")
    if not is_normal(n):
        raise NotNormal(f"not a normal subgroup of {group.group_id!r}: {sorted(n)}")
    t = group.np_table()
    members = np.flatnonzero(_member_array(n))
    least = np.arange(group.order)  # the least member of each coset xN
    for s0 in range(0, len(members), _BLOCK_ROWS):
        np.minimum(least, t[:, members[s0 : s0 + _BLOCK_ROWS]].min(axis=1), out=least)
    reps = np.flatnonzero(least == np.arange(group.order))
    coset_id = np.searchsorted(reps, least).astype(np.int16)
    inverse = coset_id[np.asarray(group.inverse_table)[reps]]
    gens = tuple(dict.fromkeys(c for c in coset_id[list(group.generator_indices)].tolist() if c))
    names = [f"[{group.name_of(r)}]" for r in reps.tolist()] if named else None
    qid = f"{group.group_id}/N{len(members)}m{members[1] if len(members) > 1 else 0}"
    if len(members) == 1:
        return FiniteGroup._on_table_of(group, qid, names, gens, inverse), coset_id
    q = FiniteGroup(coset_id[t[np.ix_(reps, reps)]], qid, names, generator_indices=gens, inverse_table=inverse)
    return q, coset_id


def quotient(group: FiniteGroup, n: ElementSet) -> QuotientMap:
    """G/N for a normal subgroup N, cosets ordered by least member, coset xN named [x].

    The identity coset is N itself and lands at index 0. G/N takes its
    inverses and generators from G's: the inverse of coset xN is x^-1 N,
    and the distinct nonidentity cosets of G's generators generate G/N.
    G/{e} is its own group on G's table, shared with no copy.
    """
    q, coset_id = _coset_group(group, n, named=True)
    return QuotientMap(source=group, quotient=q, projection=tuple(coset_id.tolist()), kernel=n)


def _quotient_classes(group: FiniteGroup, n: ElementSet) -> Tuple[np.ndarray, np.ndarray]:
    """The class in G/N of every element of G, as int16, and the eta matrix of G/N; G/N has no
    names and no projection. Only these are kept, for the last N asked: G/N is freed at once."""
    memo = group._cache.get("last_quotient")  # (kernel mask, classes, eta): one entry, replaced, so not _kept
    if memo is None or memo[0] != n.mask or n.group is not group:
        q, coset_id = _coset_group(group, n)
        classes = class_id_array(q).astype(np.int16)[coset_id]
        classes.setflags(write=False)
        memo = group._cache["last_quotient"] = (n.mask, classes, class_eta_matrix(q))
    return memo[1], memo[2]


# -- structure predicates --------------------------------------------------


def is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p, k >= 1; n = 1 counts (trivial p-group)."""
    p, e = next(_prime_powers(n), (1, 1))  # stops at the least prime; n < 2 yields none
    return p**e == n


def _is_two_power(size: "int | np.ndarray") -> "bool | np.ndarray":
    """Whether size > 1 is a power of 2; elementwise on an array of sizes."""
    return (size > 1) & (size & (size - 1) == 0)


def _powers(t: np.ndarray, k: int) -> np.ndarray:
    """x^k for every element x, k >= 1, by binary powering of all elements at once."""
    x = power = np.arange(len(t))
    for bit in bin(k)[3:]:  # the bits below the leading one
        power = t[power, power]
        if bit == "1":
            power = t[power, x]
    return power


def is_nilpotent(group: FiniteGroup) -> bool:
    """Whether every Sylow subgroup is normal.

    A finite group is nilpotent exactly when all its Sylow subgroups are
    normal (Isaacs, Finite Group Theory, ch. 1). For q = p^e exactly
    dividing n, the elements with x^q = 1 are the p-elements, the union of
    the Sylow p-subgroups, so there are exactly q of them when the Sylow
    p-subgroup is the only one, that is, normal. A p-group (q = n) passes
    without powering.
    """
    def build() -> bool:
        t, n = group.np_table(), group.order
        return all(
            q == n or np.count_nonzero(_powers(t, q) == 0) == q
            for q in (p**e for p, e in _prime_powers(n))
        )
    return _kept(group, "is_nilpotent", build)


def is_supersolvable(group: FiniteGroup, tie_break: Optional[random.Random] = None) -> bool:
    """Whether one chief series (hence any) has all factors of prime order.

    The series stays inside G, as class sets. Over the current term N, the
    next term is NM for a class closure M not inside N of least index
    |NM : N| = |M| / |M & N|, read from class sizes: each |M| once, and
    |M & N| grown by the classes each step adds to N. Such an NM is minimal
    normal over N. The canonical M is the first in class order, whose NM is
    the least by (order, members); a random tie_break picks among those M
    instead, which by Jordan-Hoelder must not change the verdict.
    """
    def build() -> bool:
        order, k = _order_of(group), len(_class_data(group).reps)
        closures = list(dict.fromkeys(_class_closures(group)))  # distinct, in class order
        orders, inside = [order(m) for m in closures], [1] * len(closures)  # |M| and |M & N|
        current, reached = 1, 1  # N and |N|
        while reached < group.order:
            index = [size // part for size, part in zip(orders, inside)]
            least = min(i for i in index if i > 1)  # index 1: M lies inside N
            if not _is_prime(least):
                break
            choices = [m for m, i in zip(closures, index) if i == least]
            chosen = tie_break.choice(choices) if tie_break is not None else choices[0]
            reached *= least  # |NM|, and NM is G once that is |G|
            if reached < group.order:
                joined = _joins(group, current, _bits([chosen], k))[0] if current & ~chosen else chosen
                added = joined & ~current  # the classes NM adds to N
                for c, m in enumerate(closures):
                    if m & added:
                        inside[c] += order(m & added)
                current = joined
        return reached == group.order
    return _kept(group, "is_supersolvable", build) if tie_break is None else build()


def is_simple_nonabelian(group: FiniteGroup) -> bool:
    """Nonabelian, and every nonidentity class generates the whole group: all k classes."""
    full = (1 << len(_class_data(group).reps)) - 1
    return not is_abelian(group) and all(m == full for m in _class_closures(group)[1:])
