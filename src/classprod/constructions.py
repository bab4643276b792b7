"""Builders for the stock groups and the group-spec mini-language.

Spec strings: cyclic:N, dihedral:N, sym:N, alt:N, q8, es:P, es:P^K,
prod(SPEC,SPEC,...), file:PATH. The canonical string of a spec doubles as the
group_id of the group it builds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import EvenN, NotOddPrime, OrderExceeded
from .group import (
    Element,
    FiniteGroup,
    _group_of_table,
    _read_cayley,
    close_from_generators,
    load_gens,
    max_order_cap,
)
from .perm import Permutation


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_order(label: str, factors: Iterable[int], max_order: Optional[int]) -> None:
    """Raise OrderExceeded as soon as the running product of the (lazy) factors passes the cap."""
    cap = max_order_cap(max_order)
    order = 1
    rest = iter(factors)
    for f in rest:
        order *= f
        if order > cap:
            if order.bit_length() > 64:  # named by a power of ten below it: 0.30102 < log10(2)
                shown = f"at least 10^{(order.bit_length() - 1) * 30102 // 100000}"
            else:
                shown = order if next(rest, None) is None else f"at least {order}"
            raise OrderExceeded(f"{label} has order {shown}, over the cap {cap}")


# The integer families: kind -> spec prefix and the factors of the order, read by the
# builders and a product's cap check. build() looks up the builder named kind at call time.
_FAMILIES: Dict[str, Tuple[str, Callable[[int], Iterable[int]]]] = {
    "cyclic": ("cyclic", lambda n: (n,)),
    "dihedral": ("dihedral", lambda n: (n, 2)),
    "symmetric": ("sym", lambda n: range(2, n + 1)),
    "alternating": ("alt", lambda n: range(3, n + 1)),  # n!/2, or 1 for n <= 2
}
_KINDS = {"dih": "dihedral", **{prefix: kind for kind, (prefix, _) in _FAMILIES.items()}}


def _check_family(kind: str, n: int, max_order: Optional[int]) -> None:
    prefix, factors = _FAMILIES[kind]
    _check_order(f"{prefix}:{n}", factors(n), max_order)


def _es_factors(p: int, copies: int = 1) -> Iterable[int]:
    # Lazy (itertools.repeat's count must fit a C ssize_t), and none for p < 2,
    # which the prime check rejects, so es:1^1000000000 costs nothing.
    return (p for _ in range(3 * copies)) if p > 1 else ()


# -- permutation-model families -------------------------------------------


def cyclic(n: int, max_order: Optional[int] = None) -> FiniteGroup:
    """Cyclic group of order n, generated by the n-cycle (1 2 ... n)."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    _check_family("cyclic", n, max_order)
    if n == 1:
        gens = [Permutation.identity(1)]
    else:
        gens = [Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
    return close_from_generators(gens, f"cyclic:{n}", max_order=max_order)


def dihedral(n: int, max_order: Optional[int] = None) -> FiniteGroup:
    """Dihedral group of order 2n: rotation (1..n) plus the reflection fixing 1."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    _check_family("dihedral", n, max_order)
    if n == 1:
        gens = [Permutation.from_cycles(2, [(1, 2)])]
    elif n == 2:
        gens = [Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(3, 4)])]
    else:
        rot = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        refl = Permutation([1] + [n + 2 - i for i in range(2, n + 1)])
        gens = [rot, refl]
    return close_from_generators(gens, f"dihedral:{n}", max_order=max_order)


def symmetric(n: int, max_order: Optional[int] = None) -> FiniteGroup:
    """Symmetric group on n points; n! must stay under the order cap."""
    if n < 1:
        raise ValueError(f"symmetric degree must be >= 1, got {n}")
    _check_family("symmetric", n, max_order)
    if n == 1:
        gens = [Permutation.identity(1)]
    elif n == 2:
        gens = [Permutation.from_cycles(2, [(1, 2)])]
    else:
        gens = [
            Permutation.from_cycles(n, [(1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
        ]
    return close_from_generators(gens, f"sym:{n}", max_order=max_order)


def alternating(n: int, max_order: Optional[int] = None) -> FiniteGroup:
    """Alternating group on n points, generated by consecutive 3-cycles."""
    if n < 1:
        raise ValueError(f"alternating degree must be >= 1, got {n}")
    _check_family("alternating", n, max_order)
    if n <= 2:
        gens = [Permutation.identity(max(n, 1))]
    else:
        gens = [Permutation.from_cycles(n, [(i, i + 1, i + 2)]) for i in range(1, n - 1)]
    return close_from_generators(gens, f"alt:{n}", max_order=max_order)


def quaternion8() -> FiniteGroup:
    """The quaternion group of order 8 in its regular permutation model.

    Elements carry the usual names 1, -1, i, -i, j, -j, k, -k, with k = i*j.
    """
    gens = [
        Permutation.from_cycles(8, [(1, 2, 3, 4), (5, 6, 7, 8)]),
        Permutation.from_cycles(8, [(1, 5, 3, 7), (2, 8, 4, 6)]),
    ]
    g = close_from_generators(gens, "q8")
    i, j = g.generator_indices
    named = {
        "1": 0,
        "i": i,
        "j": j,
        "-1": g.mul(i, i),
        "k": g.mul(i, j),
        "-i": g.inv(i),
        "-j": g.inv(j),
        "-k": g.inv(g.mul(i, j)),
    }
    names = [""] * 8
    for name, idx in named.items():
        names[idx] = name
    return FiniteGroup(
        g.np_table(),
        "q8",
        element_names=names,
        named_elements=named,
        generator_indices=g.generator_indices,
        inverse_table=list(g.inverse_table),
    )


# -- extraspecial groups ---------------------------------------------------


def extraspecial_p3(p: int, max_order: Optional[int] = None) -> FiniteGroup:
    """Extraspecial group of order p^3 and exponent p, for odd prime p.

    Model: triples (a, b, c) over Z_p with
    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a*b'),
    indexed as a*p^2 + b*p + c. The center is {(0, 0, c)}.
    """
    _check_order(f"es:{p}", _es_factors(p), max_order)  # before the trial division
    if p == 2 or not _is_prime(p):
        raise NotOddPrime(f"extraspecial p^3 model needs an odd prime, got {p}")
    n = p ** 3
    idx = np.arange(n, dtype=np.int64)
    a, b, c = idx // (p * p), (idx // p) % p, idx % p
    # the table on axes (a1, b1, c1, a2, b2, c2), written into int16 with no
    # n x n temporary: the two summands have p^4 entries each
    a1, b1, c1, a2, b2, c2 = np.ix_(*[np.arange(p)] * 6)
    table = np.empty((n, n), dtype=np.int16)
    np.add(
        ((a1 + a2) % p) * (p * p) + ((b1 + b2) % p) * p,
        (c1 + c2 + a1 * b2) % p,
        out=table.reshape((p,) * 6),
    )
    inverse = (-a % p) * (p * p) + (-b % p) * p + ((a * b - c) % p)
    names = [f"({ai},{bi},{ci})" for ai, bi, ci in zip(a.tolist(), b.tolist(), c.tolist())]
    named = {name: i for i, name in enumerate(names)}
    return FiniteGroup(
        table,
        f"es:{p}",
        element_names=names,
        named_elements=named,
        generator_indices=(p * p, p),  # (1,0,0) and (0,1,0)
        inverse_table=inverse.tolist(),
    )


def direct_product(
    g: FiniteGroup,
    k: FiniteGroup,
    group_id: Optional[str] = None,
    max_order: Optional[int] = None,
) -> FiniteGroup:
    """Direct product with x-major indexing: (x, y) -> x*|K| + y.

    The factors of g and k (a product gives its own) are kept as one flat
    tuple, and the table is filled only when it is first read.
    """
    _check_order(f"prod({g.group_id},{k.group_id})", (g.order, k.order), max_order)
    ko = k.order
    ginv = np.asarray(g.inverse_table, dtype=np.int32)
    kinv = np.asarray(k.inverse_table, dtype=np.int32)
    inverse = (ginv[:, None] * ko + kinv[None, :]).reshape(-1)
    names = [f"({g.name_of(x)},{k.name_of(y)})" for x in range(g.order) for y in range(ko)]
    gen_indices = tuple(gi * ko for gi in g.generator_indices) + tuple(
        int(ki) for ki in k.generator_indices
    )
    gid = group_id if group_id is not None else f"prod({g.group_id},{k.group_id})"
    return FiniteGroup.from_factors(
        tuple(f for x in (g, k) for f in (x.factors or (x,))),
        gid,
        element_names=names,
        generator_indices=gen_indices,
        inverse_table=inverse.tolist(),
    )


def es_power(p: int, copies: int, max_order: Optional[int] = None) -> FiniteGroup:
    """Direct product of `copies` copies of the extraspecial p^3 group."""
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    g = base = extraspecial_p3(p, max_order=max_order)
    for i in range(2, copies + 1):
        g = direct_product(g, base, group_id=f"es:{p}^{i}", max_order=max_order)
    return g


def odd_eta1_witness(n: int, max_order: Optional[int] = None) -> Tuple[FiniteGroup, Element]:
    """A group with a class of odd size n whose square is one class.

    For n = p1^e1 * ... * pr^er the group is the direct product of e_i copies
    of the extraspecial p_i^3 group over each prime, of order n^3, and the
    witness has the coordinate (1,0,0) in every factor. For n = 1 the trivial
    group and its identity are returned.
    """
    if n < 1 or n % 2 == 0:
        raise EvenN(f"witness construction needs odd n >= 1, got {n}")
    _check_order(f"witness for n={n}", (n, n, n), max_order)
    if n == 1:
        g = cyclic(1, max_order=max_order)
        return g, Element(g, 0)

    factors: Dict[int, int] = {}  # prime -> exponent, ascending
    rest, p = n, 3
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        while rest % p == 0:
            rest //= p
            factors[p] = factors.get(p, 0) + 1
        p += 2

    blocks = tuple(GroupSpec("extraspecial_p3", f) for f in factors.items())
    group = (blocks[0] if len(blocks) == 1 else GroupSpec("direct_product", blocks)).build(max_order)
    witness = 0
    for prime, e in factors.items():  # (1,0,0) in each copy, x-major across the blocks
        witness = witness * prime ** (3 * e) + sum(prime ** (3 * i + 2) for i in range(e))
    return group, Element(group, witness)


# -- spec strings ----------------------------------------------------------

# Deepest prod(...) nesting parse() accepts, well inside Python's recursion limit.
_MAX_NESTING = 100


def _param(value: str, head: str, bad: str) -> int:
    """An integer spec parameter written in ASCII digits; ValueError(bad) otherwise."""
    if not (value.isascii() and value.isdigit()):
        raise ValueError(bad)
    try:
        return int(value)
    except ValueError:  # over int()'s limit on digits
        raise ValueError(f"parameter of {head!r} has {len(value)} digits, too many") from None


@dataclass(frozen=True)
class GroupSpec:
    """A parsed group description.

    kind is one of cyclic, dihedral, symmetric, alternating, quaternion8,
    extraspecial_p3, direct_product, from_file; params carries the ints, the
    path, or a product's factors in order. A first factor that is itself a
    product is spliced in, so prod(prod(a,b),c) and prod(a,b,c) are equal.
    """

    kind: str
    params: tuple = ()

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        s = text.strip()
        if not s:
            raise ValueError("empty group spec")
        if s == "q8":
            return cls("quaternion8")
        if s.startswith("prod(") and s.endswith(")"):
            inner = s[5:-1]
            parts, depth, start = [], 0, 0
            for i, ch in enumerate(inner):
                if ch == "(":
                    depth += 1
                    if depth >= _MAX_NESTING:  # parse recurses once per level
                        raise ValueError(f"prod(...) nested more than {_MAX_NESTING} deep")
                elif ch == ")":
                    depth -= 1
                    if depth < 0:
                        raise ValueError(f"unbalanced parentheses in {text!r}")
                elif ch == "," and depth == 0:
                    parts.append(inner[start:i])
                    start = i + 1
            if depth != 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            parts.append(inner[start:])
            if len(parts) < 2:
                raise ValueError(f"prod(...) needs at least two factors: {text!r}")
            specs = [cls.parse(p) for p in parts]
            if specs[0].kind == "direct_product":
                specs[:1] = specs[0].params
            return cls("direct_product", tuple(specs))
        if s.startswith("file:"):
            path = s[5:].strip()
            if not path:
                raise ValueError(f"file spec without a path: {text!r}")
            return cls("from_file", (path,))
        if ":" not in s:
            raise ValueError(f"unrecognized group spec {text!r}")
        head, _, tail = s.partition(":")
        if head == "es":
            base, _, power = tail.partition("^")
            bad_power = f"bad es power in {text!r}"
            copies = _param(power, head, bad_power) if power else 1
            if copies < 1:
                raise ValueError(bad_power)
            return cls("extraspecial_p3", (_param(base, head, f"bad es prime in {text!r}"), copies))
        if head not in _KINDS:
            raise ValueError(f"unrecognized group spec {text!r}")
        value = _param(tail, head, f"parameter of {head!r} must be a positive integer: {text!r}")
        if value < 1:
            raise ValueError(f"parameter of {head!r} must be >= 1: {text!r}")
        return cls(_KINDS[head], (value,))

    def canonical(self) -> str:
        if self.kind in _FAMILIES:
            return f"{_FAMILIES[self.kind][0]}:{self.params[0]}"
        if self.kind == "quaternion8":
            return "q8"
        if self.kind == "extraspecial_p3":
            p, copies = self.params
            return f"es:{p}" if copies == 1 else f"es:{p}^{copies}"
        if self.kind == "direct_product":
            out, *rest = (f.canonical() for f in self.params)
            for right in rest:
                out = f"prod({out},{right})"
            return out
        if self.kind == "from_file":
            return f"file:{os.path.basename(self.params[0])}"
        raise ValueError(f"unknown spec kind {self.kind!r}")

    def _order_factors(self) -> Iterable[int]:
        """The factors of the order that the spec itself gives, lazily; a file gives none."""
        if self.kind in _FAMILIES:
            return _FAMILIES[self.kind][1](self.params[0])
        if self.kind == "extraspecial_p3":
            return _es_factors(*self.params)
        if self.kind == "direct_product":
            return chain.from_iterable(f._order_factors() for f in self.params)
        return (8,) if self.kind == "quaternion8" else ()

    def build(self, max_order: Optional[int] = None) -> FiniteGroup:
        if self.kind in _FAMILIES:
            return globals()[self.kind](self.params[0], max_order=max_order)
        if self.kind == "quaternion8":
            return quaternion8()
        if self.kind == "extraspecial_p3":
            return es_power(*self.params, max_order=max_order)
        if self.kind == "direct_product":
            # before any factor is built; with a file unread, a trailing 1 makes it "at least"
            gid = self.canonical()
            unread = (1,) if "file:" in gid else ()
            _check_order(gid, chain(self._order_factors(), unread), max_order)
            group = self.params[0].build(max_order=max_order)
            for right in self.params[1:]:  # each group_id is its spec's canonical string
                group = direct_product(group, right.build(max_order=max_order), max_order=max_order)
            return group
        if self.kind == "from_file":
            return _build_from_file(self.params[0], self.canonical(), max_order)
        raise ValueError(f"unknown spec kind {self.kind!r}")


def _build_from_file(path: str, group_id: str, max_order: Optional[int]) -> FiniteGroup:
    if path.endswith(".cayley"):
        # from_cayley_table's checks in its order, on the reader's table without a copy
        return _group_of_table(_read_cayley(path, max_order), group_id)
    if path.endswith(".gens"):
        _, gens = load_gens(path, max_order)
        return close_from_generators(gens, group_id, max_order=max_order)
    raise ValueError(f"unsupported group file {path!r} (expected .gens or .cayley)")


_BUILD_CACHE: Dict[Tuple[str, int], FiniteGroup] = {}


def build_group(spec: "GroupSpec | str", max_order: Optional[int] = None) -> FiniteGroup:
    """Parse (if needed) and build, memoizing every spec without a file in it.

    A spec with a file factor is built afresh each time: the file can change,
    and files with the same name in different directories share a canonical
    id. The cache key holds the resolved order cap, so a later change to
    CLASSPROD_MAX_ORDER is honored rather than served from the cache.
    """
    parsed = GroupSpec.parse(spec) if isinstance(spec, str) else spec
    canonical = parsed.canonical()
    if "file:" in canonical:
        return parsed.build(max_order=max_order)
    key = (canonical, max_order_cap(max_order))
    cached = _BUILD_CACHE.get(key)
    if cached is None:
        cached = parsed.build(max_order=max_order)
        _BUILD_CACHE[key] = cached
    return cached
