"""Naive reference implementations used as test oracles.

Everything here works on a raw multiplication table (list of rows, identity
at index 0) with dict/set logic, no caching, no bitmasks, and no imports
from the package, so an oracle and the operation it checks cannot share a
bug. Quadratic and cubic loops are fine: oracle groups stay small.
"""

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

Rows = List[List[int]]


def inverse(rows: Rows, a: int) -> int:
    return rows[a].index(0)


def conj(rows: Rows, a: int, g: int) -> int:
    return rows[rows[inverse(rows, g)][a]][g]


def conjugacy_class(rows: Rows, a: int) -> FrozenSet[int]:
    return frozenset(conj(rows, a, g) for g in range(len(rows)))


def all_classes(rows: Rows) -> List[FrozenSet[int]]:
    seen: Set[int] = set()
    out = []
    for a in range(len(rows)):
        if a in seen:
            continue
        cls = conjugacy_class(rows, a)
        seen |= cls
        out.append(cls)
    return out


def centralizer(rows: Rows, a: int) -> FrozenSet[int]:
    return frozenset(g for g in range(len(rows)) if conj(rows, a, g) == a)


def commutator_set(rows: Rows, a: int) -> FrozenSet[int]:
    ai = inverse(rows, a)
    return frozenset(rows[ai][conj(rows, a, g)] for g in range(len(rows)))


def center(rows: Rows) -> FrozenSet[int]:
    n = len(rows)
    return frozenset(z for z in range(n) if all(rows[z][g] == rows[g][z] for g in range(n)))


def set_product(rows: Rows, xs: Iterable[int], ys: Iterable[int]) -> FrozenSet[int]:
    ys = list(ys)
    return frozenset(rows[x][y] for x in xs for y in ys)


def eta(rows: Rows, xs: Iterable[int]) -> int:
    """Class count of an invariant set; raises if the set is not invariant."""
    target = set(xs)
    parts = [c for c in all_classes(rows) if c & target]
    covered = set().union(*parts) if parts else set()
    if covered != target:
        raise AssertionError(f"not a union of classes: {sorted(target)}")
    return len(parts)


def is_subgroup(rows: Rows, xs: Iterable[int]) -> bool:
    s = set(xs)
    if not s:
        return False
    return all(rows[x][y] in s for x in s for y in s)


def is_normal(rows: Rows, xs: Iterable[int]) -> bool:
    s = set(xs)
    if not is_subgroup(rows, s):
        return False
    return all(conj(rows, x, g) in s for x in s for g in range(len(rows)))


def generated(rows: Rows, gens: Iterable[int]) -> FrozenSet[int]:
    out = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = rows[x][g]
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(out)


def normal_subgroups(rows: Rows) -> List[FrozenSet[int]]:
    """Every union of classes containing 0 that is closed under the product.

    A subgroup is normal exactly when it is a union of conjugacy classes, so
    ranging over class subsets is exhaustive.
    """
    classes = all_classes(rows)
    identity_cls = next(c for c in classes if 0 in c)
    rest = [c for c in classes if c is not identity_cls]
    out = []
    for bits in range(1 << len(rest)):
        union = set(identity_cls)
        for i, c in enumerate(rest):
            if (bits >> i) & 1:
                union |= c
        if is_subgroup(rows, union):
            out.append(frozenset(union))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def element_order(rows: Rows, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = rows[x][a]
        k += 1
    return k


def closure(gen_images: Sequence[Sequence[int]]) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Breadth-first closure of permutations given as 1-based image tuples.

    The identity comes first; each element in turn, in discovery order, is
    multiplied on the right by each generator in list order, a product p*q
    applying p first. Returns the elements' image tuples in discovery order
    and each generator's index.
    """
    elems = [tuple(range(1, len(gen_images[0]) + 1))]
    index = {elems[0]: 0}
    for x in elems:  # the list grows while it is read: a queue in discovery order
        for g in gen_images:
            y = tuple(g[p - 1] for p in x)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return elems, [index[tuple(g)] for g in gen_images]


def permutation_table(elems: Sequence[Tuple[int, ...]]) -> Rows:
    """The multiplication table of closure's elements over their indices."""
    index = {x: i for i, x in enumerate(elems)}
    return [[index[tuple(b[p - 1] for p in a)] for b in elems] for a in elems]
