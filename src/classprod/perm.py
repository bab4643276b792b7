"""Permutations on points 1..degree, with disjoint-cycle notation."""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence, Tuple

from .errors import InvalidPermutation, _shown

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_POINT_RE = re.compile(r"(-?)0*([0-9]+)")  # ASCII digits only: int() takes any Unicode digit


class Permutation:
    """An immutable bijection on the points 1..degree.

    Products compose left to right: (p * q) applies p first, then q. This
    matches the reading order of generator words like g0*g1.
    """

    __slots__ = ("degree", "images")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if not imgs:
            raise InvalidPermutation("degree must be positive")
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise InvalidPermutation(f"images {imgs} are not a bijection on 1..{len(imgs)}")
        self.degree = len(imgs)
        self.images = imgs

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles of 1-based points; fixed points may be omitted."""
        if degree < 1:
            raise InvalidPermutation("degree must be positive")
        images = list(range(1, degree + 1))
        seen = set()
        for cycle in cycles:
            for pt in cycle:
                if not 1 <= pt <= degree:
                    raise InvalidPermutation(f"point {_shown(str(pt), quote=False)} outside 1..{degree}")
                if pt in seen:
                    raise InvalidPermutation(f"point {pt} appears twice")
                seen.add(pt)
            for i, pt in enumerate(cycle):
                images[pt - 1] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> "Permutation":
        """Parse cycle notation like '(1 2 3)(4 5)'. '()' is the identity."""
        body = text.strip()
        if body in ("", "()"):
            return cls.identity(degree)
        leftover = _CYCLE_RE.sub("", body).strip()
        if leftover:
            raise InvalidPermutation(f"unparsable cycle text {_shown(text)}")
        cycles: List[List[int]] = []
        for match in _CYCLE_RE.finditer(body):
            parts = match.group(1).split()
            if not parts:
                raise InvalidPermutation(f"empty cycle in {_shown(text)}")
            points = [_POINT_RE.fullmatch(p) for p in parts]
            if not all(points):
                raise InvalidPermutation(f"non-integer point in {_shown(text)}")
            for m in points:  # past 20 digits a point is past any degree, and maybe past int()
                if len(m[2]) > 20:
                    shown = _shown(m[1] + m[2], quote=False)
                    raise InvalidPermutation(f"point {shown} outside 1..{degree}")
            cycles.append([int(m[1] + m[2]) for m in points])
        return cls.from_cycles(degree, cycles)

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise InvalidPermutation(f"degree mismatch: {self.degree} vs {other.degree}")
        oi = other.images
        return Permutation(oi[x - 1] for x in self.images)

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, x in enumerate(self.images):
            images[x - 1] = i + 1
        return Permutation(images)

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self.images))

    def cycles(self) -> List[Tuple[int, ...]]:
        """Disjoint cycles, each starting at its least point, fixed points omitted."""
        out: List[Tuple[int, ...]] = []
        seen = [False] * self.degree
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self.images[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self.images[nxt - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self.cycle_string()}"
