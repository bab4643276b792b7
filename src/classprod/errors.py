"""Exception types shared across the package, and how they quote outside values."""

from __future__ import annotations


def _shown(text: str, quote: bool = True) -> str:
    """A value read from a file or the environment, for an error line: the text (its repr
    if quote) or, past 40 characters, its first 40 and its length, in digits for an integer."""
    form = repr if quote else str
    if len(text) <= 40:
        return form(text)
    digits = text[1:] if text[0] in "+-" else text
    size = f"{len(digits)} digits" if digits.isascii() and digits.isdigit() else f"{len(text)} characters"
    return f"{form(text[:40])}... ({size})"


class ClassprodError(Exception):
    """Base class for every error this package raises on purpose."""


class GroupMismatch(ClassprodError):
    """An operation mixed elements or sets owned by different groups."""


class OrderExceeded(ClassprodError):
    """A construction or closure would exceed the configured order cap."""


class InvalidPermutation(ClassprodError):
    """Images are not a bijection on 1..degree, or generators disagree on degree."""


class NotAssociative(ClassprodError):
    """A multiplication table failed the associativity check."""

    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(f"not associative: ({i}*{j})*{k} != {i}*({j}*{k})")


class NoIdentity(ClassprodError):
    """A multiplication table has no two-sided identity."""


class NoInverse(ClassprodError):
    """Some element of a multiplication table has no two-sided inverse."""

    def __init__(self, x: int):
        self.witness = x
        super().__init__(f"element {x} has no two-sided inverse")


class NotInvariant(ClassprodError):
    """A set handed to decompose() is not closed under conjugation."""

    def __init__(self, x: int, g: int):
        self.witness = (x, g)
        super().__init__(f"not conjugation-invariant: element {x} escapes under g={g}")


class NotNormal(ClassprodError):
    """A quotient was requested by a subset that is not a normal subgroup."""


class TrivialGroup(ClassprodError):
    """The operation needs at least one nonidentity element."""


class NotOddPrime(ClassprodError):
    """The extraspecial construction requires an odd prime."""


class EvenN(ClassprodError):
    """The odd-order witness construction requires odd n >= 1."""


class HypothesisViolated(ClassprodError):
    """A verifier was invoked on inputs outside the statement's hypotheses."""


class InternalContradiction(ClassprodError):
    """A scan result contradicts a statement that the suite itself verifies."""
