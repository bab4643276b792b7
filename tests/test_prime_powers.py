"""The one trial division: _prime_powers and the predicates read from it.

_prime_powers must agree with sympy.factorint (skipped when sympy is not
installed), and a caller that reads only the least prime must not pay for
the rest of a huge input.
"""

import pytest

from classprod.classalg import is_prime_power
from classprod.constructions import _is_prime, _prime_powers


def test_prime_powers_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 5001):
        assert dict(_prime_powers(n)) == sympy.factorint(n), n


def test_prime_powers_ascend():
    assert list(_prime_powers(2**3 * 3 * 5**2 * 4099)) == [(2, 3), (3, 1), (5, 2), (4099, 1)]
    assert list(_prime_powers(1)) == []


def test_least_prime_read_without_the_rest():
    # the cofactor 2^127 - 1 is prime: dividing it out by trial would never end
    assert next(_prime_powers(2 * (2**127 - 1))) == (2, 1)
    assert not is_prime_power(2 * (2**127 - 1))
    assert not is_prime_power(2**64 * 3)
    assert is_prime_power(3**300)
    assert not _is_prime(2**64 * 3)


def test_small_values():
    assert [n for n in range(-3, 30) if _is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [n for n in range(-3, 17) if is_prime_power(n)] == [1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
