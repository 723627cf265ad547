"""Library-level properties of a, b and S on drawn inputs, against tests/reference.py."""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from smalldiv.core import b_via_square_divisors, small_divisor_sum
from smalldiv.summatory import summatory_exact


def _below(exponent: int):
    """Integers in [1, 10**exponent), spread over every decade instead of bunched near 1."""
    return st.integers(1, exponent).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e - 1))


_coprime_pair = st.tuples(_below(5), _below(5))


@settings(max_examples=10, deadline=None)
@given(_below(12))
@example(10**12)
def test_summatory_lattice_identity(x):
    """S(x) = x r - (r**3 - r)/3 - sum of (x mod y) over y <= r, with r = isqrt(x)."""
    r = math.isqrt(x)
    expected = x * r - (r**3 - r) // 3 - sum(x % y for y in range(1, r + 1))
    assert summatory_exact(x) == expected


@settings(max_examples=100, deadline=None)
@given(_below(7))
def test_a_is_one_exactly_on_units_and_primes(n):
    # a window of consecutive k, so that primes turn up among the drawn values
    for k in range(n, min(n + 32, 10**7)):
        is_prime = reference.factorize(k) == [(k, 1)]
        assert (small_divisor_sum(k) == 1) == (k == 1 or is_prime), k


@settings(max_examples=200, deadline=None)
@given(_coprime_pair)
def test_b_multiplicative_on_coprime_pairs(pair):
    m, n = pair
    assume(math.gcd(m, n) == 1)
    assert b_via_square_divisors(m * n) == reference.b_square_divisor_sum(m) * reference.b_square_divisor_sum(n)


@settings(max_examples=200, deadline=None)
@given(_coprime_pair)
def test_a_supermultiplicative_on_coprime_pairs(pair):
    m, n = pair
    assume(math.gcd(m, n) == 1)
    assert small_divisor_sum(m * n) >= reference.small_divisor_sum(m) * reference.small_divisor_sum(n)
