"""Library-level properties of a, b, S and the Dirichlet sums on drawn inputs, against tests/reference.py."""

import functools
import math

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from smalldiv.core import b_via_square_divisors, small_divisor_sum
from smalldiv.dirichlet import HARMONIC_TABLE_SIZE, Series, _partial_zeta, partial_dirichlet
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


# The Dirichlet partial sums: the O(sqrt N) lattice sum against the term-by-term
# sum over a sieved table. Over 3000 random (sigma, N) with N <= 2*10**4, and a
# grid through sigma = 0.3 and 6, N = 1, 2, 3 and M0 - 1, M0, M0 + 1, the two
# differed by at most 3.75 ulps relative; the tolerance is about twice that, and
# 8 ulps never exceeds 8 N ulps. The N = M0**2 +- 1 boundaries lie above
# TABLE_LIMIT, where partial_dirichlet refuses; H_s itself is checked there.
M0 = HARMONIC_TABLE_SIZE
ORACLE_TOP = 2 * 10**4
SUM_RTOL = 8 * 2.0**-53
_sigma = st.one_of(st.floats(0.3, 6.0), st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 1.75, 2.5, 3.0]))


@functools.cache
def _oracle_tables():
    return {
        Series.A: reference.small_divisor_sums_upto(ORACLE_TOP),
        Series.B: reference.b_values_upto(ORACLE_TOP),
    }


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, ORACLE_TOP), st.integers(1, math.isqrt(ORACLE_TOP)).map(lambda r: r * r)),
       _sigma)
@example(1, 1.0)
@example(2, 0.3)
@example(3, 6.0)
@example(M0 - 1, 1.0)
@example(M0, 1.0 - 1e-9)
@example(M0 + 1, 1.0 + 1e-9)
def test_lattice_partial_sums_match_term_by_term_sums(n, sigma):
    for series, values in _oracle_tables().items():
        got = partial_dirichlet(series, sigma, n).value
        expected = reference.partial_dirichlet(values, sigma, n)
        assert math.isclose(got, expected, rel_tol=SUM_RTOL), (series, n, sigma)


def _harmonic_exact(s: float, m: int):
    if s == 1.0:
        return mpmath.harmonic(m)
    return mpmath.zeta(s) - mpmath.zeta(s, m + 1)


@settings(max_examples=10, deadline=None)
@given(_sigma)
@example(0.3)
@example(6.0)
def test_partial_zeta_across_the_table_edge(sigma):
    """H_s(m) within 16 ulps of mpmath on both sides of M0 and of M0**2; 8.4 ulps was the worst seen."""
    harmonic = _partial_zeta(sigma)
    with mpmath.workdps(30):
        for m in (1, M0 - 1, M0, M0 + 1, M0 * M0 - 1, M0 * M0, M0 * M0 + 1):
            exact = _harmonic_exact(sigma, m)
            assert abs(harmonic(m) - exact) <= 16 * 2.0**-53 * exact, (sigma, m)
