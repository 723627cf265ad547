import pytest

import reference
from smalldiv import TABLE_LIMIT
from smalldiv.errors import DomainError
from smalldiv.primes import first_primes, is_prime, prime_flags, primes_upto


def test_primes_upto_matches_naive_sieve():
    flags = reference.prime_flags(2000)
    expected = tuple(i for i, f in enumerate(flags) if f)
    assert primes_upto(2000) == expected


def test_prime_flags_agrees_with_list():
    flags = prime_flags(500)
    assert [i for i in range(501) if flags[i]] == list(primes_upto(500))


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 10**5])
def test_primes_upto_at_small_and_large_limits(limit):
    # reference.prime_flags needs room for the flags of 0 and 1.
    flags = reference.prime_flags(max(limit, 1))[: limit + 1]
    assert primes_upto(limit) == tuple(i for i, f in enumerate(flags) if f)


def test_prime_flags_is_immutable_bytes():
    flags = prime_flags(100)
    assert type(flags) is bytes
    assert len(flags) == 101
    assert [bool(f) for f in flags] == reference.prime_flags(100)
    with pytest.raises(TypeError):
        flags[4] = 1


def test_negative_sieve_limit_rejected():
    with pytest.raises(DomainError):
        prime_flags(-1)
    with pytest.raises(DomainError):
        primes_upto(-1)


def test_first_primes():
    assert first_primes(1) == [2]
    assert first_primes(2) == [2, 3]
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]
    assert len(first_primes(100)) == 100
    assert first_primes(0) == []
    with pytest.raises(DomainError):
        first_primes(-1)


def test_is_prime_small_range():
    flags = reference.prime_flags(5000)
    for n in range(5001):
        assert is_prime(n) == flags[n], n


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False),
        (1, False),
        (2, True),
        (2047, False),  # 23 * 89, strong pseudoprime to base 2
        (561, False),  # Carmichael
        (3215031751, False),  # pseudoprime to bases 2,3,5,7
        (2305843009213693951, True),  # 2**61 - 1
        ((1 << 61) - 1, True),
        (10**18 + 9, True),
        (10**18 + 7, False),
    ],
)
def test_is_prime_known_values(n, expected):
    assert is_prime(n) == expected


@pytest.mark.parametrize("sieve", [primes_upto, prime_flags])
def test_sieve_rejects_limit_above_table_limit(sieve):
    for limit in (TABLE_LIMIT + 1, 10**10, 10**20):
        with pytest.raises(DomainError):
            sieve(limit)
