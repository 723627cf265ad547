"""Prime enumeration and primality testing.

Everything here is deterministic and pure Python: the sieve is an odd-only
Eratosthenes sieve over a bytearray, and the primality test is a Miller-Rabin
variant with a fixed witness set that is exact for every n below 3.3e24 (in
particular for all 64-bit inputs).
"""

import math
from functools import lru_cache
from itertools import compress

from .errors import DomainError

# Fixed Miller-Rabin witnesses: exact for all n < 3 317 044 064 679 887 385 961 981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest limit for the prime sieve and the term count of partial_dirichlet;
# larger limits are rejected up front, before anything is allocated.
TABLE_LIMIT = 10**7


def _odd_sieve(limit: int) -> bytearray:
    """Flags s with s[i] = 1 iff 2i+1 is prime, for every odd 2i+1 <= limit <= TABLE_LIMIT."""
    if not 0 <= limit <= TABLE_LIMIT:
        raise DomainError(f"sieve limit must satisfy 0 <= limit <= {TABLE_LIMIT}")
    size = (limit + 1) // 2
    sieve = bytearray([1]) * size
    if size:
        sieve[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, size, p)))
    return sieve


def prime_flags(limit: int) -> bytes:
    """Immutable flags f of length limit+1 with f[i] = 1 iff i is prime."""
    odd = _odd_sieve(limit)
    flags = bytearray(limit + 1)
    flags[1::2] = odd
    if limit >= 2:
        flags[2] = 1
    return bytes(flags)


# factorize's trial primes below 1000, which every call reuses, and one other bound (0.4 MB at 10**5)
@lru_cache(maxsize=2)
def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending."""
    odd = _odd_sieve(limit)
    if limit < 2:
        return ()
    return (2,) + tuple(compress(range(1, limit + 1, 2), odd))


def first_primes(m: int) -> list[int]:
    """The first m primes, ascending."""
    if m < 0:
        raise DomainError("prime count must be nonnegative")
    if m == 0:
        return []
    # p_m < m (ln m + ln ln m) for m >= 6; small m handled by the floor of 15.
    bound = 15 if m < 6 else int(m * (math.log(m) + math.log(math.log(m)))) + 1
    ps = primes_upto(bound)
    while len(ps) < m:
        bound *= 2
        ps = primes_upto(bound)
    return list(ps[:m])


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2**64 (and well beyond)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
