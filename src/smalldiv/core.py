"""Exact integer arithmetic for small-divisor sums and their companions.

A *small divisor* of n is a divisor d with d*d <= n. All predicates here use
that integer comparison; no floating-point square roots are involved anywhere,
so perfect squares are never misclassified.

Functions: a(n) = small_divisor_sum, its multiplicative companion b(n),
sigma(n) (divisor sum), tau(n) (divisor count), plus factorization and
divisor enumeration. a(n) and b(n) are both computed from factorize(n), so
their integer inputs lie in 1 <= n < 2**63. Everything is pure and
deterministic; values are plain Python ints, so there is no silent wraparound
at any size. The two brute tables are pure Python too, capped at BRUTE_CAP.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import lru_cache

from .errors import DivisorBudgetError, DomainError
from .primes import is_prime, primes_upto

# Inputs to factorize() must stay below 2**63; directly built factorizations
# may exceed it (the arithmetic is arbitrary precision either way).
FACTORIZE_LIMIT = 2**63

# Default budget for explicit divisor enumeration.
DIVISOR_CAP = 2**20

# Largest limit of the brute tables and the brute S(x) oracle. They mark
# O(x sqrt x) divisors into a list: 0.4 s at this cap, about 7 s and 400 MB
# at 10**7, which no caller needs.
BRUTE_CAP = 10**6

# factorize trial-divides by the primes below this; rho splits the rest.
_TRIAL_PRIME_LIMIT = 1000


class Factorization(namedtuple("Factorization", "value factors")):
    """A number together with its prime factorization.

    factors is an ascending tuple of (prime, exponent) pairs whose product
    reconstructs value; it is empty exactly for value 1. Construction
    validates all of that, including primality of every listed prime.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace validates too

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
        self = super().__new__(cls, value, factors)
        self._validate(check_primes=True)
        return self

    @classmethod
    def _proven(cls, value: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
        """A factorization whose primes the caller has already proven.

        Every check of the constructor runs except the primality tests, so
        factorize tests each prime once rather than twice.
        """
        f = tuple.__new__(cls, (value, factors))
        f._validate(check_primes=False)
        return f

    def _validate(self, check_primes: bool) -> None:
        if self.value < 1:
            raise DomainError("factored value must be >= 1")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise DomainError("primes must be strictly increasing")
            if e < 1:
                raise DomainError("exponents must be >= 1")
            if check_primes and not is_prime(p):
                raise DomainError(f"{p} is not prime")
            prod *= p**e
            prev = p
        if prod != self.value:
            raise DomainError("factor product does not equal value")

    def tau(self) -> int:
        """tau(n): number of positive divisors, as the product of (e+1)."""
        t = 1
        for _, e in self.factors:
            t *= e + 1
        return t


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n, by Brent's cycle variant.

    Parameters are swept deterministically (fixed y0, increasing c), so the
    returned factor is a pure function of n.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # Backtrack one step at a time to recover the factor.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in practice


def _split(n: int, out: dict):
    """Add the prime factors of n to out, proving each prime once."""
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _split(d, out)
    _split(n // d, out)


def factorize(n: int) -> Factorization:
    """Unique prime factorization of n, for 1 <= n < 2**63.

    Trial division by the primes below 1000, then Brent-variant Pollard rho
    on the cofactor, with a deterministic Miller-Rabin proof of each prime it
    finds. Rho splits off a prime p in about sqrt(p) steps, so a factor
    below 10**6 costs about a thousand steps.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    if n >= FACTORIZE_LIMIT:
        raise DomainError("factorize requires n < 2**63")
    val = n
    found: dict[int, int] = {}
    for p in primes_upto(_TRIAL_PRIME_LIMIT):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            found[p] = e
    _split(n, found)
    # Trial-division primes come from the sieve and _split proved the rest.
    return Factorization._proven(val, tuple(sorted(found.items())))


def divisors(f: Factorization, cap: int = DIVISOR_CAP) -> list[int]:
    """All tau(n) divisors of f.value, ascending.

    Rejects the enumeration up front when tau(n) exceeds cap, so runaway
    expansions fail fast instead of exhausting memory.
    """
    if f.tau() > cap:
        raise DivisorBudgetError(f"divisor count {f.tau()} exceeds cap {cap}")
    divs = [1]
    for p, e in f.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def small_divisor_sum(n: int) -> int:
    """a(n): the sum of divisors d of n with d*d <= n, for 1 <= n < 2**63.

    Equals 1 exactly when n is 1 or prime. Computed as
    small_divisor_sum_factored(factorize(n)); every n in the domain has at
    most 161280 divisors, well inside DIVISOR_CAP.
    """
    if n < 1:
        raise DomainError("small_divisor_sum requires n >= 1")
    return small_divisor_sum_factored(factorize(n))


def small_divisor_sum_factored(f: Factorization) -> int:
    """a(n) for n = f.value: the sum of its divisors d with d*d <= n.

    Sums over divisors(f), so the DIVISOR_CAP budget applies. Also serves
    factorizations built directly, whose value may exceed 2**63.
    """
    n = f.value
    return sum(d for d in divisors(f) if d * d <= n)


def sigma(f: Factorization) -> int:
    """sigma(n): sum of all positive divisors, as the product of (p**(e+1)-1)/(p-1)."""
    total = 1
    for p, e in f.factors:
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


tau = Factorization.tau


def b_multiplicative(f: Factorization) -> int:
    """b(n): the multiplicative companion of a(n).

    b is multiplicative with b(p**e) = 1 + p + ... + p**(e//2), so b(n) is the
    product of those prime-power values; b(1) = 1.
    """
    total = 1
    for p, e in f.factors:
        total *= (p ** (e // 2 + 1) - 1) // (p - 1)
    return total


def b_via_square_divisors(n: int) -> int:
    """b(n) as the sum of d over all d with d*d dividing n, for 1 <= n < 2**63.

    Squarefree n gives 1 (only d=1 qualifies). Computed as
    b_multiplicative(factorize(n)).
    """
    if n < 1:
        raise DomainError("b_via_square_divisors requires n >= 1")
    return b_multiplicative(factorize(n))


@lru_cache(maxsize=4)
def small_divisor_sums_upto(limit: int) -> memoryview:
    """Read-only int64 buffer t with t[k] = a(k) for 1 <= k <= limit <= BRUTE_CAP (t[0] = 0).

    Built by marking every small divisor d against each of its multiples
    m >= d*d, i.e. by brute enumeration of all (d, m) divisor pairs.
    """
    if not 1 <= limit <= BRUTE_CAP:
        raise DomainError(f"table limit must satisfy 1 <= limit <= {BRUTE_CAP}")
    values = [0] * (limit + 1)
    for d in range(1, math.isqrt(limit) + 1):
        s = slice(d * d, None, d)
        values[s] = [v + d for v in values[s]]
    return memoryview(array("q", values)).toreadonly()


@lru_cache(maxsize=4)
def b_values_upto(limit: int) -> memoryview:
    """Read-only int64 buffer t with t[k] = b(k) for 1 <= k <= limit <= BRUTE_CAP (t[0] = 0).

    Built on the square-divisor characterization: every d contributes to each
    multiple of d*d.
    """
    if not 1 <= limit <= BRUTE_CAP:
        raise DomainError(f"table limit must satisfy 1 <= limit <= {BRUTE_CAP}")
    values = [0] * (limit + 1)
    for d in range(1, math.isqrt(limit) + 1):
        s = slice(d * d, None, d * d)
        values[s] = [v + d for v in values[s]]
    return memoryview(array("q", values)).toreadonly()
