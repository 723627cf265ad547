"""Independent brute-force oracles for the test suite.

Everything here recomputes values from first principles and shares no code
with the package under test: divisor scans, naive sieves, term-by-term sums.
Slow on purpose; use only at sizes where the scan is feasible.
"""

import math
from fractions import Fraction


def divisor_list(n: int) -> list[int]:
    """All divisors of n by paired trial division."""
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def small_divisor_sum(n: int) -> int:
    return sum(d for d in divisor_list(n) if d * d <= n)


def sigma(n: int) -> int:
    return sum(divisor_list(n))


def tau(n: int) -> int:
    return len(divisor_list(n))


def b_square_divisor_sum(n: int) -> int:
    return sum(d for d in range(1, math.isqrt(n) + 1) if n % (d * d) == 0)


def prime_flags(limit: int) -> list[bool]:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return flags


def factorize(n: int) -> list[tuple[int, int]]:
    """Plain trial-division factorization; fine up to ~10**12."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def one_plus_inverse_prime_product(primes: list[int]) -> Fraction:
    """Exact rational value of prod(1 + 1/p) over the given primes."""
    value = Fraction(1)
    for p in primes:
        value *= Fraction(p + 1, p)
    return value


def small_divisor_sums_upto(limit: int) -> list[int]:
    """a(k) for 0 <= k <= limit (a(0) = 0), by adding each d to its multiples k >= d*d."""
    values = [0] * (limit + 1)
    for d in range(1, math.isqrt(limit) + 1):
        for k in range(d * d, limit + 1, d):
            values[k] += d
    return values


def b_values_upto(limit: int) -> list[int]:
    """b(k) for 0 <= k <= limit (b(0) = 0), by adding each d to the multiples of d*d."""
    values = [0] * (limit + 1)
    for d in range(1, math.isqrt(limit) + 1):
        for k in range(d * d, limit + 1, d * d):
            values[k] += d
    return values


def summatory_loop(x: int) -> int:
    """S(x) as the sum over y <= isqrt(x) of y * (x//y - y + 1), one term at a time.

    Each small divisor y of some k <= x pairs with the cofactors y .. x//y.
    """
    return sum(y * (x // y - y + 1) for y in range(1, math.isqrt(x) + 1))


def partial_dirichlet(values: list[int], sigma: float, n: int) -> float:
    """Sum of values[k] * k**-sigma for 1 <= k <= n, term by term in ascending k.

    The terms are joined with math.fsum, so the result is the correctly
    rounded sum of the rounded terms: within about 2 ulps, relative, of the
    true sum, since every term is nonnegative.
    """
    return math.fsum(values[k] * float(k) ** -sigma for k in range(1, n + 1))
