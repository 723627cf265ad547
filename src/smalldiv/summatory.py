"""Exact evaluation of S(x) = sum of a(k) for k <= x, in O(sqrt x) time.

Write each term a(k) as a sum over lattice points (y, u) with y a small
divisor of k and u = k/y its cofactor, so y <= u and y*u <= x. Each small
divisor y <= r = isqrt(x) pairs with the cofactors y .. x//y; with
y * (x//y) = x - x % y that gives

  S(x) = r*x - sum over y <= r of (x % y) - r(r+1)(2r+1)/6 + r(r+1)/2,

one C-level sum of residues. The sum of sigma(k) is an exact loop over the
same y, by the Dirichlet hyperbola method. A brute oracle (per-term sums of
a(k)) is kept for cross-checking. Reports compare S(x) against (2/3) x**1.5.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, repeat
from operator import mod
from typing import NamedTuple

from .core import BRUTE_CAP, small_divisor_sums_upto
from .errors import DomainError

# Both exact routes take isqrt(x) = 10**8 steps at this limit: on one core of a 2-core
# Intel Xeon under CPython 3.11, S(x) takes 6.1 s and the sigma loop 26-29 s. Larger x is rejected.
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
    """Exact S(x) = r*x - sum(x % y) - r(r+1)(2r+1)/6 + r(r+1)/2, over y <= r = isqrt(x).

    O(sqrt x) time, O(1) memory, 1 <= x <= SUMMATORY_LIMIT: 0.59 s at 10**14, 6.1 s at the limit.
    """
    if not 1 <= x <= SUMMATORY_LIMIT:
        raise DomainError(f"summatory_exact requires 1 <= x <= {SUMMATORY_LIMIT}")
    r = math.isqrt(x)
    return r * x - sum(map(mod, repeat(x, r), range(1, r + 1))) - r * (r + 1) * (2 * r + 1) // 6 + r * (r + 1) // 2


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
