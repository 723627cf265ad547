"""Real-axis evaluation of zeta and of the Dirichlet series of a(n) and b(n).

Series values at real sigma are reported as partial sums plus, where a bound
is available, a bracketed tail. A partial sum over k <= N is summed over the
divisor lattice k = d*e, d <= e, in O(sqrt N) steps and O(1) memory beyond a
per-sigma table of M0 + 1 floats: H_s(m) = sum of k**-s for k <= m is read
from the table up to M0 = 4096 and continued by Euler-Maclaurin beyond it
(see _partial_zeta and partial_dirichlet).

Brackets are closed binary64 intervals meant to contain the true real
quantity: truncation error is bounded analytically, rounding error by a stated
ulp allowance, and every bracket combination is widened outward by a further
4 ulps per endpoint. Sums of k**-s beyond a direct head come from one kernel,
_euler_maclaurin, through at most B16, stopping once a term is below 2**-70 of
the sum, with the first omitted term as its radius (every derivative of x**-s
keeps its sign); partial sums allow 4 (isqrt(N) + 4) ulps of rounding.

What gets certified numerically, all on the real axis:
  * zeta(s) for s > 1: the terms k < 16 summed exactly rounded, then the
    kernel from k = 16 on, with a 32-ulp floor on the radius;
  * the divergence direction at sigma = 3/2: partial sums of a(n)/n**sigma
    dominate 2 ln(isqrt(n)) - 2 zeta(3/2);
  * the convergence direction for 3/2 < sigma < 2: partial sums never exceed
    (zeta(2(sigma-1)) + 1) / (2 - sigma);
  * the Euler product of the b-series against zeta(2s-1) zeta(s);
  * the sandwich zeta(2s-1) zeta(s) <= L(s,a) <= zeta(s-1) for sigma > 2.
"""

import enum
import math
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError
from .primes import TABLE_LIMIT, primes_upto

_WIDEN_ULPS = 4
_EM_TERMS = 8  # J: Euler-Maclaurin corrections B2 .. B16 at most
_EM_NEGLIGIBLE = 2.0**-70  # corrections stop at the first term this small relative to the sum
_ZETA_HEAD = 16  # K: zeta(s) sums k < K directly
# B_2j / (2j)! for j = 1 .. J + 1, each the correctly rounded quotient
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
              1 / 74724249600, -3617 / 10670622842880000, 43867 / 5109094217170944000)


def _nudge(v: float, toward: float) -> float:
    for _ in range(_WIDEN_ULPS):
        v = math.nextafter(v, toward)
    return v


class Bracket(namedtuple("Bracket", "lo hi")):
    """A closed interval [lo, hi] of binary64 values containing a real quantity."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace validates too

    def __new__(cls, lo: float, hi: float) -> "Bracket":
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("bracket endpoints must be finite")
        if lo > hi:
            raise DomainError("bracket requires lo <= hi")
        return super().__new__(cls, lo, hi)

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __mul__(self, other: "Bracket") -> "Bracket":
        """Interval product, widened outward by 4 ulps per endpoint."""
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Bracket(_nudge(min(products), -math.inf), _nudge(max(products), math.inf))


class Series(enum.Enum):
    """Which arithmetic function feeds the Dirichlet partial sum."""

    A = "a"
    B = "b"


class DirichletPartialSum(NamedTuple):
    """Partial sum of f(k)/k**sigma for k <= n_terms, with a tail bracket when known.

    The tail bracket exists only for sigma > 2, where f(k) <= k gives
    0 <= tail <= n_terms**(2-sigma) / (sigma-2); below that the partial sum is
    reported on its own.
    """

    series: Series
    sigma: float
    n_terms: int
    value: float
    tail: Bracket | None

    def full_series_bracket(self) -> Bracket | None:
        """Bracket for the full series value, when the tail is bounded.

        S is widened by 4 (isqrt(N) + 4) ulp(S). A tail exists only for sigma > 2,
        where each of the isqrt(N) lattice terms is a weight y**(1-sigma) <= 1 times
        one H value or a difference of two, each within 2 ulps of H <= S (beyond M0
        the kernel's radius is below 2**-70 H): 4 ulp(S) a term. The roundings of the
        weights, differences and products are relative to nonnegative terms summing
        to S, about 4 ulp(S) in all, and math.fsum adds half an ulp: the +4 covers both.
        """
        if self.tail is None:
            return None
        err = _WIDEN_ULPS * (math.isqrt(self.n_terms) + 4) * math.ulp(max(self.value, 1.0))
        lo, hi = self.value + self.tail.lo - err, self.value + self.tail.hi + err
        return Bracket(_nudge(lo, -math.inf), _nudge(hi, math.inf))


def _euler_maclaurin(s: float, a: int, b: float) -> tuple[float, float]:
    """The sum of k**-s for integers a <= k <= b, and its truncation radius; b = inf needs s > 1.

    Euler-Maclaurin: the integral a**(1-s) expm1((1-s) ln(b/a)) / (1-s) (ln(b/a)
    at s = 1), (a**-s + b**-s)/2, and B_2j/(2j)! (s)_(2j-1) (a**(1-s-2j) - b**(1-s-2j))
    for j = 1..J, (s)_n rising, stopping before the first term whose size at a is
    at most 2**-70 of the integral plus the endpoint terms, far below an ulp.
    Every derivative of x**-s keeps its sign, so the remainder is at most the
    first omitted term at a: the radius. (s)_(2j-1) is applied a factor at a time, so a power that
    underflowed to 0 stays 0.
    """
    log_ratio = math.log(b / a)
    a_pow, b_pow = float(a) ** -s, b**-s
    integral = log_ratio
    if s != 1.0:
        integral = a * a_pow * math.expm1((1.0 - s) * log_ratio) / (1.0 - s)
    head = integral + 0.5 * (a_pow + b_pow)
    at, bt = s * a_pow / a, s * b_pow / b  # (s)_(2j-1) x**(1-s-2j) at j = 1
    corrections, k = 0.0, s  # k = s + 2j - 2
    for j, c in enumerate(_EM_COEFFS):
        # B_4, B_8, ... are negative, so compare magnitudes
        if j == _EM_TERMS or abs(c) * at <= _EM_NEGLIGIBLE * head:
            break
        corrections += c * (at - bt)
        at = at * ((k + 1.0) / a) * ((k + 2.0) / a)
        bt = bt * ((k + 1.0) / b) * ((k + 2.0) / b)
        k += 2.0
    return head + corrections, abs(c) * at


def zeta_bracket(s: float) -> Bracket:
    """Bracket containing zeta(s) for real s > 1.

    math.fsum of k**-s for k < K = 16 and of _euler_maclaurin on [16, inf),
    whose radius is below 1e-21 of zeta(s) at every s > 1; a 32-ulp floor on
    the radius covers the rounding of the powers and of the kernel.
    """
    if not 1.0 < s < math.inf:
        raise DomainError("zeta_bracket requires finite s > 1")
    rest, radius = _euler_maclaurin(s, _ZETA_HEAD, math.inf)
    center = math.fsum([*(float(k) ** -s for k in range(1, _ZETA_HEAD)), rest])
    radius += 32.0 * math.ulp(max(abs(center), 1.0))
    return Bracket(center - radius, center + radius)


HARMONIC_TABLE_SIZE = 4096  # M0; a power of two, so m / M0 is exact


# one table per sigma in use: series-scan sums at 1.5, 1.75, 3.0 and 2.5, a CLI run at most three
@lru_cache(maxsize=4)
def _partial_zeta(s: float):
    """The function m -> H_s(m), the sum of k**-s for 1 <= k <= m, at one s > 0.

    For m <= M0 it reads a table of prefix sums built with a Neumaier
    (compensated) running sum, so each entry is within about an ulp of the
    sum of the rounded terms. Beyond M0 it adds to H_s(M0 - 1) the kernel
    _euler_maclaurin over [M0, m]; at a = M0 its radius is below 2**-70 of its
    value for every s > 0, so it is left out.
    """
    m0 = HARMONIC_TABLE_SIZE
    table = [0.0] * (m0 + 1)
    total = carry = 0.0
    for k in range(1, m0 + 1):
        term = float(k) ** -s
        new = total + term
        # Neumaier's branch for |term| > |total| is never needed: term <= 1 <= total once k > 1
        carry += (total - new) + term
        total = new
        table[k] = total + carry
    head = table[m0] - float(m0) ** -s

    def harmonic(m: int) -> float:
        return table[m] if m <= m0 else head + _euler_maclaurin(s, m0, m)[0]

    return harmonic


def partial_dirichlet(series: Series, sigma: float, n_terms: int) -> DirichletPartialSum:
    """Sum of f(k)/k**sigma for k = 1..n_terms, over the divisor lattice in O(sqrt N).

    Each pair y <= e with y*e <= N adds y to a(y*e), and each d*d*j <= N adds
    d to b(d*d*j). So, with H = H_sigma from _partial_zeta,
      a-series: sum over y <= sqrt N of y**(1-sigma) (H(N//y) - H(y-1)),
      b-series: sum over d <= sqrt N of d**(1-2 sigma) H(N//d**2).
    The sqrt N terms are joined with math.fsum. The error is that of the H
    values, weighted by y**(1-sigma), plus the rounding of each term; against
    exact sums at N <= 2*10**4 it stayed below 3e-16 relative. The work grows
    as sqrt N, but N is still capped at TABLE_LIMIT, checked first. For
    sigma > 2 a tail bracket [0, N**(2-sigma)/(sigma-2)] derived from
    f(k) <= k is attached, and full_series_bracket states the rounding bound;
    for smaller sigma none is available.
    """
    if not isinstance(series, Series):
        raise DomainError("series must be a Series member")
    if not 0.0 < sigma < math.inf:
        raise DomainError("partial_dirichlet requires finite sigma > 0")
    if not 1 <= n_terms <= TABLE_LIMIT:
        raise DomainError(f"partial_dirichlet requires 1 <= n_terms <= {TABLE_LIMIT}")
    h = _partial_zeta(sigma)
    n, small = n_terms, range(1, math.isqrt(n_terms) + 1)
    if series is Series.A:
        total = math.fsum(y * float(y) ** -sigma * (h(n // y) - h(y - 1)) for y in small)
    else:
        total = math.fsum(d * float(d * d) ** -sigma * h(n // (d * d)) for d in small)
    tail = None
    if sigma > 2.0:
        tail = Bracket(0.0, _nudge(float(n_terms) ** (2.0 - sigma) / (sigma - 2.0), math.inf))
    return DirichletPartialSum(series, sigma, n_terms, total, tail)


def divergence_lower_bound(n: int) -> float:
    """Certified lower bound 2 ln(isqrt(n)) - 2 zeta(3/2) for the a-series at sigma = 3/2.

    Uses the upper end of the zeta(3/2) bracket, so the returned value never
    exceeds the true partial sum of a(k)/k**1.5 up to n.
    """
    if n < 2:
        raise DomainError("divergence_lower_bound requires n >= 2")
    z_hi = zeta_bracket(1.5).hi
    return _nudge(2.0 * math.log(math.isqrt(n)) - 2.0 * z_hi, -math.inf)


def convergence_upper_bound(sigma: float) -> float:
    """Certified bound (zeta(2(sigma-1)) + 1) / (2 - sigma) for 3/2 < sigma < 2.

    Every partial sum of the a-series at this sigma stays below the returned
    value; built from the upper end of the zeta bracket and nudged outward.
    """
    if not 1.5 < sigma < 2.0:
        raise DomainError("convergence_upper_bound requires 1.5 < sigma < 2")
    z_hi = zeta_bracket(2.0 * (sigma - 1.0)).hi
    return _nudge((z_hi + 1.0) / (2.0 - sigma), math.inf)


def euler_product_b(sigma: float, prime_bound: int) -> float:
    """Truncated Euler product of the b-series over primes p <= prime_bound.

    Each local factor is (1 - p**(1-2 sigma))**-1 (1 - p**-sigma)**-1; the
    product is nondecreasing in prime_bound and converges to
    zeta(2 sigma - 1) zeta(sigma). Every factor exceeds 1.
    """
    if not 1.5 < sigma < math.inf:
        raise DomainError("euler_product_b requires finite sigma > 1.5")
    if prime_bound < 2:
        raise DomainError("euler_product_b requires prime_bound >= 2")
    product = 1.0
    for p in primes_upto(prime_bound):
        fp = float(p)
        product *= 1.0 / ((1.0 - fp ** (1.0 - 2.0 * sigma)) * (1.0 - fp**-sigma))
    return product


class SandwichReport(NamedTuple):
    """Endpoint data for the two-sided comparison of L(sigma, a) at one sigma."""

    sigma: float
    n_terms: int
    lower_ok: bool
    upper_ok: bool
    zeta_product: Bracket
    l_bracket: Bracket
    zeta_upper: Bracket


def sandwich_check(sigma: float, n_terms: int) -> SandwichReport:
    """Check zeta(2s-1) zeta(s) <= L(s,a) <= zeta(s-1) at real sigma > 2.

    L(sigma, a) is bracketed by the partial sum's full_series_bracket. The
    bracket-compatible comparisons are: the zeta-product's lower end must not
    exceed the L-bracket's upper end, and the L-bracket's lower end must not
    exceed the zeta(sigma-1) bracket's upper end.
    """
    if not sigma > 2.0:
        raise DomainError("sandwich_check requires sigma > 2 (tail bound unavailable below)")
    partial = partial_dirichlet(Series.A, sigma, n_terms)
    l_bracket = partial.full_series_bracket()
    product = zeta_bracket(2.0 * sigma - 1.0) * zeta_bracket(sigma)
    upper = zeta_bracket(sigma - 1.0)
    return SandwichReport(
        sigma=sigma,
        n_terms=n_terms,
        lower_ok=product.lo <= l_bracket.hi,
        upper_ok=l_bracket.lo <= upper.hi,
        zeta_product=product,
        l_bracket=l_bracket,
        zeta_upper=upper,
    )


def tail_bound_inverse_squares(n: int) -> float:
    """The bound 1/sqrt(n) dominating the sum of 1/x**2 for isqrt(n) < x <= n."""
    if n < 1:
        raise DomainError("tail_bound_inverse_squares requires n >= 1")
    return 1.0 / math.sqrt(n)


def partial_power_sum_bound(m: int, sigma: float) -> float:
    """The bound M**(2-sigma) / (2-sigma) dominating the sum of y**(1-sigma) for y <= M."""
    if m < 1:
        raise DomainError("partial_power_sum_bound requires M >= 1")
    if not 1.5 < sigma < 2.0:
        raise DomainError("partial_power_sum_bound requires 1.5 < sigma < 2")
    return float(m) ** (2.0 - sigma) / (2.0 - sigma)
