"""Real-axis evaluation of zeta and of the Dirichlet series of a(n) and b(n).

Series values at real sigma are reported as partial sums plus, where a bound
is available, a bracketed tail. A partial sum over k <= N is summed over the
divisor lattice k = d*e, d <= e, in O(sqrt N) steps and O(1) memory beyond a
per-sigma table of M0 + 1 floats: H_s(m) = sum of k**-s for k <= m is read
from the table up to M0 = 4096 and continued by Euler-Maclaurin beyond it
(see _partial_zeta and partial_dirichlet).

Brackets are closed binary64 intervals meant to contain the true real
quantity. The enclosure policy is pragmatic rather than formal interval
arithmetic: truncation error is bounded analytically and rounding error by an
ulp allowance per arithmetic step, with every bracket combination widened
outward by a further 4 ulps per endpoint. That slack is orders of magnitude
below every tolerance used by the checks here.

What gets certified numerically, all on the real axis:
  * zeta(s) for s > 1 by Euler-Maclaurin through the B2 correction, with the
    B4 term's magnitude as the truncation radius;
  * the divergence direction at sigma = 3/2: partial sums of a(n)/n**sigma
    dominate 2 ln(isqrt(n)) - 2 zeta(3/2);
  * the convergence direction for 3/2 < sigma < 2: partial sums never exceed
    (zeta(2(sigma-1)) + 1) / (2 - sigma);
  * the Euler product of the b-series against zeta(2s-1) zeta(s);
  * the sandwich zeta(2s-1) zeta(s) <= L(s,a) <= zeta(s-1) for sigma > 2.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .primes import TABLE_LIMIT, primes_upto

DEFAULT_ZETA_TERMS = 10**4

_WIDEN_ULPS = 4


def _nudge(v: float, toward: float) -> float:
    for _ in range(_WIDEN_ULPS):
        v = math.nextafter(v, toward)
    return v


@dataclass(frozen=True)
class Bracket:
    """A closed interval [lo, hi] of binary64 values containing a real quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("bracket endpoints must be finite")
        if self.lo > self.hi:
            raise DomainError("bracket requires lo <= hi")

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


@dataclass(frozen=True)
class DirichletPartialSum:
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
        """Bracket for the full series value, when the tail is bounded."""
        if self.tail is None:
            return None
        return Bracket(
            _nudge(self.value + self.tail.lo, -math.inf),
            _nudge(self.value + self.tail.hi, math.inf),
        )


def zeta_bracket(s: float, n_terms: int = DEFAULT_ZETA_TERMS) -> Bracket:
    """Bracket containing zeta(s) for real s > 1.

    Euler-Maclaurin: sum k**-s for k < N, then the corrections N**-s / 2,
    N**(1-s)/(s-1) and the B2 term s N**(-s-1) / 12. The truncation radius is
    the magnitude of the first omitted correction (the B4 term). The partial
    sum is exactly rounded (math.fsum), so a constant 32-ulp floor on the
    radius covers all floating-point noise and width shrinks as N grows.
    The sum is linear in N, so N is capped at TABLE_LIMIT.
    """
    if not 1.0 < s < math.inf:
        raise DomainError("zeta_bracket requires finite s > 1")
    if not 10 <= n_terms <= TABLE_LIMIT:
        raise DomainError(f"zeta_bracket requires 10 <= n_terms <= {TABLE_LIMIT}")
    n = n_terms
    partial = math.fsum(float(k) ** -s for k in range(1, n))
    center = (
        partial
        + 0.5 * float(n) ** -s
        + float(n) ** (1.0 - s) / (s - 1.0)
        + s * float(n) ** (-s - 1.0) / 12.0
    )
    trunc = s * (s + 1.0) * (s + 2.0) * float(n) ** (-s - 3.0) / 720.0
    radius = trunc + 32.0 * math.ulp(max(abs(center), 1.0))
    return Bracket(center - radius, center + radius)


HARMONIC_TABLE_SIZE = 4096  # M0; a power of two, so m / M0 is exact


# one table per sigma in use: series-scan sums at 1.5, 1.75, 3.0 and 2.5, a CLI run at most three
@lru_cache(maxsize=4)
def _partial_zeta(s: float):
    """The function m -> H_s(m), the sum of k**-s for 1 <= k <= m, at one s > 0.

    For m <= M0 it reads a table of prefix sums built with a Neumaier
    (compensated) running sum, so each entry is within about an ulp of the
    sum of the rounded terms. Beyond M0 it adds to H_s(M0) the Euler-Maclaurin
    sum from M0 to m through the B2 term: the integral
    M0**(1-s) expm1((1-s) ln(m/M0)) / (1-s), which is ln(m/M0) at s = 1, then
    (m**-s - M0**-s)/2 and s (M0**(-s-1) - m**(-s-1))/12. The omitted
    remainder is at most the B4 term, s(s+1)(s+2) M0**(-s-3)/720, because
    every derivative of x**-s keeps its sign.
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
    head = table[m0]
    m0_pow = float(m0) ** -s
    one_minus_s = 1.0 - s

    def harmonic(m: int) -> float:
        if m <= m0:
            return table[m]
        log_ratio = math.log(m / m0)
        integral = log_ratio
        if one_minus_s:
            integral = m0 * m0_pow * math.expm1(one_minus_s * log_ratio) / one_minus_s
        m_pow = float(m) ** -s
        return head + integral + 0.5 * (m_pow - m0_pow) + s * (m0_pow / m0 - m_pow / m) / 12.0

    return harmonic


def partial_dirichlet(series: Series, sigma: float, n_terms: int) -> DirichletPartialSum:
    """Sum of f(k)/k**sigma for k = 1..n_terms, over the divisor lattice in O(sqrt N).

    Each pair y <= e with y*e <= N adds y to a(y*e), and each d*d*j <= N adds
    d to b(d*d*j). So, with H = H_sigma from _partial_zeta,
      a-series: sum over y <= sqrt N of y**(1-sigma) (H(N//y) - H(y-1)),
      b-series: sum over d <= sqrt N of d**(1-2 sigma) H(N//d**2).
    The sqrt N terms are joined with math.fsum. The error is that of the H
    values, weighted by y**(1-sigma): the table's ulp, the Euler-Maclaurin
    remainder (below s(s+1)(s+2) M0**(-s-3)/720 per value) and the rounding of
    the integral term. Against exact sums at N <= 2*10**4 it stayed below
    3e-16 relative. The work grows as sqrt N, but N is still capped at
    TABLE_LIMIT, checked first. For sigma > 2 a tail bracket
    [0, N**(2-sigma)/(sigma-2)] derived from f(k) <= k is attached; for smaller
    sigma none is available.
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


@dataclass(frozen=True)
class SandwichReport:
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

    L(sigma, a) is bracketed as [partial sum, partial sum + tail bound]. The
    bracket-compatible comparisons are: the zeta-product's lower end must not
    exceed the L-bracket's upper end, and the L-bracket's lower end must not
    exceed the zeta(sigma-1) bracket's upper end.
    """
    if not sigma > 2.0:
        raise DomainError("sandwich_check requires sigma > 2 (tail bound unavailable below)")
    partial = partial_dirichlet(Series.A, sigma, n_terms)
    l_bracket = partial.full_series_bracket()
    # Partial-sum rounding: same ulp-per-term allowance as the zeta brackets.
    slack = _WIDEN_ULPS * (n_terms + 4) * math.ulp(max(abs(partial.value), 1.0))
    l_bracket = Bracket(l_bracket.lo - slack, l_bracket.hi + slack)
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
