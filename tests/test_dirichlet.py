import math
import time

import mpmath
import pytest

from smalldiv.dirichlet import (
    Bracket,
    Series,
    _euler_maclaurin,
    convergence_upper_bound,
    divergence_lower_bound,
    euler_product_b,
    partial_dirichlet,
    partial_power_sum_bound,
    sandwich_check,
    tail_bound_inverse_squares,
    zeta_bracket,
)
from smalldiv import TABLE_LIMIT
from smalldiv.errors import DomainError

ZETA_32 = float(mpmath.zeta(1.5))  # ~2.6123753486854883


class TestBracket:
    def test_validation(self):
        with pytest.raises(DomainError):
            Bracket(2.0, 1.0)
        with pytest.raises(DomainError):
            Bracket(0.0, math.inf)

    def test_accessors(self):
        b = Bracket(1.0, 3.0)
        assert b.mid == 2.0
        assert b.width == 2.0
        assert b.contains(1.0) and b.contains(3.0) and not b.contains(3.5)

    def test_product_contains_true_products(self):
        b = Bracket(1.0, 2.0) * Bracket(3.0, 4.0)
        assert b.lo <= 3.0 and b.hi >= 8.0
        assert b.contains(1.5 * 3.5)

    def test_replace_validates(self):
        assert Bracket(1.0, 2.0)._replace(hi=3.0) == Bracket(1.0, 3.0)
        with pytest.raises(DomainError):
            Bracket(1.0, 2.0)._replace(lo=3.0)
        with pytest.raises(DomainError):
            Bracket(1.0, 2.0)._replace(hi=math.nan)

    @pytest.mark.parametrize("record, field", [
        (Bracket(1.0, 2.0), "lo"),
        (partial_dirichlet(Series.A, 2.5, 100), "value"),
    ])
    def test_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0


class TestZetaBracket:
    GRID = [1.000001, 1.002, 1.01, 1.2, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0, 50.0, 199.0]

    @pytest.mark.parametrize("s", GRID)
    def test_contains_library_zeta(self, s):
        b = zeta_bracket(s)
        with mpmath.workdps(30):
            assert b.lo <= mpmath.zeta(s) <= b.hi, s

    def test_basel_value(self):
        assert zeta_bracket(2.0).contains(math.pi**2 / 6.0)

    @pytest.mark.parametrize("s", [s for s in GRID if s >= 1.2])
    def test_width_within_64_ulps(self, s):
        b = zeta_bracket(s)
        assert b.width <= 64 * math.ulp(b.mid)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.0])
    # at a = 2 and 4 the truncation error is 30-70 % of the radius, far above rounding
    @pytest.mark.parametrize("a,b", [(2, 50), (4, 40), (16, 16), (16, 17), (16, 1000), (100, 2000), (4096, 8192)])
    def test_euler_maclaurin_kernel(self, s, a, b):
        value, radius = _euler_maclaurin(s, a, b)
        assert radius >= 0, (s, a, b)  # the first omitted term's size, also where its coefficient is negative
        with mpmath.workdps(30):
            exact = mpmath.fsum(mpmath.mpf(k) ** -s for k in range(a, b + 1))
            assert abs(value - exact) <= radius + 4 * math.ulp(value), (s, a, b)

    def test_rejections(self):
        for s in (1.0, 0.5, -2.0):
            with pytest.raises(DomainError):
                zeta_bracket(s)

    def test_rejects_non_finite(self):
        for s in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="requires finite"):
                zeta_bracket(s)


class TestPartialDirichlet:
    def test_single_term_is_one(self):
        for sig in (0.5, 1.5, 3.0):
            assert partial_dirichlet(Series.A, sig, 1).value == 1.0

    def test_nondecreasing_in_terms(self):
        vals = [partial_dirichlet(Series.A, 1.5, n).value for n in (10, 100, 1000, 10**4)]
        assert vals == sorted(vals)
        assert all(v >= 0.0 for v in vals)

    def test_nonincreasing_in_sigma(self):
        vals = [partial_dirichlet(Series.A, s, 1000).value for s in (1.2, 1.5, 2.0, 3.0)]
        assert vals == sorted(vals, reverse=True)

    def test_b_dominated_by_a(self):
        for sig in (0.5, 1.5, 2.5):
            a = partial_dirichlet(Series.A, sig, 10**4).value
            b = partial_dirichlet(Series.B, sig, 10**4).value
            assert b <= a

    def test_tail_only_above_two(self):
        ps = partial_dirichlet(Series.A, 2.5, 100)
        assert ps.tail is not None
        assert ps.tail.lo == 0.0
        assert ps.tail.hi == pytest.approx(100**-0.5 / 0.5, rel=1e-12)
        full = ps.full_series_bracket()
        assert full.lo <= ps.value <= full.hi - ps.tail.hi * 0.99
        assert partial_dirichlet(Series.A, 1.8, 100).tail is None
        assert partial_dirichlet(Series.A, 1.8, 100).full_series_bracket() is None

    def test_divergence_proof_bound_at_three_halves(self):
        ps = partial_dirichlet(Series.A, 1.5, 10**4)
        assert ps.value >= 2.0 * math.log(math.isqrt(10**4)) - 2.0 * ZETA_32

    def test_logarithmic_growth_per_decade(self):
        lo = partial_dirichlet(Series.A, 1.5, 10**4).value
        hi = partial_dirichlet(Series.A, 1.5, 10**5).value
        assert hi - lo >= 0.9 * math.log(10)

    def test_convergence_proof_bound(self):
        value = partial_dirichlet(Series.A, 1.75, 10**4).value
        assert value <= (ZETA_32 + 1.0) / 0.25

    def test_rejections(self):
        with pytest.raises(DomainError):
            partial_dirichlet(Series.A, 0.0, 10)
        with pytest.raises(DomainError):
            partial_dirichlet(Series.A, 1.5, 0)
        with pytest.raises(DomainError):
            partial_dirichlet("a", 1.5, 10)
        # rejected before any work: uncapped, 10**20 terms are a 10**10-step loop
        for series in Series:
            for n_terms in (TABLE_LIMIT + 1, 10**20):
                start = time.perf_counter()
                with pytest.raises(DomainError):
                    partial_dirichlet(series, 2.5, n_terms)
                assert time.perf_counter() - start < 0.1

    def test_rejects_non_finite(self):
        for series in Series:
            for sigma in (math.inf, -math.inf, math.nan):
                with pytest.raises(DomainError):
                    partial_dirichlet(series, sigma, 10)


class TestDivergenceLowerBound:
    def test_small_n(self):
        assert divergence_lower_bound(4) == pytest.approx(
            2.0 * math.log(2) - 2.0 * ZETA_32, abs=1e-9
        )

    def test_large_n(self):
        assert divergence_lower_bound(10**8) == pytest.approx(
            2.0 * math.log(10**4) - 2.0 * ZETA_32, abs=1e-9
        )

    def test_below_partial_sum(self):
        for n in (100, 10**3, 10**4):
            assert divergence_lower_bound(n) <= partial_dirichlet(Series.A, 1.5, n).value

    def test_rejects_small(self):
        with pytest.raises(DomainError):
            divergence_lower_bound(1)


class TestConvergenceUpperBound:
    def test_value_at_175(self):
        assert convergence_upper_bound(1.75) == pytest.approx(4.0 * (ZETA_32 + 1.0), rel=1e-9)

    def test_grows_toward_two(self):
        assert convergence_upper_bound(1.99) > convergence_upper_bound(1.9) > convergence_upper_bound(1.75)

    def test_dominates_partial_sums(self):
        assert convergence_upper_bound(1.6) >= partial_dirichlet(Series.A, 1.6, 10**4).value

    def test_rejections(self):
        for sig in (1.5, 2.0, 2.5, 1.0):
            with pytest.raises(DomainError):
                convergence_upper_bound(sig)


class TestEulerProduct:
    def test_first_factor_only(self):
        # p = 2, sigma = 3: (1 - 2**-5)**-1 (1 - 2**-3)**-1 = 256/217
        assert euler_product_b(3.0, 2) == pytest.approx(256.0 / 217.0, rel=1e-14)

    def test_nondecreasing_in_prime_bound(self):
        vals = [euler_product_b(3.0, p) for p in (2, 10, 100, 10**4)]
        assert vals == sorted(vals)
        assert all(v >= 1.0 for v in vals)

    def test_matches_zeta_product(self):
        target = zeta_bracket(5.0).mid * zeta_bracket(3.0).mid
        assert abs(euler_product_b(3.0, 10**5) - target) < 1e-6
        target25 = zeta_bracket(4.0).mid * zeta_bracket(2.5).mid
        assert abs(euler_product_b(2.5, 10**5) - target25) < 1e-4

    def test_b_series_consistency(self):
        value = partial_dirichlet(Series.B, 3.0, 10**5).value
        assert value <= euler_product_b(3.0, 10**6)
        assert abs(value - zeta_bracket(5.0).mid * zeta_bracket(3.0).mid) < 1e-4

    def test_rejections(self):
        with pytest.raises(DomainError):
            euler_product_b(1.5, 100)
        with pytest.raises(DomainError):
            euler_product_b(3.0, 1)

    def test_rejects_non_finite(self):
        for sigma in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                euler_product_b(sigma, 10)

    def test_rejects_prime_bound_above_table_limit(self):
        for bound in (TABLE_LIMIT + 1, 10**10, 10**20):
            with pytest.raises(DomainError):
                euler_product_b(3.0, bound)


class TestSandwich:
    @pytest.mark.parametrize("sigma", [2.25, 2.5, 3.0, 4.0])
    def test_passes(self, sigma):
        rep = sandwich_check(sigma, 10**4)
        assert rep.lower_ok and rep.upper_ok

    def test_bracket_width_matches_tail_formula(self):
        rep = sandwich_check(2.5, 10**5)
        assert rep.l_bracket.width <= 10**5 ** -0.5 / 0.5 + 1e-6

    def test_endpoints_are_ordered_sensibly(self):
        rep = sandwich_check(3.0, 10**4)
        # true ordering of the three quantities shows through the brackets
        assert rep.zeta_product.lo < rep.zeta_upper.hi

    def test_rejects_sigma_at_most_two(self):
        for sigma in (2.0, 1.9, 0.5):
            with pytest.raises(DomainError):
                sandwich_check(sigma, 1000)


class TestAuxiliaryBounds:
    def test_inverse_squares_small(self):
        assert tail_bound_inverse_squares(100) == pytest.approx(0.1, rel=1e-15)
        direct = sum(1.0 / (x * x) for x in range(11, 101))
        assert direct == pytest.approx(0.0852161690, abs=1e-9)
        assert direct <= 0.1

    def test_inverse_squares_unit(self):
        assert tail_bound_inverse_squares(1) == 1.0  # empty sum, 0 <= 1

    def test_inverse_squares_mid(self):
        n = 10**4
        direct = sum(1.0 / (x * x) for x in range(math.isqrt(n) + 1, n + 1))
        assert direct <= tail_bound_inverse_squares(n)

    def test_power_sum_bound(self):
        assert partial_power_sum_bound(1, 1.75) == pytest.approx(4.0, rel=1e-15)
        bound100 = partial_power_sum_bound(100, 1.75)
        assert bound100 == pytest.approx(100**0.25 * 4.0, rel=1e-12)
        direct = sum(y ** (1.0 - 1.75) for y in range(1, 101))
        assert direct <= bound100
        direct_19 = sum(y ** (1.0 - 1.9) for y in range(1, 10**4 + 1))
        assert direct_19 <= partial_power_sum_bound(10**4, 1.9)

    def test_power_sum_rejections(self):
        with pytest.raises(DomainError):
            partial_power_sum_bound(0, 1.75)
        with pytest.raises(DomainError):
            partial_power_sum_bound(10, 2.0)
        with pytest.raises(DomainError):
            tail_bound_inverse_squares(0)


class TestSquareSupportedSeries:
    def test_square_terms_collapse_term_for_term(self):
        # the series with f(n) = sqrt(n) on squares (else 0) is, term for term,
        # the series of m**(1-2s) over m; both routes below build each term
        # with the identical float expression, so equality is exact
        n_max = 10**4
        for s in (1.5, 2.0):
            lhs = []
            for n in range(1, n_max + 1):
                r = math.isqrt(n)
                if r * r == n:
                    lhs.append(r / float(n) ** s)
            rhs = [m / float(m * m) ** s for m in range(1, math.isqrt(n_max) + 1)]
            assert lhs == rhs
