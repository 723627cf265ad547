import math

import pytest

import reference
from smalldiv.errors import DomainError, NotCoprimeError
from smalldiv.primes import first_primes
from smalldiv.witness import (
    PAIR_COUNT_LIMIT,
    non_complete_counterexample,
    random_coprime_pairs,
    supermult_check,
    witness_report,
)


class TestWitnessReport:
    def test_m1_equality(self):
        rep = witness_report(1)
        assert (rep.s_m, rep.a_value) == (4, 3)
        assert rep.ratio == 1.5
        assert rep.lower_bound == 1.5
        assert rep.ratio == rep.lower_bound

    def test_m2(self):
        rep = witness_report(2)
        assert (rep.s_m, rep.a_value) == (36, 16)
        assert rep.ratio == pytest.approx(16 / 6, rel=1e-15)
        assert rep.ratio >= 2.0

    def test_m6_bound_range(self):
        rep = witness_report(6)
        assert 3.0 <= rep.lower_bound <= 3.3
        assert rep.ratio >= rep.lower_bound

    def test_s_m_is_perfect_square(self):
        for m in range(1, 8):
            rep = witness_report(m)
            assert math.isqrt(rep.s_m) ** 2 == rep.s_m

    def test_lower_bound_matches_exact_rational(self):
        for m in range(1, 8):
            rep = witness_report(m)
            exact = reference.one_plus_inverse_prime_product(first_primes(m))
            assert abs(rep.lower_bound - float(exact)) < 1e-12

    def test_ratio_strictly_increasing(self):
        ratios = [witness_report(m).ratio for m in range(1, 8)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_extended_range_behind_flag(self):
        with pytest.raises(DomainError):
            witness_report(8)
        with pytest.raises(DomainError):
            witness_report(0)


class TestSupermult:
    def test_4_9(self):
        chk = supermult_check(4, 9)
        assert (chk.lhs, chk.rhs) == (16, 12)
        assert chk.holds

    def test_unit_is_equality(self):
        for n in (1, 2, 12, 864):
            chk = supermult_check(1, n)
            assert chk.lhs == chk.rhs == reference.small_divisor_sum(n)
            assert chk.holds

    def test_two_primes(self):
        chk = supermult_check(101, 103)
        assert chk.rhs == 1
        assert chk.holds

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            supermult_check(24, 36)
        with pytest.raises(NotCoprimeError):
            supermult_check(6, 10)
        with pytest.raises(DomainError):
            supermult_check(0, 5)

    def test_matches_reference_on_small_pairs(self):
        for m in range(1, 40):
            for n in range(1, 40):
                if math.gcd(m, n) != 1:
                    continue
                chk = supermult_check(m, n)
                assert chk.lhs == reference.small_divisor_sum(m * n)
                assert chk.rhs == reference.small_divisor_sum(m) * reference.small_divisor_sum(n)
                assert chk.holds

    def test_pair_near_2_62_with_product_beyond_2_63(self):
        p = 2**62 - 57  # prime
        n = 3**39  # just below 2**62
        chk = supermult_check(p, n)
        # The divisors of p * 3**39 are 3**k and p * 3**k for k <= 39.
        divs = [3**k for k in range(40)] + [p * 3**k for k in range(40)]
        assert chk.lhs == sum(d for d in divs if d * d <= p * n)
        assert chk.rhs == 1 * sum(3**k for k in range(20))  # a(p) * a(3**39)
        assert chk.holds


class TestCounterexample:
    def test_values(self):
        c = non_complete_counterexample()
        assert (c.m, c.n, c.product) == (24, 36, 864)
        assert c.a_product == 130
        assert c.a_m_times_a_n == 160
        assert c.a_product < c.a_m_times_a_n
        assert c.gcd == 12


class TestRandomCoprimePairs:
    def test_deterministic(self):
        a = random_coprime_pairs(50, 1000, 42)
        b = random_coprime_pairs(50, 1000, 42)
        assert a == b
        assert a != random_coprime_pairs(50, 1000, 43)

    def test_bounds_and_coprimality(self):
        pairs = random_coprime_pairs(1000, 10**4, 7)
        assert len(pairs) == 1000
        for m, n in pairs:
            assert 2 <= m <= 10**4 and 2 <= n <= 10**4
            assert math.gcd(m, n) == 1

    def test_single_pair(self):
        (pair,) = random_coprime_pairs(1, 10, 0)
        assert 2 <= pair[0] <= 10 and 2 <= pair[1] <= 10

    def test_rejections(self):
        with pytest.raises(DomainError):
            random_coprime_pairs(0, 10, 1)
        with pytest.raises(DomainError):
            random_coprime_pairs(1, 1, 1)
        with pytest.raises(DomainError):
            random_coprime_pairs(1, 2, 1)

    def test_count_cap(self):
        assert len(random_coprime_pairs(PAIR_COUNT_LIMIT, 10**4, 7)) == PAIR_COUNT_LIMIT
        for count in (PAIR_COUNT_LIMIT + 1, 10**8):
            with pytest.raises(DomainError):
                random_coprime_pairs(count, 10**4, 7)
