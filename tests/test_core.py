import math
import random

import pytest

import reference
from smalldiv import BRUTE_CAP, TABLE_LIMIT, core, primes
from smalldiv.core import (
    Factorization,
    b_multiplicative,
    b_values_upto,
    b_via_square_divisors,
    divisors,
    factorize,
    sigma,
    small_divisor_sum,
    small_divisor_sum_factored,
    small_divisor_sums_upto,
    tau,
)
from smalldiv.errors import DivisorBudgetError, DomainError
from smalldiv.primes import first_primes, is_prime
from smalldiv.summatory import summatory_brute_prefix


class TestFactorize:
    def test_unit(self):
        assert factorize(1).factors == ()
        assert factorize(1).value == 1

    def test_72(self):
        assert factorize(72).factors == ((2, 3), (3, 2))

    def test_squared_primorial(self):
        n = 1
        for p in first_primes(6):
            n *= p * p
        assert n == 901800900
        assert factorize(n).factors == tuple((p, 2) for p in first_primes(6))

    def test_rejects_zero_and_large(self):
        with pytest.raises(DomainError):
            factorize(0)
        with pytest.raises(DomainError):
            factorize(2**63)
        factorize(2**63 - 1)  # boundary value is in domain

    def test_matches_trial_division(self):
        for n in range(1, 20000):
            assert factorize(n).factors == tuple(reference.factorize(n)), n

    def test_random_roundtrip(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(1, 2**40)
            f = factorize(n)
            prod = 1
            for p, e in f.factors:
                prod *= p**e
            assert prod == n
            assert f == factorize(n)  # deterministic

    def test_hard_shapes(self):
        assert factorize(2305843009213693951).factors == ((2305843009213693951, 1),)
        assert factorize((10**9 + 7) * (10**9 + 9)).factors == (
            (10**9 + 7, 1),
            (10**9 + 9, 1),
        )
        assert factorize((2**31 - 1) ** 2).factors == ((2**31 - 1, 2),)


def _assert_factors(n, expected):
    """factorize(n) gives expected; checked against trial division up to 10**12."""
    f = factorize(n)
    assert f.factors == expected, n
    if n <= 10**12:
        assert f.factors == tuple(reference.factorize(n)), n
    prod = 1
    for p, e in f.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


class TestFactorizeBeyondTrialDivision:
    """Shapes whose prime factors lie above the trial-division primes, so rho splits them."""

    @pytest.mark.parametrize("p", [1009, 1013, 999983, 1000003])
    def test_prime_squares_and_cubes(self, p):
        _assert_factors(p**2, ((p, 2),))
        _assert_factors(p**3, ((p, 3),))

    @pytest.mark.parametrize("p", [1009, 1013, 1499, 1997, 1999])
    def test_prime_fourth_powers(self, p):
        _assert_factors(p**4, ((p, 4),))

    @pytest.mark.parametrize("p,q", [(1009, 1013), (1009, 999983), (100003, 500009), (999961, 999983)])
    def test_two_mid_primes(self, p, q):
        _assert_factors(p * q, ((p, 1), (q, 1)))
        _assert_factors(2**5 * 997 * p * q, ((2, 5), (997, 1), (p, 1), (q, 1)))

    def test_three_primes_between_1e5_and_1e6(self):
        _assert_factors(100003 * 500009 * 999983, ((100003, 1), (500009, 1), (999983, 1)))
        _assert_factors(100019**2 * 100043, ((100019, 2), (100043, 1)))

    def test_prime_near_1e6_times_prime_near_1e12(self):
        _assert_factors(1000003 * 1000000000039, ((1000003, 1), (1000000000039, 1)))
        _assert_factors(999983 * 1000000000061, ((999983, 1), (1000000000061, 1)))

    def test_62_bit_prime(self):
        _assert_factors(2**62 - 57, ((2**62 - 57, 1),))

    def test_no_sieve_beyond_trial_primes(self, monkeypatch):
        limits = []

        def recording(limit):
            limits.append(limit)
            return primes.primes_upto(limit)

        monkeypatch.setattr(core, "primes_upto", recording)
        assert factorize(10**12 + 39).factors == ((10**12 + 39, 1),)
        assert limits and max(limits) <= 1000

    def test_each_prime_tested_once(self, monkeypatch):
        tested = []

        def counting(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(core, "is_prime", counting)
        p, q = 10**9 + 7, 10**9 + 9
        f = factorize(p * q)
        assert f.factors == ((p, 1), (q, 1))
        assert tested.count(p) == 1
        assert tested.count(q) == 1
        # A factorization built by hand still proves every prime it lists.
        Factorization(p * q, f.factors)
        assert tested.count(p) == 2
        assert tested.count(q) == 2


class TestFactorizationInvariants:
    def test_product_must_match(self):
        with pytest.raises(DomainError):
            Factorization(10, ((2, 1),))

    def test_primality_enforced(self):
        with pytest.raises(DomainError):
            Factorization(16, ((4, 2),))

    def test_order_enforced(self):
        with pytest.raises(DomainError):
            Factorization(6, ((3, 1), (2, 1)))

    def test_exponent_enforced(self):
        with pytest.raises(DomainError):
            Factorization(3, ((2, 0), (3, 1)))

    def test_value_one_iff_empty(self):
        assert Factorization(1, ()).factors == ()
        with pytest.raises(DomainError):
            Factorization(2, ())

    def test_replace_validates(self):
        f = Factorization(16, ((2, 4),))
        assert f._replace(value=32, factors=((2, 5),)) == Factorization(32, ((2, 5),))
        with pytest.raises(DomainError):
            f._replace(value=32)
        with pytest.raises(DomainError):
            f._replace(factors=((4, 2),))

    def test_immutable(self):
        f = factorize(72)
        with pytest.raises(AttributeError):
            f.value = 73
        with pytest.raises(AttributeError):
            f.extra = 0


class TestDivisors:
    def test_examples(self):
        assert divisors(factorize(1)) == [1]
        assert divisors(factorize(6)) == [1, 2, 3, 6]
        d72 = divisors(factorize(72))
        assert len(d72) == 12
        assert d72[-2:] == [36, 72]
        assert d72 == reference.divisor_list(72)

    def test_matches_reference(self):
        for n in range(1, 500):
            assert divisors(factorize(n)) == reference.divisor_list(n)

    def test_budget(self):
        with pytest.raises(DivisorBudgetError):
            divisors(factorize(72), cap=11)
        assert len(divisors(factorize(72), cap=12)) == 12


class TestSmallDivisorSum:
    @pytest.mark.parametrize(
        "n,expected",
        [(24, 10), (36, 16), (864, 130), (1, 1), (97, 1), (72, 24), (4611686018427387847, 1)],
    )
    def test_known_values(self, n, expected):
        assert small_divisor_sum(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            small_divisor_sum(0)

    def test_matches_reference(self):
        for n in range(1, 3000):
            assert small_divisor_sum(n) == reference.small_divisor_sum(n)

    def test_one_exactly_on_units_and_primes(self):
        flags = reference.prime_flags(10**4)
        for n in range(1, 10**4 + 1):
            assert (small_divisor_sum(n) == 1) == (n == 1 or flags[n])

    def test_one_exactly_on_units_and_primes_to_1e5(self):
        # same statement at table scale, against an independent sieve
        limit = 10**5
        a = small_divisor_sums_upto(limit)
        flags = reference.prime_flags(limit)
        for n in range(1, limit + 1):
            assert (int(a[n]) == 1) == (n == 1 or flags[n])

    def test_factored_route_agrees(self):
        for n in range(1, 10**4 + 1):
            assert small_divisor_sum_factored(factorize(n)) == reference.small_divisor_sum(n)

    def test_factored_route_agrees_large_random(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randrange(1, 2**40)
            assert small_divisor_sum_factored(factorize(n)) == reference.small_divisor_sum(n)

    def test_rejects_beyond_factorize_limit(self):
        with pytest.raises(DomainError):
            small_divisor_sum(2**63)

    def test_factored_witness_value(self):
        primes = first_primes(7)
        n = 1
        for p in primes:
            n *= p * p
        assert n == 260620460100
        # oracle: enumerate all 3**7 divisor exponent patterns directly
        divs = [1]
        for p in primes:
            divs = [d * p**e for d in divs for e in (0, 1, 2)]
        expected = sum(d for d in divs if d * d <= n)
        assert expected == 94718726
        assert small_divisor_sum_factored(factorize(n)) == expected

    def test_budget(self):
        # squarefree product of the first 21 primes: 2**21 divisors, above DIVISOR_CAP
        primes = first_primes(21)
        f = Factorization(math.prod(primes), tuple((p, 1) for p in primes))
        with pytest.raises(DivisorBudgetError):
            small_divisor_sum_factored(f)


class TestSigmaTau:
    def test_sigma_examples(self):
        assert sigma(factorize(1)) == 1
        assert sigma(factorize(6)) == 12
        assert sigma(factorize(36)) == 91

    def test_tau_examples(self):
        assert tau(factorize(1)) == 1
        assert tau(factorize(72)) == 12
        for p in (2, 3, 5, 97):
            assert tau(factorize(p * p)) == 3

    def test_agree_with_divisor_list(self):
        for n in range(1, 10**4 + 1):
            ds = divisors(factorize(n))
            assert sigma(factorize(n)) == sum(ds)
            assert tau(factorize(n)) == len(ds)


class TestB:
    def test_known_values(self):
        assert b_multiplicative(factorize(72)) == 12
        assert b_multiplicative(factorize(1)) == 1
        for p in (2, 3, 5, 7):
            assert b_multiplicative(factorize(p * p)) == 1 + p
        assert b_via_square_divisors(72) == 12
        assert b_via_square_divisors(1) == 1

    def test_squarefree_gives_one(self):
        for n in (2, 3, 5, 6, 7, 10, 15, 30, 210, 9699690, 4611686018427387847):
            assert b_via_square_divisors(n) == 1

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            b_via_square_divisors(0)

    def test_routes_agree(self):
        for n in range(1, 10**4 + 1):
            assert b_multiplicative(factorize(n)) == reference.b_square_divisor_sum(n), n

    def test_rejects_beyond_factorize_limit(self):
        with pytest.raises(DomainError):
            b_via_square_divisors(2**63)

    def test_matches_reference(self):
        for n in range(1, 2000):
            assert b_via_square_divisors(n) == reference.b_square_divisor_sum(n)

    def test_b_is_multiplicative(self):
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            m = rng.randrange(2, 10**4)
            n = rng.randrange(2, 10**4)
            if math.gcd(m, n) != 1:
                continue
            lhs = b_multiplicative(factorize(m * n))
            rhs = b_multiplicative(factorize(m)) * b_multiplicative(factorize(n))
            assert lhs == rhs, (m, n)
            checked += 1

    def test_b_below_a(self):
        for n in range(1, 10**4 + 1):
            assert b_via_square_divisors(n) <= small_divisor_sum(n)


class TestBounds:
    def test_trivial_and_sqrt_tau_bounds(self):
        limit = 10**5
        a = small_divisor_sums_upto(limit)
        tau_table = [0] * (limit + 1)  # independent divisor-count sieve
        for d in range(1, limit + 1):
            for m in range(d, limit + 1, d):
                tau_table[m] += 1
        for n in range(1, limit + 1):
            r = math.isqrt(n)
            an = int(a[n])
            assert an <= r * (r + 1) // 2 <= n
            assert an * an <= n * tau_table[n] * tau_table[n]


class TestTables:
    def test_a_table_matches_scalar(self):
        a = small_divisor_sums_upto(3000)
        for n in range(1, 3001):
            assert int(a[n]) == small_divisor_sum(n)

    def test_b_table_matches_scalar(self):
        b = b_values_upto(3000)
        for n in range(1, 3001):
            assert int(b[n]) == b_via_square_divisors(n)

    def test_rejects_bad_limit(self):
        with pytest.raises(DomainError):
            small_divisor_sums_upto(0)

    @pytest.mark.parametrize("table", [small_divisor_sums_upto, b_values_upto])
    def test_rejects_limit_above_table_limit(self, table):
        for limit in (BRUTE_CAP + 1, TABLE_LIMIT + 1, 10**10, 10**20):
            with pytest.raises(DomainError):
                table(limit)

    @pytest.mark.parametrize("table", [small_divisor_sums_upto, b_values_upto, summatory_brute_prefix])
    def test_read_only(self, table):
        """The tables are cached and shared between callers, so no caller may write into one."""
        values = table(100)
        with pytest.raises(TypeError):
            values[1] = 0
        assert values[1] == 1

    @pytest.mark.parametrize("table", [small_divisor_sums_upto, b_values_upto])
    def test_int64_entries(self, table):
        """One int64 per entry, t[0] included: perfbench/spans.py reports result.nbytes as the table's bytes."""
        for limit in (1, 100, 3000):
            assert table(limit).nbytes == 8 * (limit + 1)
