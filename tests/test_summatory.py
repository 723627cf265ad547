import math
import random

import pytest

import reference
from smalldiv.errors import DomainError
from smalldiv.summatory import (
    BRUTE_CAP,
    SUMMATORY_LIMIT,
    residual_report,
    sigma_summatory_exact,
    sigma_summatory_report,
    summatory_brute,
    summatory_brute_prefix,
    summatory_exact,
)


class TestBrute:
    def test_examples(self):
        assert summatory_brute(1) == 1
        assert summatory_brute(10) == 21
        # frozen regression constant, first produced by this oracle
        assert summatory_brute(100) == 658

    def test_matches_per_term_reference(self):
        prefix = summatory_brute_prefix(2000)
        running = 0
        for k in range(1, 2001):
            running += reference.small_divisor_sum(k)
            assert int(prefix[k]) == running

    def test_cap(self):
        with pytest.raises(DomainError):
            summatory_brute(BRUTE_CAP + 1)
        with pytest.raises(DomainError):
            summatory_brute(0)


class TestExact:
    def test_examples(self):
        assert summatory_exact(1) == 1
        assert summatory_exact(10) == 21

    def test_oracle_equivalence_exhaustive(self):
        prefix = summatory_brute_prefix(5000)
        for x in range(1, 5001):
            assert summatory_exact(x) == int(prefix[x]), x

    def test_oracle_equivalence_random(self):
        rng = random.Random(5)
        prefix = summatory_brute_prefix(10**5)
        for _ in range(25):
            x = rng.randrange(10**4, 10**5)
            assert summatory_exact(x) == int(prefix[x])
            assert summatory_brute(x) == int(prefix[x])

    def test_strictly_increasing(self):
        prev = summatory_exact(1)
        for x in range(2, 2000):
            cur = summatory_exact(x)
            assert cur > prev
            prev = cur

    def test_consecutive_difference_is_a(self):
        rng = random.Random(9)
        for _ in range(200):
            x = rng.randrange(2, 10**6)
            diff = summatory_exact(x) - summatory_exact(x - 1)
            assert diff == reference.small_divisor_sum(x)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            summatory_exact(0)


class TestResidueIdentity:
    """The residue route against the plain lattice loop it replaced."""

    def test_every_small_x(self):
        for x in range(1, 3000):
            assert summatory_exact(x) == reference.summatory_loop(x), x

    def test_around_squares(self):
        # isqrt(x) steps up at k**2, where an off-by-one in r would show
        for k in range(1, 401):
            for x in (k * k - 1, k * k, k * k + 1):
                if x >= 1:
                    assert summatory_exact(x) == reference.summatory_loop(x), x

    @pytest.mark.parametrize("x", [10**10 + 7, 11234567891, 10**12])
    def test_large(self, x):
        assert summatory_exact(x) == reference.summatory_loop(x)


class TestResidualReport:
    def test_x10(self):
        rep = residual_report(10)
        assert rep.s_exact == 21
        assert rep.main_term == (2.0 / 3.0) * 10 * math.sqrt(10)
        assert rep.main_term == pytest.approx(21.081851067789195, abs=1e-12)
        assert rep.residual == pytest.approx(-0.081851067789195, abs=1e-12)
        assert rep.normalized_residual == pytest.approx(
            rep.residual / (10 * math.log(10)), abs=1e-15
        )

    def test_domain_edge(self):
        rep = residual_report(2)
        assert math.isfinite(rep.normalized_residual)
        with pytest.raises(DomainError):
            residual_report(1)

    def test_envelope_at_1e6(self):
        rep = residual_report(10**6)
        assert abs(rep.normalized_residual) < 1.0

    def test_ratio_error_trend(self):
        # |S(x)/main - 1| shrinks along the grid, up to a loose 3x envelope
        errors = []
        for e in (3, 4, 5, 6):
            rep = residual_report(10**e)
            errors.append(abs(rep.s_exact / rep.main_term - 1.0))
        for prev, cur in zip(errors, errors[1:]):
            assert cur < 3.0 * prev


class TestSigmaSummatory:
    def test_small_values(self):
        assert sigma_summatory_exact(1) == 1
        assert sigma_summatory_exact(3) == 8

    def test_matches_reference(self):
        running = 0
        for x in range(1, 2001):
            running += reference.sigma(x)
            assert sigma_summatory_exact(x) == running

    def test_report_tracks_main_term(self):
        rep = sigma_summatory_report(10**6)
        assert abs(rep.ratio - 1.0) < 0.01
        assert rep.main_term == pytest.approx((math.pi**2 / 12) * 10**12, rel=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            sigma_summatory_report(0)


# S(10**k) and the sum of sigma(k) up to 10**k, pinned above the brute
# oracle's reach. Both the single hyperbola loops and the earlier
# constant-quotient block routine produce every value here.
LARGE_VALUES = {
    7: (21079393403, 82246711794796),  # the sigma sum is OEIS A072692(7)
    8: (666642406116, 8224670422194237),
    9: (21081603178979, 822467034112360628),
    10: (666664179446143, 82246703352400266400),
    11: (21081826114560070, 8224670334323560419029),
    12: (666666417202103148, 822467033425357340138978),
    13: (21081848568892780868, 82246703342420509396897774),
}


class TestLargeValues:
    @pytest.mark.parametrize("k", sorted(LARGE_VALUES))
    def test_pinned(self, k):
        s_value, sigma_value = LARGE_VALUES[k]
        assert summatory_exact(10**k) == s_value
        assert sigma_summatory_exact(10**k) == sigma_value

    def test_limit(self):
        for f in (summatory_exact, sigma_summatory_exact, residual_report, sigma_summatory_report):
            with pytest.raises(DomainError):
                f(SUMMATORY_LIMIT + 1)
