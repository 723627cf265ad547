"""Small-divisor sums: a(n), b(n), their summatory function, and series checks.

a(n) adds the divisors d of n with d*d <= n (OEIS A066839). This package
computes a(n) and its companions b(n), sigma(n) (A000203) and tau(n) exactly,
evaluates the summatory function S(x) in O(sqrt x) time, and numerically
certifies the asymptotic and Dirichlet-series behavior of a(n) with bracketed
bounds and brute-force oracles. All functions are pure and deterministic and
may be called concurrently.
"""

from .core import (
    DIVISOR_CAP,
    FACTORIZE_LIMIT,
    Factorization,
    b_multiplicative,
    b_via_square_divisors,
    divisors,
    factorize,
    sigma,
    small_divisor_sum,
    small_divisor_sum_factored,
    small_divisor_sums_upto,
    tau,
)
from .dirichlet import (
    Bracket,
    DirichletPartialSum,
    SandwichReport,
    Series,
    convergence_upper_bound,
    divergence_lower_bound,
    euler_product_b,
    partial_dirichlet,
    partial_power_sum_bound,
    sandwich_check,
    tail_bound_inverse_squares,
    zeta_bracket,
)
from .errors import DivisorBudgetError, DomainError, NotCoprimeError, SmallDivError
from .primes import TABLE_LIMIT
from .summatory import (
    BRUTE_CAP,
    SUMMATORY_LIMIT,
    SigmaSummatoryReport,
    SummatoryReport,
    residual_report,
    sigma_summatory_exact,
    sigma_summatory_report,
    summatory_brute,
    summatory_brute_prefix,
    summatory_exact,
)
from .witness import (
    Counterexample,
    SupermultCheck,
    WitnessReport,
    non_complete_counterexample,
    random_coprime_pairs,
    supermult_check,
    witness_report,
)

__version__ = "0.1.0"
