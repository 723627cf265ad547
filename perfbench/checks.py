"""Correctness checks, made after the measured process has ended.

Every value is checked against a computation made apart from the program
(sympy for divisors, factorizations and primality; the two hyperbola
identities for S(x) and the sum of sigma; a local sieve summed with math.fsum
and mpmath.zeta for the series) and against properties the mathematics
requires. Nothing is compared with a stored copy of earlier output.

Float tolerances, with u = 2**-53 the unit roundoff:
  * a partial sum of N positive terms, summed in any order:   8 N u relative;
  * the truncated Euler product over P primes:                16 P u relative;
  * S(x) main terms and ratios:                                 1e-15 relative,
    residuals 2e-15 of the main term (cancellation leaves their absolute error);
  * CLI floats, printed with 15 significant digits:             1e-14 relative;
  * bounds built from zeta brackets must lie on the safe side
    of the mpmath value and within 1e-9 relative of it.
"""

import bisect
import csv
import functools
import io
import math
from operator import mul

import mpmath
import numpy as np
import sympy

import inputs

mpmath.mp.dps = 40
U = 2.0**-53


class CheckFailed(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got: float, want, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(mpmath.mpf(got) - want) <= rel * abs(want) + abs_tol


@functools.cache
def _zeta(s: float):
    return mpmath.zeta(mpmath.mpf(s))


def small_divisor_sum(n: int) -> int:
    return sum(d for d in sympy.divisors(n) if d * d <= n)


def square_divisor_sum(n: int) -> int:
    return sum(d for d in sympy.divisors(n) if n % (d * d) == 0)


def _check_factors(n: int, factors: list) -> None:
    _expect([p for p, _ in factors] == sorted({p for p, _ in factors}), f"factors of {n} not ascending")
    _expect({p: e for p, e in factors} == sympy.factorint(n), f"factorization of {n}")


# ---- number-profile -------------------------------------------------------

def check_profile(op: dict, out: dict) -> None:
    n = op["n"]
    divs = sympy.divisors(n)
    a = sum(d for d in divs if d * d <= n)
    _expect(out["a"] == a, f"a({n}) = {out['a']}, want {a}")
    _expect(out["a_factored"] == a, f"a({n}) from factors = {out['a_factored']}, want {a}")
    b = sum(d for d in divs if n % (d * d) == 0)
    _expect(out["b"] == b, f"b({n}) = {out['b']}, want {b}")
    _check_factors(n, out["factors"])
    _expect(out["sigma"] == sympy.divisor_sigma(n), f"sigma({n})")
    _expect(out["tau"] == len(divs), f"tau({n})")
    if op["kind"] == "prime":
        _expect(sympy.isprime(n) and a == 1 and out["a"] == 1, f"a(p) = 1 for the prime {n}")
    if op["kind"] == "semiprime":
        _expect(len(out["factors"]) == 2 and min(p for p, _ in out["factors"]) > 10**6, f"{n} = p q, p, q > 10^6")
    m, k = out["pair"]
    _expect(2 <= m <= inputs.PAIR_MAX and 2 <= k <= inputs.PAIR_MAX and math.gcd(m, k) == 1,
            f"pair ({m}, {k}) coprime and in range")
    lhs, rhs = small_divisor_sum(m * k), small_divisor_sum(m) * small_divisor_sum(k)
    _expect((out["lhs"], out["rhs"]) == (lhs, rhs), f"a({m}*{k}) and a({m}) a({k})")
    _expect(out["holds"] is True and lhs >= rhs, f"a(mn) >= a(m) a(n) for ({m}, {k})")


# ---- summatory ------------------------------------------------------------

def s_identity(x: int) -> int:
    """S(x) = sum over y <= isqrt(x) of y (floor(x/y) - y + 1), in int64."""
    r = math.isqrt(x)
    if x * r >= 2**63:
        raise ValueError("x too large for the int64 identity")
    y = np.arange(1, r + 1, dtype=np.int64)
    return int(np.sum(y * (x // y - y + 1)))


def sigma_sum_identity(x: int) -> int:
    """Sum of sigma(k), k <= x, by the hyperbola split at r = isqrt(x)."""
    r = math.isqrt(x)
    if x * r >= 2**63:
        raise ValueError("x too large for the int64 identity")
    d = np.arange(1, r + 1, dtype=np.int64)
    q = x // d
    ql = q.tolist()
    triangular_sum = (sum(map(mul, ql, ql)) + sum(ql)) // 2
    return int(np.sum(d * q)) + triangular_sum - r * (r * (r + 1) // 2)


def check_summatory(op: dict, out: dict) -> None:
    x = op["x"]
    s = s_identity(x)
    _expect(out["s"] == s, f"S({x}) = {out['s']}, want {s}")
    main = mpmath.mpf(2) / 3 * mpmath.mpf(x) ** 1.5
    x_ln_x = x * mpmath.log(x)
    _expect(_close(out["main"], main, 1e-15), f"(2/3) x^1.5 at {x}")
    _expect(_close(out["residual"], s - main, 0, 2e-15 * main), f"S(x) residual at {x}")
    _expect(_close(out["normalized"], (s - main) / x_ln_x, 1e-15, 2e-15 * main / x_ln_x),
            f"normalized residual at {x}")
    _expect(abs(s - main) <= x_ln_x, f"|S(x) - (2/3) x^1.5| <= x ln x at {x}")

    g = sigma_sum_identity(x)
    _expect(out["sigma_s"] == g, f"sum of sigma to {x} = {out['sigma_s']}, want {g}")
    gmain = mpmath.pi**2 / 12 * mpmath.mpf(x) ** 2
    _expect(_close(out["sigma_main"], gmain, 1e-15), f"(pi^2/12) x^2 at {x}")
    _expect(_close(out["sigma_residual"], g - gmain, 0, 2e-15 * gmain), f"sigma residual at {x}")
    _expect(_close(out["ratio"], g / gmain, 2e-15), f"sigma ratio at {x}")


# ---- series-scan ----------------------------------------------------------

class SeriesOracle:
    """a(k), b(k) and the primes up to the largest N of a run, with exact-rounded prefix sums."""

    def __init__(self, ns: list[int]):
        self.ns = sorted(set(ns))
        top = self.ns[-1]
        self.a = np.zeros(top + 1, dtype=np.int64)
        self.b = np.zeros(top + 1, dtype=np.int64)
        for d in range(1, math.isqrt(top) + 1):
            self.a[d * d :: d] += d
            self.b[d * d :: d * d] += d
        k = np.arange(top + 1, dtype=np.float64)
        k[0] = 1.0
        self.sums = {
            "a15": self._prefix(self.a * k**-1.5),
            "a175": self._prefix(self.a * k**-1.75),
            "a25": self._prefix(self.a * k**-2.5),
            "b3": self._prefix(self.b * k**-3.0),
        }
        self.primes = list(sympy.primerange(2, top + 1))
        p = np.array(self.primes, dtype=np.float64)
        logs = -(np.log1p(-(p ** (1.0 - 6.0))) + np.log1p(-(p**-3.0)))
        self.log_euler = self._prefix(np.concatenate(([0.0], logs)), [bisect.bisect_right(self.primes, n) for n in self.ns])

    def _prefix(self, terms: np.ndarray, ends: list[int] | None = None) -> dict[int, float]:
        """math.fsum of terms[1..end] for each end, one pass, keyed by N.

        Each prefix is the exact-rounded sum of the previous one and the new
        terms, so the error is one rounding per N: far below every tolerance.
        """
        out, total, prev = {}, 0.0, 0
        for n, end in zip(self.ns, ends or self.ns):
            total = math.fsum([total, *terms[prev + 1 : end + 1].tolist()])
            prev = end
            out[n] = total
        return out

    def spot_check(self, count: int = 40) -> None:
        """The sieved a(k), b(k) against sympy divisors at a spread of k; a mismatch is a benchmark fault."""
        top = self.ns[-1]
        for k in range(1, top + 1, max(1, top // count)):
            if (int(self.a[k]), int(self.b[k])) != (small_divisor_sum(k), square_divisor_sum(k)):
                raise RuntimeError(f"benchmark sieve wrong at {k}")


def check_series(oracle: SeriesOracle, op: dict, out: dict) -> None:
    n = op["n"]
    sum_tol = 8 * n * U
    for key in ("a15", "a175", "b3"):
        _expect(_close(out[key], oracle.sums[key][n], sum_tol), f"partial sum {key} to {n}")

    lower_true = 2 * mpmath.log(math.isqrt(n)) - 2 * _zeta(1.5)
    _expect(out["lower"] <= lower_true and _close(out["lower"], lower_true, 1e-9), f"divergence bound at {n}")
    _expect(out["a15"] >= out["lower"], f"partial sum at 3/2 >= divergence bound at {n}")
    upper_true = (_zeta(1.5) + 1) / (2 - mpmath.mpf(1.75))
    _expect(out["upper"] >= upper_true and _close(out["upper"], upper_true, 1e-9), "convergence bound at 1.75")
    _expect(out["a175"] <= out["upper"], f"partial sum at 1.75 <= convergence bound at {n}")

    primes = bisect.bisect_right(oracle.primes, n)
    euler_tol = 16 * primes * U
    euler_true = mpmath.exp(oracle.log_euler[n])
    _expect(_close(out["euler"], euler_true, euler_tol), f"Euler product over primes <= {n}")
    limit = _zeta(5) * _zeta(3)
    _expect(out["euler"] <= limit * (1 + euler_tol), "Euler product <= zeta(5) zeta(3)")
    _expect(out["b3"] <= out["euler"] * (1 + euler_tol + sum_tol), f"b-series partial sum <= Euler product at {n}")

    _expect(out["lower_ok"] is True and out["upper_ok"] is True, f"sandwich verdicts at {n}")
    lo, hi = out["product"]
    _expect(lo <= _zeta(4) * _zeta(2.5) <= hi, "zeta(4) zeta(2.5) inside its bracket")
    lo, hi = out["zeta_upper"]
    _expect(lo <= _zeta(1.5) <= hi, "zeta(1.5) inside its bracket")
    lo, hi = out["l"]
    _expect(lo <= oracle.sums["a25"][n] <= hi, f"partial sum at 2.5 inside the L bracket at {n}")


# ---- cli-scalar -----------------------------------------------------------

CLI_COLUMNS = {
    "a": "n,a", "b": "n,b", "sigma": "n,sigma", "tau": "n,tau", "factor": "n,prime,exponent",
    "counterexample": "m,n,product,a_product,a_m_times_a_n,gcd",
    "witness": "m,s_m,a_value,ratio,lower_bound",
    "bound": "sigma,upper_bound",
    "supermult": "seed,m,n,a_mn,a_m_times_a_n,holds",
}


def check_cli(op: dict, out: dict) -> None:
    argv = op["argv"]
    command = argv[0]
    _expect(out["code"] == 0, f"{argv}: exit code {out['code']}")
    _expect(out["stderr"] == "", f"{argv}: stderr {out['stderr'][:200]!r}")
    lines = out["stdout"].splitlines()
    header = CLI_COLUMNS[command]
    _expect(lines and lines[0] == header and lines.count(header) == 1, f"{argv}: one header row {header!r}")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if command in ("a", "b", "sigma", "tau"):
        n = int(argv[1])
        want = {
            "a": small_divisor_sum, "b": square_divisor_sum,
            "sigma": sympy.divisor_sigma, "tau": lambda v: len(sympy.divisors(v)),
        }[command](n)
        _expect(rows == [[str(n), str(want)]], f"{argv}: {rows} want {want}")
        if command in ("a", "b") and sympy.isprime(n):
            _expect(want == 1, f"{argv}: a(p) = b(p) = 1")
    elif command == "factor":
        n = int(argv[1])
        _expect(all(r[0] == str(n) for r in rows), f"{argv}: n column")
        _check_factors(n, [(int(p), int(e)) for _, p, e in rows])
    elif command == "counterexample":
        m, n = 24, 36
        want = [m, n, m * n, small_divisor_sum(m * n), small_divisor_sum(m) * small_divisor_sum(n), math.gcd(m, n)]
        _expect(rows == [[str(v) for v in want]] and want[3] < want[4], f"{argv}: {rows}")
    elif command == "witness":
        m = int(argv[2])
        ps = [sympy.prime(i) for i in range(1, m + 1)]
        s_m = math.prod(p * p for p in ps)
        a = small_divisor_sum(s_m)
        lower = math.prod(1 + mpmath.mpf(1) / p for p in ps)
        ratio = mpmath.mpf(a) / math.isqrt(s_m)
        (row,) = rows
        _expect(row[:3] == [str(m), str(s_m), str(a)], f"{argv}: {row}")
        _expect(_close(float(row[3]), ratio, 1e-14) and _close(float(row[4]), lower, 1e-14), f"{argv}: floats")
        _expect(ratio >= lower, f"{argv}: a(s_m)/sqrt(s_m) >= prod(1 + 1/p)")
    elif command == "bound":
        sigma = float(argv[2])
        want = (_zeta(2 * (sigma - 1)) + 1) / (2 - mpmath.mpf(sigma))
        ((s, got),) = rows
        _expect(s == format(sigma, ".15g"), f"{argv}: sigma column")
        _expect(float(got) >= want * (1 - 1e-14) and _close(float(got), want, 1e-9), f"{argv}: {got} vs {want}")
    elif command == "supermult":
        trials, top, seed = int(argv[2]), int(argv[4]), argv[6]
        _expect(len(rows) == trials, f"{argv}: {len(rows)} rows")
        for r_seed, m, n, lhs, rhs, holds in rows:
            m, n = int(m), int(n)
            _expect(r_seed == seed and 2 <= m <= top and 2 <= n <= top and math.gcd(m, n) == 1,
                    f"{argv}: pair ({m}, {n})")
            want_l, want_r = small_divisor_sum(m * n), small_divisor_sum(m) * small_divisor_sum(n)
            _expect([lhs, rhs] == [str(want_l), str(want_r)], f"{argv}: a({m}*{n}) and a({m}) a({n})")
            _expect(holds == "true" and want_l >= want_r, f"{argv}: a(mn) >= a(m) a(n)")
    else:
        raise CheckFailed(f"no check for {argv}")


def check_run(workload: str, ops: list[dict], outputs: list) -> list[str]:
    """Messages for every completed operation whose output is wrong; [] when all hold."""
    done = [(op, out) for op, out in zip(ops, outputs) if out is not None]
    if workload == "series-scan":
        oracle = SeriesOracle([op["n"] for op, _ in done] or [1])
        oracle.spot_check()
        check = functools.partial(check_series, oracle)
    else:
        check = {"cli-scalar": check_cli, "number-profile": check_profile, "summatory": check_summatory}[workload]
    failures = []
    for op, out in done:
        try:
            check(op, out)
        except CheckFailed as exc:
            failures.append(str(exc))
    return failures
