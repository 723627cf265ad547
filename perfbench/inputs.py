"""Seeded inputs for the four workloads.

A run is a sequence of rounds. Round r of a workload under seed s is a pure
function of (workload, s, r), so the measured process and the checker build
the same inputs independently and nothing but the inputs reaches the program.
Every round of a workload holds the same operations in the same proportions,
so the share of failed operations does not depend on how many rounds a run
completes.
"""

import random

# cli-scalar: a and b of this 62-bit prime trial-divide up to 2.1e9 and never
# finish; each is given CLI_TIME_LIMIT_S and then counted as failed.
SLOW_PRIME = 4611686018427387847
CLI_TIME_LIMIT_S = 1.0
CLI_N_BAND = (500_000, 1_000_000)
SUPERMULT_MAX = 10_000
SUPERMULT_TRIALS = 5

# number-profile: n near 10^12, so a(n) and b(n) trial-divide up to ~10^6.
PROFILE_BAND = (1_000_000_000_000, 1_200_000_000_000)
# Both factors of the semiprimes lie above the 10^6 trial-division limit of
# factorize, so rho and Miller-Rabin have to split them.
SEMIPRIME_FACTOR_BAND = (1_000_003, 1_095_000)
PAIR_MAX = 1_000_000

SUMMATORY_BAND = (10_000_000_000, 12_000_000_000)
SERIES_BAND = (100_000, 125_000)

# Fixed inputs for the warm-up call made during set-up; outside every band so
# a warm-up never fills a cache that a timed operation could hit.
WARMUP = {
    "cli-scalar": ["a", "24"],
    "number-profile": {"kind": "random", "n": 999_999_999_989, "pair_seed": 1},
    "summatory": {"x": 9_999_999_999},
    "series-scan": {"n": 99_999},
}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24.

    The measured process builds its own inputs and must not load sympy, nor
    lean on the program under test, so the input primes come from this test.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """The first prime at or after a uniform draw from [lo, hi)."""
    n = rng.randrange(lo, hi)
    while not _probable_prime(n):
        n += 1
    return n


def _spread(seed_rng: random.Random, band: tuple[int, int], r: int) -> int:
    """The r-th value of a seeded permutation of a prime-sized part of band.

    Values never repeat within the first P rounds (P is about the band width),
    so no operation can be served from a cache filled by an earlier one.
    """
    lo, hi = band
    p = hi - lo
    while not _probable_prime(p):
        p -= 1
    a = seed_rng.randrange(1, p)
    c = seed_rng.randrange(p)
    return lo + (a * r + c) % p


def _cli_round(rng: random.Random) -> list[dict]:
    ops = []
    for _ in range(2):
        for name in ("a", "b", "sigma", "tau", "factor"):
            ops.append([name, str(rng.randrange(*CLI_N_BAND))])
        ops.append(["counterexample"])
        ops.append(["witness", "--m", str(rng.randrange(1, 6))])
        ops.append(["bound", "--sigma", f"{rng.uniform(1.55, 1.95):.3f}"])
        ops.append(["supermult", "--trials", str(SUPERMULT_TRIALS), "--max", str(SUPERMULT_MAX),
                    "--seed", str(rng.randrange(2**32))])
    ops.append(["a", str(SLOW_PRIME)])
    ops.append(["b", str(SLOW_PRIME)])
    rng.shuffle(ops)
    return [{"argv": argv} for argv in ops]


def _profile_round(rng: random.Random) -> list[dict]:
    p = _prime_in(rng, *SEMIPRIME_FACTOR_BAND)
    q = p
    while q == p:
        q = _prime_in(rng, *SEMIPRIME_FACTOR_BAND)
    return [
        {"kind": "semiprime", "n": p * q, "pair_seed": rng.randrange(2**63)},
        {"kind": "random", "n": rng.randrange(*PROFILE_BAND), "pair_seed": rng.randrange(2**63)},
        {"kind": "prime", "n": _prime_in(rng, *PROFILE_BAND), "pair_seed": rng.randrange(2**63)},
    ]


def round_ops(workload: str, seed: int, r: int) -> list[dict]:
    """The operations of round r, in the order they are run."""
    rng = random.Random(f"{workload}/{seed}/{r}")
    if workload == "cli-scalar":
        return _cli_round(rng)
    if workload == "number-profile":
        return _profile_round(rng)
    seed_rng = random.Random(f"{workload}/{seed}")
    if workload == "summatory":
        return [{"x": _spread(seed_rng, SUMMATORY_BAND, r)}]
    if workload == "series-scan":
        return [{"n": _spread(seed_rng, SERIES_BAND, r)}]
    raise ValueError(f"unknown workload {workload!r}")


def all_ops(workload: str, seed: int, count: int) -> list[dict]:
    """The first count operations of a run, rebuilt round by round."""
    ops: list[dict] = []
    r = 0
    while len(ops) < count:
        ops.extend(round_ops(workload, seed, r))
        r += 1
    return ops[:count]
