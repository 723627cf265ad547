"""Command-line front end: every operation as a subcommand, CSV or JSON out.

CSV (the default) carries a single header row and then data rows; JSON is a
single object with "command", "params" and "rows" keys. Floats are printed
with 15 significant digits in both formats, so identical invocations produce
byte-identical output and the two formats carry identical values. Output is
written only after the command has fully computed, so errors never leave a
partial table behind.

Exit codes: 0 success, 2 usage error, 3 domain error, 4 divisor-budget
overflow.
"""

import argparse
import csv
import json
import sys

from . import core, dirichlet, summatory, witness
from .errors import DivisorBudgetError, DomainError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_OVERFLOW = 4


def _fmt(value) -> str:
    """One stable text rendering per value type (shared by CSV and JSON)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ",".join(_json_scalar(v) for v in value) + "]"
    return _fmt(value)


def _emit(args, command: str, params: dict, columns: list[str] | tuple[str, ...], rows: list[tuple]) -> None:
    if args.format == "json":
        parts = [f'"command":{json.dumps(command)}']
        parts.append('"params":{' + ",".join(f"{json.dumps(k)}:{_json_scalar(v)}" for k, v in params.items()) + "}")
        row_objs = []
        for row in rows:
            row_objs.append("{" + ",".join(f"{json.dumps(c)}:{_json_scalar(v)}" for c, v in zip(columns, row)) + "}")
        parts.append('"rows":[' + ",".join(row_objs) + "]")
        sys.stdout.write("{" + ",".join(parts) + "}\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _summatory(args):
    if args.method != "both":
        compute = summatory.summatory_exact if args.method == "exact" else summatory.summatory_brute
        return ["x", args.method], [(args.x, compute(args.x))]
    exact = summatory.summatory_exact(args.x)
    brute = summatory.summatory_brute(args.x)
    return ["x", "exact", "brute", "match"], [(args.x, exact, brute, exact == brute)]


def _residual(args):
    # Parsed here rather than by argparse, so a malformed list is a domain
    # error (exit 3); the parsed list is what params reports.
    try:
        args.points = [int(part) for part in args.points.split(",") if part]
    except ValueError as exc:
        raise DomainError(f"malformed points list {args.points!r}") from exc
    return summatory.SummatoryReport._fields, [summatory.residual_report(x) for x in args.points]


def _dirichlet(args):
    ps = dirichlet.partial_dirichlet(dirichlet.Series(args.series), args.sigma, args.terms)
    row = (args.series, args.sigma, args.terms, ps.value)
    if ps.tail is None:
        return ["series", "sigma", "terms", "value"], [row]
    full = ps.full_series_bracket()
    columns = ["series", "sigma", "terms", "value", "tail_lo", "tail_hi", "series_lo", "series_hi"]
    return columns, [row + (ps.tail.lo, ps.tail.hi, full.lo, full.hi)]


def _divergence(args):
    ps = dirichlet.partial_dirichlet(dirichlet.Series.A, 1.5, args.terms)
    bound = dirichlet.divergence_lower_bound(args.terms)
    return ["terms", "partial_sum", "lower_bound", "ok"], [(args.terms, ps.value, bound, ps.value >= bound)]


def _sandwich(args):
    r = dirichlet.sandwich_check(args.sigma, args.terms)
    columns = ["sigma", "terms", "lower_ok", "upper_ok", "product_lo", "product_hi",
               "l_lo", "l_hi", "upper_lo", "upper_hi"]
    row = (r.sigma, r.n_terms, r.lower_ok, r.upper_ok, r.zeta_product.lo, r.zeta_product.hi,
           r.l_bracket.lo, r.l_bracket.hi, r.zeta_upper.lo, r.zeta_upper.hi)
    return columns, [row]


def _supermult(args):
    pairs = witness.random_coprime_pairs(args.trials, args.max, args.seed)
    checks = [witness.supermult_check(m, n) for m, n in pairs]
    columns = ["seed", "m", "n", "a_mn", "a_m_times_a_n", "holds"]
    return columns, [(args.seed, c.m, c.n, c.lhs, c.rhs, c.holds) for c in checks]


_INT = dict(type=int, required=True)
_N = [("n", dict(type=int))]
_SIGMA = ("--sigma", dict(type=float, required=True))
_TERMS = ("--terms", _INT)

# Every subcommand: its help text, its arguments as (flag, argparse keywords),
# and a compute function from the parsed arguments to (columns, rows). A
# command that prints whole result records (residual, witness, counterexample)
# takes its columns from the record's _fields and its rows are the records, so
# each column name is defined once, on the record. The JSON params are the
# declared arguments in order. Compute functions look up the library
# functions when called, so a patched module attribute is seen.
COMMANDS = {
    "a": ("small-divisor sum a(n)", _N,
          lambda args: (["n", "a"], [(args.n, core.small_divisor_sum(args.n))])),
    "b": ("multiplicative companion b(n)", _N,
          lambda args: (["n", "b"], [(args.n, core.b_via_square_divisors(args.n))])),
    "sigma": ("divisor sum sigma(n)", _N,
              lambda args: (["n", "sigma"], [(args.n, core.sigma(core.factorize(args.n)))])),
    "tau": ("divisor count tau(n)", _N,
            lambda args: (["n", "tau"], [(args.n, core.factorize(args.n).tau())])),
    "factor": ("prime factorization of n", _N,
               lambda args: (["n", "prime", "exponent"],
                             [(args.n, p, e) for p, e in core.factorize(args.n).factors])),
    "summatory": ("S(x) = sum of a(k) for k <= x",
                  [("--x", _INT), ("--method", dict(choices=("exact", "brute", "both"), default="exact"))],
                  _summatory),
    "residual": ("S(x) against its (2/3) x^1.5 main term",
                 [("--points", dict(required=True, help="comma-separated x values"))], _residual),
    "dirichlet": ("partial Dirichlet sum of a or b",
                  [("--series", dict(choices=("a", "b"), required=True)), _SIGMA, _TERMS], _dirichlet),
    "divergence": ("a-series partial sum at sigma=1.5 vs its lower bound", [_TERMS], _divergence),
    "bound": ("a-series upper bound for 1.5 < sigma < 2", [_SIGMA],
              lambda args: (["sigma", "upper_bound"],
                            [(args.sigma, dirichlet.convergence_upper_bound(args.sigma))])),
    "euler": ("truncated Euler product of the b-series", [_SIGMA, ("--primes", _INT)],
              lambda args: (["sigma", "primes", "product"],
                            [(args.sigma, args.primes, dirichlet.euler_product_b(args.sigma, args.primes))])),
    "sandwich": ("two-sided zeta comparison for the a-series", [_SIGMA, _TERMS], _sandwich),
    "witness": ("squared-primorial witness report", [("--m", _INT)],
                lambda args: (witness.WitnessReport._fields, [witness.witness_report(args.m)])),
    "supermult": ("seeded random coprime supermultiplicativity checks",
                  [("--trials", _INT), ("--max", _INT), ("--seed", _INT)], _supermult),
    "counterexample": ("the fixed 24 * 36 counterexample", [],
                       lambda args: (witness.Counterexample._fields, [witness.non_complete_counterexample()])),
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")

    parser = argparse.ArgumentParser(
        prog="smalldiv",
        description="Small-divisor sums, their summatory function, and Dirichlet-series checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, parents=[shared], help=help_text)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
    return parser


def run(argv: list[str]) -> int:
    """Parse argv, execute, emit; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    _, arguments, compute = COMMANDS[args.command]
    try:
        columns, rows = compute(args)
    except DivisorBudgetError as exc:
        print(f"smalldiv: overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (DomainError, ArithmeticError) as exc:  # ArithmeticError: Pollard rho gave up on n
        print(f"smalldiv: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    params = {key: getattr(args, key) for key in (flag.lstrip("-") for flag, _ in arguments)}
    _emit(args, args.command, params, columns, rows)
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
