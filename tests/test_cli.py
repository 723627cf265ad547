import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from smalldiv import cli
from smalldiv.errors import DivisorBudgetError


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestScalarCommands:
    def test_a(self, capsys):
        code, out, err = run_cli(capsys, "a", "24")
        assert code == 0
        assert out == "n,a\n24,10\n"
        assert err == ""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("b", "72"), "n,b\n72,12\n"),
            (("sigma", "36"), "n,sigma\n36,91\n"),
            (("tau", "72"), "n,tau\n72,12\n"),
            (("a", "4611686018427387847"), "n,a\n4611686018427387847,1\n"),
            (("b", "4611686018427387847"), "n,b\n4611686018427387847,1\n"),
        ],
    )
    def test_scalars(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected

    def test_factor(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "72")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "prime", "exponent"]
        assert rows == [["72", "2", "3"], ["72", "3", "2"]]

    def test_factor_of_one_has_no_rows(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "1")
        assert code == 0
        assert out == "n,prime,exponent\n"


class TestSummatoryCommands:
    def test_both_methods_match(self, capsys):
        code, out, _ = run_cli(capsys, "summatory", "--x", "10", "--method", "both")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "exact", "brute", "match"]
        assert rows == [["10", "21", "21", "true"]]

    def test_default_method_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "summatory", "--x", "100")
        assert code == 0
        assert out == "x,exact\n100,658\n"

    def test_residual_multiple_points(self, capsys):
        code, out, _ = run_cli(capsys, "residual", "--points", "10,100")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "s_exact", "main_term", "residual", "normalized_residual"]
        assert [r[0] for r in rows] == ["10", "100"]
        assert rows[0][1] == "21"


class TestDirichletCommands:
    def test_dirichlet_with_tail(self, capsys):
        code, out, _ = run_cli(capsys, "dirichlet", "--series", "a", "--sigma", "2.5", "--terms", "100")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "series", "sigma", "terms", "value",
            "tail_lo", "tail_hi", "series_lo", "series_hi",
        ]
        assert rows[0][0] == "a"

    def test_dirichlet_without_tail(self, capsys):
        code, out, _ = run_cli(capsys, "dirichlet", "--series", "b", "--sigma", "1.5", "--terms", "100")
        assert code == 0
        header, _ = parse_csv(out)
        assert header == ["series", "sigma", "terms", "value"]

    def test_divergence(self, capsys):
        code, out, _ = run_cli(capsys, "divergence", "--terms", "1000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["terms", "partial_sum", "lower_bound", "ok"]
        assert rows[0][3] == "true"

    def test_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--sigma", "1.75")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sigma", "upper_bound"]
        assert float(rows[0][1]) == pytest.approx(14.449, abs=1e-2)

    def test_euler(self, capsys):
        code, out, _ = run_cli(capsys, "euler", "--sigma", "3", "--primes", "100")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sigma", "primes", "product"]
        assert 1.0 <= float(rows[0][2]) <= 1.25

    def test_sandwich(self, capsys):
        code, out, _ = run_cli(capsys, "sandwich", "--sigma", "2.5", "--terms", "10000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "sigma", "terms", "lower_ok", "upper_ok",
            "product_lo", "product_hi", "l_lo", "l_hi", "upper_lo", "upper_hi",
        ]
        assert rows[0][2] == "true" and rows[0][3] == "true"


class TestWitnessCommands:
    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--m", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "s_m", "a_value", "ratio", "lower_bound"]
        assert rows == [["3", "900", "160", "5.33333333333333", "2.4"]]

    def test_supermult(self, capsys):
        code, out, _ = run_cli(capsys, "supermult", "--trials", "5", "--max", "1000", "--seed", "9")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["seed", "m", "n", "a_mn", "a_m_times_a_n", "holds"]
        assert len(rows) == 5
        assert all(r[0] == "9" for r in rows)
        assert all(r[5] == "true" for r in rows)

    def test_supermult_pair_whose_product_exceeds_2_63(self, capsys):
        code, out, err = run_cli(capsys, "supermult", "--trials", "1", "--max", str(2**63 - 1), "--seed", "1")
        assert code == 0
        assert err == ""
        header, rows = parse_csv(out)
        m, n = int(rows[0][1]), int(rows[0][2])
        assert m * n >= 2**63
        assert rows[0][5] == "true"

    def test_counterexample(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "n", "product", "a_product", "a_m_times_a_n", "gcd"]
        assert rows == [["24", "36", "864", "130", "160", "12"]]


class TestOutputContracts:
    def test_byte_identical_reruns(self, capsys):
        first = run_cli(capsys, "residual", "--points", "10,1000,100000")
        second = run_cli(capsys, "residual", "--points", "10,1000,100000")
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("a", "24"),
            ("witness", "--m", "4"),
            ("residual", "--points", "10,100"),
            ("sandwich", "--sigma", "2.5", "--terms", "1000"),
            ("summatory", "--x", "50", "--method", "both"),
            ("factor", "360"),
        ],
    )
    def test_json_and_csv_carry_identical_values(self, capsys, argv):
        _, csv_out, _ = run_cli(capsys, *argv)
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        header, csv_rows = parse_csv(csv_out)
        doc = json.loads(json_out)
        assert set(doc) == {"command", "params", "rows"}
        assert doc["command"] == argv[0]
        assert len(doc["rows"]) == len(csv_rows)
        for json_row, csv_row in zip(doc["rows"], csv_rows):
            assert list(json_row) == header
            for col, csv_cell in zip(header, csv_row):
                assert cli._fmt(json_row[col]) == csv_cell

    def test_json_floats_use_15_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "residual", "--points", "10", "--format", "json")
        doc = json.loads(out)
        main = doc["rows"][0]["main_term"]
        assert f"{main:.15g}" in out


class TestErrorHandling:
    def test_domain_error_exit_3_no_partial_output(self, capsys):
        code, out, err = run_cli(capsys, "a", "0")
        assert code == 3
        assert out == ""
        assert "domain error" in err

    def test_more_domain_errors(self, capsys):
        for argv in (
            ("sandwich", "--sigma", "2", "--terms", "100"),
            ("witness", "--m", "8"),
            ("divergence", "--terms", "0"),
            ("summatory", "--x", "2000000", "--method", "brute"),
            ("residual", "--points", "10,abc"),
            ("dirichlet", "--series", "a", "--sigma", "inf", "--terms", "10"),
            ("euler", "--sigma", "inf", "--primes", "10"),
            ("summatory", "--x", "1000000000000000000"),
            ("residual", "--points", "1000000000000000000"),
            ("supermult", "--trials", "100000000", "--max", "1000", "--seed", "1"),
            ("dirichlet", "--series", "a", "--sigma", "2.5", "--terms", "10000000000"),
            ("dirichlet", "--series", "a", "--sigma", "2.5", "--terms", str(10**20)),
            ("divergence", "--terms", "10000000000"),
            ("divergence", "--terms", str(10**20)),
            ("sandwich", "--sigma", "2.5", "--terms", "10000000000"),
            ("sandwich", "--sigma", "2.5", "--terms", str(10**20)),
            ("euler", "--sigma", "3", "--primes", "10000000000"),
            ("euler", "--sigma", "3", "--primes", str(10**20)),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 3, argv
            assert out == ""

    def test_a_and_b_beyond_factorize_limit(self, capsys):
        for command in ("a", "b"):
            code, out, err = run_cli(capsys, command, str(2**63))
            assert code == 3
            assert out == ""
            assert len(err.splitlines()) == 1

    def test_usage_errors_exit_2(self, capsys):
        assert run_cli(capsys, "nosuchcommand")[0] == 2
        assert run_cli(capsys, "a", "xyz")[0] == 2
        assert run_cli(capsys, "a")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_rho_failure_exit_3(self, capsys, monkeypatch):
        def give_up(n):
            raise ArithmeticError(f"rho failed to split {n}")

        # 1009 * 1013 has no prime factor below 1000, so it reaches rho
        monkeypatch.setattr(cli.core, "_brent_rho", give_up)
        for command in ("a", "factor"):
            code, out, err = run_cli(capsys, command, "1022117")
            assert code == 3
            assert out == ""
            assert err == "smalldiv: domain error: rho failed to split 1022117\n"

    def test_budget_error_exit_4(self, capsys, monkeypatch):
        def boom(n):
            raise DivisorBudgetError("too many divisors")

        monkeypatch.setattr(cli.core, "small_divisor_sum", boom)
        code, out, err = run_cli(capsys, "a", "24")
        assert code == 4
        assert out == ""
        assert "overflow" in err


# Exact stdout and exit code of every subcommand, as (argv, code, csv, json);
# the JSON run appends "--format json" to argv.
GOLDEN = [
    ("a 24", 0, "n,a\n24,10\n", '{"command":"a","params":{"n":24},"rows":[{"n":24,"a":10}]}\n'),
    ("b 72", 0, "n,b\n72,12\n", '{"command":"b","params":{"n":72},"rows":[{"n":72,"b":12}]}\n'),
    (
        "sigma 36", 0,
        "n,sigma\n36,91\n",
        '{"command":"sigma","params":{"n":36},"rows":[{"n":36,"sigma":91}]}\n',
    ),
    ("tau 72", 0, "n,tau\n72,12\n", '{"command":"tau","params":{"n":72},"rows":[{"n":72,"tau":12}]}\n'),
    (
        "factor 72", 0,
        "n,prime,exponent\n72,2,3\n72,3,2\n",
        (
            '{"command":"factor","params":{"n":72},"rows":[{"n":72,"prime":2,"exponent":3},{"n":72,'
            '"prime":3,"exponent":2}]}\n'
        ),
    ),
    ("factor 1", 0, "n,prime,exponent\n", '{"command":"factor","params":{"n":1},"rows":[]}\n'),
    (
        "summatory --x 100", 0,
        "x,exact\n100,658\n",
        '{"command":"summatory","params":{"x":100,"method":"exact"},"rows":[{"x":100,"exact":658}]}\n',
    ),
    (
        "summatory --x 100 --method exact", 0,
        "x,exact\n100,658\n",
        '{"command":"summatory","params":{"x":100,"method":"exact"},"rows":[{"x":100,"exact":658}]}\n',
    ),
    (
        "summatory --x 100 --method brute", 0,
        "x,brute\n100,658\n",
        '{"command":"summatory","params":{"x":100,"method":"brute"},"rows":[{"x":100,"brute":658}]}\n',
    ),
    (
        "summatory --x 100 --method both", 0,
        "x,exact,brute,match\n100,658,658,true\n",
        (
            '{"command":"summatory","params":{"x":100,"method":"both"},"rows":[{"x":100,"exact":658,'
            '"brute":658,"match":true}]}\n'
        ),
    ),
    (
        "residual --points 10,1000,100000", 0,
        (
            "x,s_exact,main_term,residual,normalized_residual\n"
            "10,21,21.0818510677892,-0.081851067789195,-0.00355474670787364\n"
            "1000,20867,21081.8510677892,-214.851067789194,-0.0311028777239561\n"
            "100000,21057320,21081851.0677892,-24531.0677891932,-0.0213074147520825\n"
        ),
        (
            '{"command":"residual","params":{"points":[10,1000,100000]},"rows":[{"x":10,"s_exact":21,'
            '"main_term":21.0818510677892,"residual":-0.081851067789195,'
            '"normalized_residual":-0.00355474670787364},{"x":1000,"s_exact":20867,'
            '"main_term":21081.8510677892,"residual":-214.851067789194,'
            '"normalized_residual":-0.0311028777239561},{"x":100000,"s_exact":21057320,'
            '"main_term":21081851.0677892,"residual":-24531.0677891932,'
            '"normalized_residual":-0.0213074147520825}]}\n'
        ),
    ),
    (
        "dirichlet --series a --sigma 2.5 --terms 100", 0,
        (
            "series,sigma,terms,value,tail_lo,tail_hi,series_lo,series_hi\n"
            "a,2.5,100,1.5149814367028,0,0.2,1.51498143670279,1.71498143670282\n"
        ),
        (
            '{"command":"dirichlet","params":{"series":"a","sigma":2.5,"terms":100},'
            '"rows":[{"series":"a","sigma":2.5,"terms":100,"value":1.5149814367028,"tail_lo":0,'
            '"tail_hi":0.2,"series_lo":1.51498143670279,"series_hi":1.71498143670282}]}\n'
        ),
    ),
    (
        "dirichlet --series b --sigma 1.5 --terms 100", 0,
        "series,sigma,terms,value\nb,1.5,100,3.47602109808556\n",
        (
            '{"command":"dirichlet","params":{"series":"b","sigma":1.5,"terms":100},'
            '"rows":[{"series":"b","sigma":1.5,"terms":100,"value":3.47602109808556}]}\n'
        ),
    ),
    (
        "divergence --terms 1000", 0,
        "terms,partial_sum,lower_bound,ok\n1000,7.03855143977068,1.64322371159929,true\n",
        (
            '{"command":"divergence","params":{"terms":1000},"rows":[{"terms":1000,'
            '"partial_sum":7.03855143977068,"lower_bound":1.64322371159929,"ok":true}]}\n'
        ),
    ),
    (
        "bound --sigma 1.75", 0,
        "sigma,upper_bound\n1.75,14.449501394742\n",
        (
            '{"command":"bound","params":{"sigma":1.75},"rows":[{"sigma":1.75,'
            '"upper_bound":14.449501394742}]}\n'
        ),
    ),
    (
        "euler --sigma 3 --primes 100", 0,
        "sigma,primes,product\n3,100,1.2464335241542\n",
        (
            '{"command":"euler","params":{"sigma":3,"primes":100},"rows":[{"sigma":3,"primes":100,'
            '"product":1.2464335241542}]}\n'
        ),
    ),
    (
        "sandwich --sigma 2.5 --terms 1000", 0,
        (
            "sigma,terms,lower_ok,upper_ok,product_lo,product_hi,l_lo,l_hi,upper_lo,upper_hi\n"
            "2.5,1000,true,true,1.45192282625008,1.45192282625012,1.52366619391265,1.58691174711608,"
            "2.61237534868547,2.6123753486855\n"
        ),
        (
            '{"command":"sandwich","params":{"sigma":2.5,"terms":1000},"rows":[{"sigma":2.5,"terms":1000,'
            '"lower_ok":true,"upper_ok":true,"product_lo":1.45192282625008,"product_hi":1.45192282625012,'
            '"l_lo":1.52366619391265,"l_hi":1.58691174711608,"upper_lo":2.61237534868547,'
            '"upper_hi":2.6123753486855}]}\n'
        ),
    ),
    (
        "witness --m 3", 0,
        "m,s_m,a_value,ratio,lower_bound\n3,900,160,5.33333333333333,2.4\n",
        (
            '{"command":"witness","params":{"m":3},"rows":[{"m":3,"s_m":900,"a_value":160,'
            '"ratio":5.33333333333333,"lower_bound":2.4}]}\n'
        ),
    ),
    (
        "supermult --trials 3 --max 1000 --seed 9", 0,
        (
            "seed,m,n,a_mn,a_m_times_a_n,holds\n"
            "9,917,767,1482,112,true\n"
            "9,865,866,1835,18,true\n"
            "9,435,944,6003,744,true\n"
        ),
        (
            '{"command":"supermult","params":{"trials":3,"max":1000,"seed":9},"rows":[{"seed":9,"m":917,'
            '"n":767,"a_mn":1482,"a_m_times_a_n":112,"holds":true},{"seed":9,"m":865,"n":866,"a_mn":1835,'
            '"a_m_times_a_n":18,"holds":true},{"seed":9,"m":435,"n":944,"a_mn":6003,"a_m_times_a_n":744,'
            '"holds":true}]}\n'
        ),
    ),
    (
        "counterexample", 0,
        "m,n,product,a_product,a_m_times_a_n,gcd\n24,36,864,130,160,12\n",
        (
            '{"command":"counterexample","params":{},"rows":[{"m":24,"n":36,"product":864,'
            '"a_product":130,"a_m_times_a_n":160,"gcd":12}]}\n'
        ),
    ),
    ("a 0", 3, "", ""),
    ("euler --sigma inf --primes 10", 3, "", ""),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,code,csv_out,json_out", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_golden_transcript(capsys, fmt, argv, code, csv_out, json_out):
    extra = ["--format", "json"] if fmt == "json" else []
    got_code, out, _ = run_cli(capsys, *argv.split(), *extra)
    assert (got_code, out) == (code, json_out if fmt == "json" else csv_out)


# The partial-sum fields of the golden Dirichlet rows as the term-by-term
# table route printed them. A golden value that differs from these was
# re-pinned, and must be at least as close to the exact value.
TABLE_ROUTE_PRINTED = {
    "dirichlet --series a --sigma 2.5 --terms 100": {"value": "1.5149814367028"},
    "dirichlet --series b --sigma 1.5 --terms 100": {"value": "3.47602109808557"},
    "divergence --terms 1000": {"partial_sum": "7.03855143977068"},
    "sandwich --sigma 2.5 --terms 1000": {"l_lo": "1.52366619391179", "l_hi": "1.58691174711694"},
}

# The golden rows that print a full-series bracket: its (lo, hi) fields, and
# the bracket as printed when sandwich still widened it by 4 (N + 4) ulps, or
# None where nothing widened it.
FULL_SERIES_PRINTED = {
    "dirichlet --series a --sigma 2.5 --terms 100": (("series_lo", "series_hi"), None),
    "sandwich --sigma 2.5 --terms 1000": (("l_lo", "l_hi"), ("1.52366619391179", "1.58691174711694")),
}


def _golden_row(argv: str) -> dict:
    (csv_out,) = [case[2] for case in GOLDEN if case[0] == argv]
    header, (row,) = parse_csv(csv_out)
    return dict(zip(header, row))


def _exact_partial_sum(argv: str):
    """The row's partial sum over k <= --terms, to 40 digits, and its --terms and --sigma."""
    words = argv.split()
    opts = dict(zip(words[1::2], words[2::2]))
    n, sigma = int(opts["--terms"]), mpmath.mpf(opts.get("--sigma", "1.5"))
    table = reference.b_values_upto if opts.get("--series") == "b" else reference.small_divisor_sums_upto
    with mpmath.workdps(40):
        return mpmath.fsum(v * mpmath.mpf(k) ** -sigma for k, v in enumerate(table(n)) if v), n, sigma


@pytest.mark.parametrize("argv", sorted(TABLE_ROUTE_PRINTED))
def test_golden_dirichlet_values_are_no_farther_from_exact(argv):
    """Each field is as close as before to what it bounds: S, or S + tail for l_hi."""
    printed = _golden_row(argv)
    exact, n, sigma = _exact_partial_sum(argv)
    with mpmath.workdps(40):
        for field, parent in TABLE_ROUTE_PRINTED[argv].items():
            target = exact + mpmath.mpf(n) ** (2 - sigma) / (sigma - 2) if field == "l_hi" else exact
            assert abs(mpmath.mpf(printed[field]) - target) <= abs(mpmath.mpf(parent) - target), (argv, field)


@pytest.mark.parametrize("argv", sorted(FULL_SERIES_PRINTED))
def test_golden_series_brackets_enclose(argv):
    """Printed lo <= exact partial sum S, and S + tail bound <= printed hi, at 40 digits."""
    (lo_field, hi_field), widened = FULL_SERIES_PRINTED[argv]
    printed = _golden_row(argv)
    lo, hi = mpmath.mpf(printed[lo_field]), mpmath.mpf(printed[hi_field])
    exact, n, sigma = _exact_partial_sum(argv)
    with mpmath.workdps(40):
        assert lo <= exact and exact + mpmath.mpf(n) ** (2 - sigma) / (sigma - 2) <= hi, argv
        if widened:
            assert hi - lo < mpmath.mpf(widened[1]) - mpmath.mpf(widened[0]), argv


_JUNK = st.sampled_from(["", "abc", "1.5", "1e3", "0x10", "nan", "inf", "-inf", "-", "--", " 7"])
_HUGE = st.sampled_from(["10000000000", str(10**20), str(2**63)])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# Values drawn for each declared argument, by its name. Sizes that would run
# for seconds (large x, trials, m or tables) are left out; sizes that must be
# rejected before any work is done are drawn on purpose.
FUZZ_VALUES = {
    "n": st.one_of(_ints(-5, 2**63 - 1), _HUGE, _JUNK),
    "x": st.one_of(_ints(-5, 10**4), st.just(str(10**18)), _JUNK),
    "method": st.sampled_from(["exact", "brute", "both", "all"]),
    "points": st.lists(st.one_of(_ints(-5, 10**4), _JUNK), max_size=4).map(",".join),
    "series": st.sampled_from(["a", "b", "c"]),
    "sigma": st.one_of(st.floats().map(repr), st.sampled_from(["1.5", "1.75", "2", "2.5", "3"]), _JUNK),
    "terms": st.one_of(_ints(-5, 2000), _HUGE, _JUNK),
    "primes": st.one_of(_ints(-5, 2000), _HUGE, _JUNK),
    "m": st.one_of(_ints(-3, 9), _JUNK),
    "trials": st.one_of(_ints(-3, 20), st.just("100000000"), _JUNK),
    "max": st.one_of(_ints(-3, 10**6), _HUGE, _JUNK),
    "seed": st.one_of(_ints(-(10**20), 10**20), _JUNK),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_every_command_exits_cleanly(data):
    """Any drawn argv ends in a documented exit code, never a traceback or a partial table."""
    command = data.draw(st.sampled_from(sorted(cli.COMMANDS)), label="command")
    argv = [command]
    for flag, _ in cli.COMMANDS[command][1]:
        value = data.draw(FUZZ_VALUES[flag.lstrip("-")], label=flag)
        argv += [value] if flag == "n" else [flag, value]
    argv += data.draw(st.sampled_from([[], ["--format", "json"]]), label="format")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 3, 4), argv
    if code != 0:
        assert out.getvalue() == "", argv
    if code in (3, 4):
        assert len(err.getvalue().splitlines()) == 1, argv


PROBE_COMMANDS = [
    ["a", "24"],
    ["b", "72"],
    ["sigma", "360"],
    ["tau", "360"],
    ["factor", "901800900"],
    ["counterexample"],
    ["witness", "--m", "3"],
    ["bound", "--sigma", "1.75"],
    ["supermult", "--trials", "5", "--max", "1000", "--seed", "9"],
    ["summatory", "--x", "100000"],
    ["summatory", "--x", "1000", "--method", "brute"],
    ["summatory", "--x", "1000", "--method", "both"],
    ["residual", "--points", "10,1000"],
    ["euler", "--sigma", "3", "--primes", "1000"],
    ["dirichlet", "--series", "a", "--sigma", "2.5", "--terms", "1000"],
    ["divergence", "--terms", "1000"],
    ["sandwich", "--sigma", "2.5", "--terms", "1000"],
]

_IMPORT_PROBE = """
import contextlib, io, json, sys
# Any import of these from here on raises ImportError. The results are named
# tuples, so neither dataclasses nor the inspect module it pulls in is needed.
sys.modules["numpy"] = None
sys.modules["dataclasses"] = None
sys.modules["inspect"] = None
from smalldiv import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
"""


def test_no_command_loads_numpy_or_dataclasses():
    """Every command, the brute summatory included, runs in a fresh interpreter where
    numpy, dataclasses and inspect cannot be imported."""
    import smalldiv

    assert {argv[0] for argv in PROBE_COMMANDS} == set(cli.COMMANDS)

    src = os.path.dirname(os.path.dirname(smalldiv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(PROBE_COMMANDS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
