import csv
import io
import json
import os
import subprocess
import sys

import pytest

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

    def test_budget_error_exit_4(self, capsys, monkeypatch):
        def boom(n):
            raise DivisorBudgetError("too many divisors")

        monkeypatch.setattr(cli.core, "small_divisor_sum", boom)
        code, out, err = run_cli(capsys, "a", "24")
        assert code == 4
        assert out == ""
        assert "overflow" in err


NUMPY_FREE_COMMANDS = [
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
    ["residual", "--points", "10,1000"],
    ["euler", "--sigma", "3", "--primes", "1000"],
]

_IMPORT_PROBE = """
import contextlib, io, json, sys
from smalldiv import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["dirichlet", "--series", "a", "--sigma", "2.5", "--terms", "1000"]) == 0
assert "numpy" in sys.modules
"""


def test_only_the_tables_load_numpy():
    """The scalar commands run in a fresh interpreter without importing numpy; dirichlet loads it."""
    import smalldiv

    src = os.path.dirname(os.path.dirname(smalldiv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(NUMPY_FREE_COMMANDS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
