import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import full_digits
from thetadissect import cli
from thetadissect.catalog import builtin_catalog
from thetadissect.cli import main
from thetadissect.exprlang import parse_expr, print_expr
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "thetadissect", *args],
        capture_output=True, text=True, env=env,
    )


def test_expand_f_ab_degree_9():
    proc = run_cli("expand", "f(a,b)", "--degree", "9")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "1 + a + b + a^3*b + a*b^3 + a^6*b^3 + a^3*b^6",
        "validity: 9",
    ]


def test_expand_f_neg_degree_4():
    proc = run_cli("expand", "f(-a,-b)", "--degree", "4")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1 - a - b + a^3*b + a*b^3"


def test_expand_nonconvergent_exits_3():
    proc = run_cli("expand", "f(a, a^-1)")
    assert proc.returncode == 3
    assert "NonConvergent" in proc.stderr
    assert proc.stdout == ""


def test_expand_parse_error_exits_2():
    proc = run_cli("expand", "f(a,b")
    assert proc.returncode == 2
    assert "offset" in proc.stderr


def test_expand_json_format():
    proc = run_cli("expand", "f(i*a, i*b)", "--degree", "4", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["order"] == 4
    assert doc["validity"] == 4
    assert doc["terms"][0] == {"monomial": "1", "coeff": "1"}
    assert {"monomial": "a", "coeff": "zeta4"} in doc["terms"]


def test_verify_cubic_identity_exits_0():
    proc = run_cli(
        "verify",
        "f(omega*a, omega*b) = omega*f(a,b) + (1-omega)*f(a^6*b^3, a^3*b^6)",
        "--degree", "40",
    )
    assert proc.returncode == 0
    assert "verified" in proc.stdout


def test_verify_failed_identity_exits_1_with_mismatch():
    proc = run_cli("verify", "f(a,b) = f(a,b) + a", "--degree", "20")
    assert proc.returncode == 1
    assert "failed at a" in proc.stdout


def test_verify_parse_error_exits_2():
    proc = run_cli("verify", "f(a,b = ")
    assert proc.returncode == 2


def test_verify_evaluation_error_exits_3():
    proc = run_cli("verify", "f(a, a^-1) = f(a,b)")
    assert proc.returncode == 3


def test_catalog_all_small_degree():
    proc = run_cli("catalog", "all", "--degree", "25")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[-1] == "summary: total=20 verified=20 failed=0 error=0"
    assert sum(": verified" in line for line in lines) == 20
    names = [line.split(":")[0] for line in lines[:-1]]
    assert names == sorted(names)


def test_catalog_unknown_name_exits_2():
    proc = run_cli("catalog", "no_such_entry")
    assert proc.returncode == 2
    assert "no_such_entry" in proc.stderr


def test_catalog_all_with_unknown_name_exits_2(capsys):
    assert main(["catalog", "all", "bogus", "--degree", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no catalog entry named 'bogus'" in captured.err


def test_catalog_entry9_pair_rhs_byte_identical():
    proc = run_cli("catalog", "entry9a", "entry9b", "--degree", "60")
    assert proc.returncode == 0
    rhs_lines = [l for l in proc.stdout.splitlines() if l.startswith("  rhs: ")]
    assert len(rhs_lines) == 2
    assert rhs_lines[0] == rhs_lines[1]


def test_catalog_json_schema():
    proc = run_cli("catalog", "entry7", "entry30_ii", "--degree", "10", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc) == {"reports", "summary"}
    assert doc["summary"] == {"total": 2, "verified": 2, "failed": 0, "error": 0}
    for report in doc["reports"]:
        assert set(report) == {
            "name", "paper_ref", "degree", "status", "lhs_terms", "rhs_terms", "millis",
        }


def test_catalog_failed_entry_sets_exit_1_and_mismatch_fields():
    # verify as user identity through the catalog-style JSON report
    proc = run_cli("verify", "f(a,b) = f(b,a) + 2", "--degree", "10",
                   "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["status"] == "failed"
    assert doc["first_mismatch"] == {"monomial": "1", "lhs": "1", "rhs": "3"}


def test_dissect_both_mode_m2_k0():
    proc = run_cli("dissect", "--m", "2", "--k", "0", "--mode", "both", "--degree", "9")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "m=2 k=0 filter: 1 + a^3*b + a*b^3",
        "m=2 k=0 closed: 1 + a^3*b + a*b^3",
        "m=2 k=0: agree",
        "all agree",
    ]


def test_dissect_all_residues_m4():
    proc = run_cli("dissect", "--m", "4", "--mode", "both", "--degree", "30")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert sum(line.endswith(": agree") for line in lines) == 4
    assert lines[-1] == "all agree"


def test_dissect_bad_residue_exits_2():
    proc = run_cli("dissect", "--m", "2", "--k", "2")
    assert proc.returncode == 2


def test_dissect_filter_mode_only():
    proc = run_cli("dissect", "--m", "2", "--k", "1", "--mode", "filter", "--degree", "9")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["m=2 k=1 filter: a + b + a^6*b^3 + a^3*b^6"]


def test_out_file_and_quiet_stdout(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("catalog", "entry7", "--degree", "10", "--format", "json",
                   "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["summary"]["verified"] == 1


def test_out_unwritable_path_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.txt"
    proc = run_cli("expand", "f(a,b)", "--degree", "4", "--out", str(target))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "cannot write output" in proc.stderr


def test_expand_deep_nesting_exits_2():
    proc = run_cli("expand", "(" * 3000 + "a" + ")" * 3000)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "nested more than" in proc.stderr


def test_verify_product_with_empty_operand_is_not_verified():
    # (f(a,b) - 1) is empty through degree 0, yet times a^-3 it contributes
    # a^-2 + a^-3*b, both within degree 0
    proc = run_cli("verify", "(a^-3+1)*(f(a,b)-1) = 0", "--degree", "0")
    assert proc.returncode == 3
    assert "ValidityExceeded" in proc.stderr


def test_catalog_series_lines_match_expand(capsys):
    degree = "10"
    for identity in builtin_catalog():
        assert main(["catalog", identity.name, "--degree", degree]) == 0
        lines = capsys.readouterr().out.splitlines()
        order = str(identity.required_root_order)
        for line, label, side in ((lines[1], "lhs", identity.lhs), (lines[2], "rhs", identity.rhs)):
            assert main(["expand", print_expr(side), "--degree", degree, "--order", order]) == 0
            expanded = capsys.readouterr().out.splitlines()[0]
            assert line == "  %s: %s" % (label, expanded), (identity.name, label)


def test_order_override_must_be_multiple():
    proc = run_cli("expand", "f(i*a, i*b)", "--order", "6")
    assert proc.returncode == 2
    ok = run_cli("expand", "f(i*a, i*b)", "--order", "12", "--degree", "4")
    assert ok.returncode == 0
    assert "zeta12^3" in ok.stdout


def test_expand_expression_with_leading_minus():
    # argparse would read "-f(a,b)" as an unknown option
    proc = run_cli("expand", "-f(a,b)", "--degree", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["-1 - a - b", "validity: 2"]


def test_leading_minus_argument_after_options(capsys):
    assert main(["expand", "--degree", "2", "-a*f(a,b)"]) == 0
    assert capsys.readouterr().out.splitlines() == ["-a - a^2 - a*b", "validity: 3"]
    assert main(["expand", "-a", "--degree", "-1"]) == 2
    assert "--degree must be >= 0" in capsys.readouterr().err


def test_verify_identity_with_leading_minus(capsys):
    assert main(["verify", "-f(a,b)=-1-a-b", "--degree", "2"]) == 0
    assert capsys.readouterr().out.startswith("user: verified (degree 2,")
    assert main(["verify", "-f(a,b)=-1-a", "--degree", "2"]) == 1
    assert capsys.readouterr().out.startswith("user: failed at b (lhs -1, rhs 0;")


def test_order_is_rejected_where_it_is_not_read():
    for args in (("catalog", "entry7", "--order", "5"), ("dissect", "--m", "2", "--order", "7")):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
        assert "unrecognized arguments: --order" in proc.stderr


def test_non_decimal_digit_exits_2():
    proc = run_cli("expand", "a^²")
    assert proc.returncode == 2
    assert proc.stderr == "parse error: integer literal is not decimal at offset 2\n"


def test_over_long_integer_literal_exits_2():
    proc = run_cli("expand", "1" * 5000)
    assert proc.returncode == 2
    assert proc.stderr == "parse error: integer literal has too many digits at offset 0\n"


def test_usage_error_leaves_the_shared_parser_as_fresh(capsys):
    good = ("dissect", "--m", "3", "--k", "1", "--degree", "12")
    fresh = run_cli(*good)
    for bad in (["catalog", "entry7", "--order", "5"], ["dissect", "--k", "1"],
                ["expand", "f(a,b)", "--format", "xml"], ["verify"]):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2, bad
        capsys.readouterr()
        assert main(list(good)) == fresh.returncode == 0
        assert capsys.readouterr() == (fresh.stdout, fresh.stderr), bad


@pytest.mark.parametrize("expr, code, out, err", [
    # a zero factor is a series item, not a theta argument
    ("0*f(a,b)", 0, "0\nvalidity: 3\n", ""),
    ("2*0*a*f(a,b)", 0, "0\nvalidity: 4\n", ""),
    # the error names the innermost node that does not fold
    ("f(f(a,b), b)", 3, "",
     "evaluation error: NonMonomialArgument: ThetaCall does not fold to a scaled monomial\n"),
    ("f(a*f(a,b), b)", 3, "",
     "evaluation error: NonMonomialArgument: ThetaCall does not fold to a scaled monomial\n"),
    ("f(0*a, b)", 3, "",
     "evaluation error: NonMonomialArgument: zero cannot be a theta-argument coefficient\n"),
    ("(2*a)^-2*f(a,b)", 0, "1/4*a^-2 + 1/4*a^-1 + 1/4*a^-2*b\nvalidity: 1\n", ""),
    ("f(-1/2*a^2*zeta(6,1), b)^2", 0,
     "1 + 2*b - zeta6*a^2 + b^2 - zeta6*a^2*b\nvalidity: 3\n", ""),
    # a power of a zero constant is a power of the zero series, whose
    # validity each product raises
    ("0^2", 0, "0\nvalidity: 7\n", ""),
    ("(0*a)^3", 0, "0\nvalidity: 14\n", ""),
    ("(2*a)^-2", 0, "1/4*a^-2\nvalidity: 3\n", ""),
    ("0^0", 0, "1\nvalidity: 3\n", ""),
    ("f(a,b)^0", 0, "1\nvalidity: 3\n", ""),
    ("zeta(5,2)", 0, "zeta5^2\nvalidity: 3\n", ""),
    ("(i*a)^5", 0, "zeta4*a^5\nvalidity: 5\n", ""),
    ("0^-1", 3, "", "evaluation error: NonInvertible: negative power needs a monomial base\n"),
    ("(a+b)^-1", 3, "",
     "evaluation error: NonInvertible: negative power needs a monomial base\n"),
])
def test_expand_folding_edge_cases(capsys, expr, code, out, err):
    assert main(["expand", expr, "--degree", "3"]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("expr, order, validity, terms", [
    ("0^2", 1, 7, []),
    ("(0*a)^3", 1, 14, []),
    ("(2*a)^-2", 1, 3, [{"monomial": "a^-2", "coeff": "1/4"}]),
    ("0^0", 1, 3, [{"monomial": "1", "coeff": "1"}]),
    ("f(a,b)^0", 1, 3, [{"monomial": "1", "coeff": "1"}]),
    ("zeta(5,2)", 5, 3, [{"monomial": "1", "coeff": "zeta5^2"}]),
    ("(i*a)^5", 4, 5, [{"monomial": "a^5", "coeff": "zeta4"}]),
])
def test_expand_json_monomial_zero_and_power_cases(capsys, expr, order, validity, terms):
    assert main(["expand", expr, "--degree", "3", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"expr": print_expr(parse_expr(expr)), "degree": 3,
                               "order": order, "validity": validity, "terms": terms}


@pytest.mark.parametrize("expr", ["0^-1", "(a+b)^-1"])
def test_expand_json_negative_power_of_a_series_exits_3(capsys, expr):
    assert main(["expand", expr, "--degree", "3", "--format", "json"]) == 3
    assert capsys.readouterr() == (
        "", "evaluation error: NonInvertible: negative power needs a monomial base\n")


def _closed_form_with_extra_a_in_class_1(monkeypatch):
    closed = cli.dissect_closed

    def broken(m, k, bound):
        series = closed(m, k, bound)
        if k == 1:
            a = ScaledMonomial(1, 0, 1, Monomial(1, 0))
            series = series + LaurentSeries.from_scaled_monomial(a, bound)
        return series

    monkeypatch.setattr(cli, "dissect_closed", broken)


@pytest.mark.parametrize("k_args", [[], ["--k", "1"]])
def test_dissect_text_reports_a_disagreement(capsys, monkeypatch, k_args):
    _closed_form_with_extra_a_in_class_1(monkeypatch)
    assert main(["dissect", "--m", "3", "--degree", "4", *k_args]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    class_1 = [
        "m=3 k=1 filter: a + a*b^3",
        "m=3 k=1 closed: 2*a + a*b^3",
        "m=3 k=1: disagree at a (filter 1, closed 2)",
    ]
    if k_args:
        expected = class_1
    else:
        expected = [
            "m=3 k=0 filter: 1",
            "m=3 k=0 closed: 1",
            "m=3 k=0: agree",
            *class_1,
            "m=3 k=2 filter: b + a^3*b",
            "m=3 k=2 closed: b + a^3*b",
            "m=3 k=2: agree",
        ]
    assert out.splitlines() == expected + ["disagreement found"]


@pytest.mark.parametrize("k_args", [[], ["--k", "1"]])
def test_dissect_json_reports_a_disagreement(capsys, monkeypatch, k_args):
    _closed_form_with_extra_a_in_class_1(monkeypatch)
    assert main(["dissect", "--m", "3", "--degree", "4", "--format", "json", *k_args]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    class_1 = {"k": 1, "filter": "a + a*b^3", "closed": "2*a + a*b^3", "agree": False,
               "mismatch": {"monomial": "a", "filter": "1", "closed": "2"}}
    if k_args:
        entries = [class_1]
    else:
        entries = [
            {"k": 0, "filter": "1", "closed": "1", "agree": True},
            class_1,
            {"k": 2, "filter": "b + a^3*b", "closed": "b + a^3*b", "agree": True},
        ]
    assert json.loads(out) == {"m": 3, "degree": 4, "mode": "both",
                               "entries": entries, "all_agree": False}


def test_expand_prints_coefficients_past_the_int_digit_limit(capsys):
    # 2^20000 has 6021 digits, past CPython's 4300-digit int-to-str limit
    assert main(["expand", "2^20000", "--degree", "0"]) == 0
    assert capsys.readouterr() == ("%s\nvalidity: 0\n" % full_digits(2 ** 20000), "")
    assert main(["expand", "2^20000", "--degree", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"] == [{"monomial": "1", "coeff": full_digits(2 ** 20000)}]
    assert main(["expand", "(1/7)^6000*a - 3^9000*b", "--degree", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1/%s*a - %s*b" % (
        full_digits(7 ** 6000), full_digits(3 ** 9000))


def test_verify_reports_a_mismatch_past_the_int_digit_limit(capsys):
    assert main(["verify", "2^20000*a = a", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["first_mismatch"] == {
        "monomial": "a", "lhs": full_digits(2 ** 20000), "rhs": "1"}


def test_exponents_print_past_the_int_digit_limit(capsys):
    # a 4300-digit literal is accepted; ten times it has 4301 digits
    n = int("7" * 4300)
    assert main(["expand", "(a^%d)^10" % n, "--degree", "0"]) == 0
    assert capsys.readouterr() == (
        "a^%s\nvalidity: %s\n" % (full_digits(10 * n), full_digits(10 * n)), "")
    assert main(["expand", "(a^-%d)^10" % n, "--degree", "0", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["terms"] == [{"monomial": "a^-%s" % full_digits(10 * n),
                                         "coeff": "1"}]
    assert main(["verify", "(a^-%d)^10 = 0" % n, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["first_mismatch"] == {
        "monomial": "a^-%s" % full_digits(10 * n), "lhs": "1", "rhs": "0"}


def test_expand_power_takes_about_log2_n_products():
    # a chain of N - 1 products would not finish
    proc = run_cli("expand", "f(a,b)^1000000000", "--degree", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "1 + 1000000000*a + 1000000000*b + 499999999500000000*a^2"
        " + 999999999000000000*a*b + 499999999500000000*b^2",
        "validity: 2",
    ]


# --- the exit-code contract on generated input ----------------------------------

# Atoms of the identity language; every zeta atom of one call shares its order
# n <= 24, and exponents stay in -3..3, because the costs of a large root order
# (an L x phi(L) table of root powers) and of a large exponent (its ratio is
# computed before any cap) are not bounded yet.
_NUMBERS = st.one_of(st.integers(0, 99).map(str),
                     st.tuples(st.integers(0, 99), st.integers(0, 99)).map("%d/%d".__mod__))
_EXPONENTS = st.integers(-3, 3).map("^%d".__mod__)


@st.composite
def _atoms(draw, zeta_order):
    atom = draw(st.one_of(_NUMBERS, st.sampled_from(("a", "b", "q", "i", "omega")),
                          st.integers(0, 48).map(lambda e: "zeta(%d,%d)" % (zeta_order, e))))
    return atom + draw(st.one_of(st.just(""), _EXPONENTS))


@st.composite
def _exprs(draw, zeta_order, depth):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(_atoms(zeta_order))
    inner = _exprs(zeta_order, depth - 1)
    shape = draw(st.sampled_from(("%s+%s", "%s-%s", "%s*%s", "f(%s,%s)", "-%s",
                                  "Re(%s)", "Im(%s)", "specq(%s)", "(%s)", "(%s)^%d")))
    if shape == "(%s)^%d":
        return shape % (draw(inner), draw(st.integers(-3, 3)))
    return shape % tuple(draw(inner) for _ in range(shape.count("%s")))


@st.composite
def _sides(draw, zeta_order):
    """An expression, or one whose top level adds or multiplies in a constant
    or a theta call (of atoms) to the power 20000."""
    side = draw(_exprs(zeta_order, 4))
    if draw(st.booleans()):
        return side
    atoms = _atoms(zeta_order)
    big = draw(st.one_of(_NUMBERS, st.sampled_from(("i", "omega", "zeta(%d,1)" % zeta_order)),
                         st.tuples(atoms, atoms).map("f(%s,%s)".__mod__))) + "^20000"
    return draw(st.sampled_from((big, big + "*" + side, side + "+" + big)))


# raw text over the language's alphabet; runs of three or more digits are left
# out for the reasons above
_RAW = st.text("abqiomegztfRIspc0123456789+-*/^(),= ", max_size=30).filter(
    lambda text: not re.search(r"\d{3}", text))


@st.composite
def cli_calls(draw):
    zeta_order = draw(st.integers(0, 24))
    command = draw(st.sampled_from(("expand", "verify")))
    if draw(st.integers(0, 3)) == 0:
        text = draw(_RAW)
    elif command == "expand":
        text = draw(_sides(zeta_order))
    else:
        text = "%s = %s" % (draw(_sides(zeta_order)), draw(_sides(zeta_order)))
    argv = [command, text, "--degree", str(draw(st.integers(0, 8))),
            "--format", draw(st.sampled_from(("text", "json")))]
    if draw(st.booleans()):
        argv += ["--order", str(draw(st.sampled_from((4, 12, 24))))]
    return argv


@given(cli_calls())
@settings(max_examples=300, deadline=None)
def test_exit_codes_hold_for_generated_calls(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert err.getvalue() == ""
    else:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
