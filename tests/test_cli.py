import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import full_digits
from thetadissect import cli, cyclotomic, theta
from thetadissect.catalog import _monomial_series, builtin_catalog
from thetadissect.cli import main
from thetadissect.exprlang import parse_expr, print_expr
from thetadissect.laurent import Monomial, ScaledMonomial

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "thetadissect", *args],
        capture_output=True, text=True, env=env,
    )


def _readme_cli_examples():
    """(argv, shown lines) for each `$ thetadissect ...` block of the README's
    CLI section."""
    with open(os.path.join(ROOT, "README.md")) as handle:
        section = handle.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("\n\n"):
        lines = [line[4:] for line in block.splitlines()]
        if lines and lines[0].startswith("$ thetadissect "):
            examples.append((shlex.split(lines[0])[2:], lines[1:]))
    return examples


_README_EXAMPLES = _readme_cli_examples()


def test_the_readme_shows_five_cli_examples():
    assert len(_README_EXAMPLES) == 5


@pytest.mark.parametrize("argv, shown", _README_EXAMPLES,
                         ids=[" ".join(argv)[:40] for argv, _ in _README_EXAMPLES])
def test_the_readme_cli_examples_print_what_they_show(capsys, argv, shown):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if shown[0].startswith("..."):  # entries elided: the summary line stands for them
        assert out.splitlines()[-1] == shown[-1]
    else:
        assert out.splitlines() == shown


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


@pytest.mark.parametrize("m", ["100001", "1000000000"])
def test_dissect_modulus_above_the_cap_exits_2(capsys, m):
    # one filter and one closed form run per residue class, so m is capped
    assert main(["dissect", "--m", m, "--degree", "0"]) == 2
    assert capsys.readouterr() == ("", "modulus m must be <= %d, got %s\n" % (cli.MAX_MODULUS, m))
    assert main(["dissect", "--m", str(cli.MAX_MODULUS), "--k", "0", "--degree", "0"]) == 0


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
        prefix = "zeta(%d,0)*" % identity.required_root_order  # 1, at the entry's order
        for line, label, side in ((lines[1], "lhs", identity.lhs), (lines[2], "rhs", identity.rhs)):
            assert main(["expand", prefix + print_expr(side), "--degree", degree]) == 0
            expanded = capsys.readouterr().out.splitlines()[0]
            assert line == "  %s: %s" % (label, expanded), (identity.name, label)


def test_order_override_must_be_multiple():
    # zeta(12,0) = 1 raises the working order 4 of the rest to its multiple 12
    ok = run_cli("expand", "zeta(12,0)*f(i*a, i*b)", "--degree", "4")
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
    for args in (("catalog", "entry7", "--order", "5"), ("dissect", "--m", "2", "--order", "7"),
                 ("expand", "a", "--order", "12"), ("verify", "a = a", "--order", "12")):
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


@pytest.mark.parametrize("argv, line", [
    (("expand", "a^b"),
     "parse error: exponent must be a literal integer, got ident 'b' (expected: integer)"
     " at offset 2"),
    (("verify", "a"),
     "parse error: unexpected end of input after expression (expected: equals) at offset 1"),
    (("verify", "a = b = c"),
     "parse error: unexpected equals '=' after expression (expected: end) at offset 6"),
    # the left side ends at its '=', not at the end of the whole text
    (("verify", "f(a = b)"), "parse error: unexpected equals '=' (expected: comma) at offset 4"),
    # the text is read once, left to right, so the first error in reading
    # order is the one reported
    (("verify", "f(a,b"), "parse error: unexpected end of input (expected: rparen) at offset 5"),
    (("verify", "f(a = b) !"),
     "parse error: unexpected equals '=' (expected: comma) at offset 4"),
    (("verify", "x = y = z"),
     "parse error: unknown name 'x' (expected: Im, Re, a, b, f, i, omega, q, specq, zeta)"
     " at offset 0"),
    (("expand", "a b"), "parse error: unexpected ident 'b' after expression (expected: end)"
     " at offset 2"),
])
def test_parse_error_lines_exit_2(capsys, argv, line):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == line + "\n"


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
    # the fold caps a power by its reduced ratio: 2*1/2 is 1, whose powers
    # cost no bits, and 4 has 3 numerator bits and 1 denominator bit, so
    # 4 * 262145 passes 2^20
    ("(2*1/2*a)^1000000", 0, "a^1000000\nvalidity: 1000000\n", ""),
    ("(4*a)^262145", 3, "",
     "evaluation error: RequestTooLarge: power 262145 of a ratio with 4 numerator and"
     " denominator bits exceeds the 1048576-bit cap\n"),
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
    assert json.loads(out) == {"expr": print_expr(parse_expr(expr)[0]), "degree": 3,
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
            series = series + _monomial_series(a, bound)
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


def test_expand_json_writes_a_validity_past_the_int_digit_limit(capsys):
    n = int("7" * 4300)
    assert main(["expand", "(a^%d)^10" % n, "--degree", "0", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # json.loads reads ints under the same digit limit, so they are read as text
    doc = json.loads(out, parse_int=str)
    assert doc["validity"] == full_digits(10 * n)
    assert doc["terms"] == [{"monomial": "a^%s" % full_digits(10 * n), "coeff": "1"}]


# JSON documents as the CLI builds them, with strings of every code point
# (control characters, non-ASCII, lone surrogates) and ints and floats of
# any size JSON can spell
_JSON_STRINGS = st.text(st.characters(exclude_categories=()), max_size=8)
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_STRINGS
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_JSON_DOCS)
def test_json_text_writes_the_bytes_of_json_dumps(doc):
    assert cli.json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_spells_an_int_past_the_int_digit_limit():
    n = -(10 ** 5000 - 1)  # 5000 nines
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = json.dumps({"validity": n, "terms": [n]}, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)
    assert cli.json_text({"validity": n, "terms": [n]}) == expected
    assert expected.count("9" * 5000) == 2


_TOO_LARGE = ("evaluation error: RequestTooLarge: power 9999999999 of a ratio with 3"
              " numerator and denominator bits exceeds the 1048576-bit cap\n")


@pytest.mark.parametrize("expr, power", [
    ("2^9999999999", "9999999999"),
    ("f(2^9999999999*a, b)", "9999999999"),
    ("(1/2*a)^-9999999999", "-9999999999"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_refuses_a_constant_power_past_the_bit_cap(capsys, expr, power, fmt):
    assert main(["expand", expr, "--format", fmt]) == 3
    assert capsys.readouterr() == ("", _TOO_LARGE.replace("9999999999", power))


def test_verify_refuses_a_constant_power_past_the_bit_cap(capsys):
    assert main(["verify", "2^9999999999 = 1"]) == 3
    assert capsys.readouterr() == (
        "user: error (%s)\n" % _TOO_LARGE[len("evaluation error: "):-1], _TOO_LARGE)
    assert main(["verify", "f(2^9999999999*a, b) = 1", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert err == _TOO_LARGE
    assert json.loads(out)["error"] == _TOO_LARGE[len("evaluation error: "):-1]


def _order_too_large(order):
    return ("evaluation error: RequestTooLarge: working order %s needs a table of"
            " L x phi(L) root powers past the 33554432-entry cap\n" % full_digits(order))


@pytest.mark.parametrize("argv, order", [
    (["expand", "zeta(100000,1)*a"], 100000),
    (["expand", "zeta(30030,1)"], 30030),
    (["expand", "zeta(4999,1)*zeta(4993,1)"], 4999 * 4993),
    (["expand", "zeta(1000000,0)*a"], 1000000),
    (["expand", "zeta(1000000000000,0)*f(a,b)^0"], 10 ** 12),
    (["verify", "zeta(100000,1)*a = a"], 100000),
    # an lcm of two literals of 3000 and 1432 digits, 4431 digits long
    pytest.param(["expand", "zeta(%s,1)*zeta(%s,2)" % (10 ** 2999, 3 ** 3000)],
                 10 ** 2999 * 3 ** 3000, id="lcm-of-4431-digits"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_order_past_the_root_table_cap_is_refused_before_any_table(capsys, argv, order, fmt):
    tables = cyclotomic._zeta_powers.cache_info().currsize
    assert main(argv + ["--format", fmt]) == 3
    assert capsys.readouterr() == ("", _order_too_large(order))
    assert cyclotomic._zeta_powers.cache_info().currsize == tables


def test_an_order_within_the_root_table_cap_still_answers(capsys):
    assert cyclotomic.MAX_ROOT_TABLE == 1 << 25
    assert main(["expand", "zeta(9240,1)*a", "--degree", "1"]) == 0
    assert capsys.readouterr() == ("zeta9240*a\nvalidity: 1\n", "")


def test_a_power_of_minus_one_is_not_capped(capsys):
    assert main(["expand", "(-1)^9999999999*a + (-1)^-9999999999", "--degree", "1"]) == 0
    assert capsys.readouterr() == ("-1 - a\nvalidity: 1\n", "")
    assert main(["verify", "(-1)^9999999999 = -1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "verified"


def _indices_too_large(what, count):
    return ("evaluation error: RequestTooLarge: %s of %d indices passes the"
            " 262144-index cap\n" % (what, count))


def _bits_too_large(count, bits):
    return ("evaluation error: RequestTooLarge: theta sum of %d indices with ratio powers of"
            " up to %d bits passes the 16777216-bit budget\n" % (count, bits))


_DISSECT_HUGE = ["dissect", "--m", "3", "--degree", str(10 ** 20), "--mode"]


@pytest.mark.parametrize("argv, err", [
    # the index parabola dips to about -t^2/8s, so degree 0 holds 2*10^7 indices
    (["expand", "f(a^10000000, a^-9999999)", "--degree", "0"],
     _indices_too_large("theta sum", 20000000)),
    (["expand", "f(a,b)", "--degree", str(10 ** 20)],
     _indices_too_large("theta sum", 2 * 10 ** 10 + 1)),
    # len() of this range would overflow
    (["expand", "f(a,b)", "--degree", str(10 ** 40)],
     _indices_too_large("theta sum", 2 * 10 ** 20 + 1)),
    # a run over every class is refused before its first class
    (_DISSECT_HUGE + ["filter"], _indices_too_large("dissection run", 20000000001)),
    (_DISSECT_HUGE + ["closed"], _indices_too_large("dissection run", 20000000001)),
    (_DISSECT_HUGE + ["both"], _indices_too_large("dissection run", 20000000001)),
    # 1,549 indices, 2^299925 at each end
    (["expand", "f(2*a,b)", "--degree", "600000"], _bits_too_large(1549, 899775)),
    (["expand", "f(2*a^50000, a^-49999)", "--degree", "0"], _bits_too_large(100000, 14999550003)),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_theta_sum_past_its_caps_is_refused(capsys, argv, err, fmt):
    assert main(argv + ["--format", fmt]) == 3
    assert capsys.readouterr() == ("", err)


def test_verify_and_catalog_refuse_a_theta_sum_past_the_index_cap(capsys):
    err = _indices_too_large("theta sum", 2 * 10 ** 10 + 1)
    assert main(["verify", "f(a,b) = f(b,a)", "--degree", str(10 ** 20)]) == 3
    assert capsys.readouterr() == ("user: error (%s)\n" % err[len("evaluation error: "):-1], err)
    # a catalog run reports the error in its entry and exits 1, as for any failure
    assert main(["catalog", "entry7", "--degree", str(10 ** 20)]) == 1
    assert capsys.readouterr() == (
        "entry7: error (%s)\nsummary: total=1 verified=0 failed=0 error=1\n"
        % err[len("evaluation error: "):-1], "")


@pytest.mark.parametrize("mode", ["filter", "closed", "both"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_wide_dissection_run_is_refused_at_once(capsys, mode, fmt):
    # 10^5 classes of about 2*10^4 indices each: every class is within the
    # cap alone, and the run holds 2*10^9 + 1 indices
    argv = ["dissect", "--m", "100000", "--degree", str(10 ** 18), "--mode", mode]
    start = time.perf_counter()
    assert main(argv + ["--format", fmt]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", _indices_too_large("dissection run", 2000000001))


def test_the_dissection_run_cap_holds_at_its_edge(capsys, monkeypatch):
    # degree 4 holds the 5 indices -2..2 over all classes, degree 9 the 7
    # indices -3..3; a run with --k keeps the cap of its class
    monkeypatch.setattr(theta, "MAX_THETA_TERMS", 5)
    assert main(["dissect", "--m", "3", "--degree", "4", "--mode", "filter"]) == 0
    assert capsys.readouterr().out.count("\n") == 3
    assert main(["dissect", "--m", "3", "--degree", "9", "--mode", "filter"]) == 3
    assert capsys.readouterr() == (
        "", "evaluation error: RequestTooLarge: dissection run of 7 indices passes the"
            " 5-index cap\n")
    assert main(["dissect", "--m", "3", "--k", "0", "--degree", "9", "--mode", "filter"]) == 0
    assert capsys.readouterr().out == "m=3 k=0 filter: 1 + a^6*b^3 + a^3*b^6\n"


@pytest.mark.parametrize("argv, classes", [
    (["--m", "100000", "--k", "5", "--degree", str(10 ** 18)], 1),
    (["--m", "12", "--degree", str(10 ** 8)], 12),
    # 200,001 indices in all
    (["--m", "2", "--degree", str(10 ** 10), "--mode", "filter"], 2),
])
def test_dissection_runs_within_the_caps_still_answer(capsys, argv, classes):
    assert main(["dissect"] + argv + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == "" and len(doc["entries"]) == classes
    assert doc.get("all_agree", True)


@pytest.mark.parametrize("expr, degree, terms", [
    ("f(a,b)", 10 ** 8, 20001),
    # 347 indices of up to 45,153 bits: 15.7 M bits
    ("f(2*a,b)", 30000, 347),
    ("f(3/7*a,b)", 5000, 141),
])
def test_theta_sums_within_the_caps_still_answer(capsys, expr, degree, terms):
    assert main(["expand", expr, "--degree", str(degree), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == "" and doc["validity"] == degree and len(doc["terms"]) == terms


# at a = b the least term of the operand cancels, so the product is exact
# through more than the bivariate series collapsed at the end would be
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_specq_of_a_product_with_a_cancelling_operand(capsys, fmt):
    expr = "specq((a-b+a^3)*(a^2+b^2))"
    assert main(["expand", expr, "--degree", "3", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "text":
        assert out == "2*a^5\nvalidity: 5\n"
    else:
        assert json.loads(out) == {"expr": print_expr(parse_expr(expr)[0]), "degree": 3,
                                   "order": 1, "validity": 5, "terms": [{"monomial": "a^5", "coeff": "2"}]}
    identity = "specq((a^-1 - b^-1)*f(a,b)) = 0"
    assert main(["verify", identity, "--degree", "5", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "text":
        assert out == "user: verified (degree 5, lhs 0 terms, rhs 0 terms)\n"
    else:
        doc = json.loads(out)
        del doc["millis"]
        assert doc == {"name": "user", "paper_ref": "user-supplied identity", "degree": 5,
                       "status": "verified", "lhs_terms": 0, "rhs_terms": 0}


def test_expand_power_takes_about_log2_n_products():
    # a chain of N - 1 products would not finish
    proc = run_cli("expand", "f(a,b)^1000000000", "--degree", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "1 + 1000000000*a + 1000000000*b + 499999999500000000*a^2"
        " + 999999999000000000*a*b + 499999999500000000*b^2",
        "validity: 2",
    ]


def _power_too_large(power, terms, span, bits):
    return ("evaluation error: RequestTooLarge: power %s of a %d-term least-degree part of"
            " a-exponent span %d and %d bits per factor exceeds the 1048576-bit cap\n"
            % (power, terms, span, bits))


# X^N keeps P^N whole, P the least-degree part of X, estimated as N*s + 1
# terms of N bits here (ceil(log2) of the magnitude sum 2), so (1+a*b^-1)^N
# is refused from N = 1024 on; at degree 0, 2+a is 2, refused from N = 349526
# on, as 2^N is. Halving P's coefficients leaves their sum 1, yet each factor
# still costs the 1 + 1 bits of that sum 2 and of the denominator 2
@pytest.mark.parametrize("expr, err", [
    ("(1+a*b^-1)^8000", _power_too_large(8000, 2, 1, 1)),
    ("(1+a*b^-1)^1024", _power_too_large(1024, 2, 1, 1)),
    ("(a+b)^100000", _power_too_large(100000, 2, 1, 1)),
    ("(a^-1+b^-1)^100000", _power_too_large(100000, 2, 1, 1)),
    ("(2+a)^1000000", _power_too_large(1000000, 1, 0, 3)),
    ("(2+a)^349526", _power_too_large(349526, 1, 0, 3)),
    # 1 + zeta5 is no root: each factor counts on all four entries
    ("(1+zeta(5,1))^262145", _power_too_large(262145, 1, 0, 4)),
    # and 1 + zeta105*a*b^-1 on all 48
    ("(1+zeta(105,1)*a*b^-1)^148", _power_too_large(148, 2, 1, 48)),
    ("(1/2+1/2*a*b^-1)^8000", _power_too_large(8000, 2, 1, 2)),
    ("(1/2+1/2*a*b^-1)^724", _power_too_large(724, 2, 1, 2)),
    # at degree 0 the base keeps only P, so it is refused as the one above
    ("(1/2+1/2*a*b^-1+1/3*a)^724", _power_too_large(724, 2, 1, 2)),
    ("(1/2*a+1/2*b)^1000000000", _power_too_large(1000000000, 2, 1, 2)),
    ("(1/2+1/2*zeta(5,1))^1000000000", _power_too_large(1000000000, 1, 0, 8)),
    ("(1/2+1/2*zeta(5,1))^131073", _power_too_large(131073, 1, 0, 8)),
    # the longest exponent the parser takes, 4300 digits
    ("(a+b)^1" + "0" * 4299, _power_too_large("1" + "0" * 4299, 2, 1, 1)),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_series_power_past_the_bit_cap_is_refused_at_once(capsys, expr, err, fmt):
    start = time.perf_counter()
    assert main(["expand", expr, "--degree", "0", "--format", fmt]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("expr, degree, validity, terms, first", [
    ("(1+a*b^-1)^590", 0, 0, 591, {"monomial": "a^590*b^-590", "coeff": "1"}),
    ("(1+a*b^-1)^400", 0, 0, 401, {"monomial": "a^400*b^-400", "coeff": "1"}),
    ("(a+b)^50", 0, 50, 51, {"monomial": "a^50", "coeff": "1"}),
    ("(a^-1+b^-1)^50", 0, -49, 51, {"monomial": "b^-50", "coeff": "1"}),
    ("(2+a)^50", 0, 0, 1, {"monomial": "1", "coeff": str(2 ** 50)}),
    ("(2+a)^349525", 0, 0, 1, {"monomial": "1", "coeff": full_digits(2 ** 349525)}),
    ("(1/2+1/2*a*b^-1)^511", 0, 0, 512, {"monomial": "a^511*b^-511", "coeff": "1/%d" % 2 ** 511}),
    ("(1/2+1/2*zeta(5,1))^65536", 0, 0, 1, None),
    # a first power is the base itself, whatever its least-degree part costs
    ("(2^300000*a^5+b^5)^1", 5, 5, 2, {"monomial": "a^5", "coeff": full_digits(2 ** 300000)}),
    # a least-degree part that is one root of unity costs nothing
    ("(zeta(3,2)*f(a,b))^1000000000", 1, 1, 3, {"monomial": "1", "coeff": "-1 - zeta3"}),
    # the largest N of these forms that answers
    ("(1+a*b^-1)^1023", 0, 0, 1024, {"monomial": "a^1023*b^-1023", "coeff": "1"}),
    ("(1/2+1/2*a*b^-1)^723", 0, 0, 724, {"monomial": "a^723*b^-723", "coeff": "1/%d" % 2 ** 723}),
    ("(1/2+1/2*zeta(5,1))^131072", 0, 0, 1, None),
    ("(1+zeta(5,1))^262144", 0, 0, 1, None),
    ("(1+zeta(105,1)*a*b^-1)^147", 0, 0, 148, {"monomial": "a^147*b^-147", "coeff": "zeta105^42"}),
    # at degree 1 the series' denominator is 6, but P's is 2, so P costs
    # the bits of (1/2+1/2*a*b^-1) above
    ("(1/2+1/2*a*b^-1+1/3*a)^723", 1, 1, 1447,
     {"monomial": "a^723*b^-723", "coeff": "1/%d" % 2 ** 723}),
])
def test_series_powers_within_the_bit_cap_still_answer(capsys, expr, degree, validity, terms,
                                                       first):
    assert main(["expand", expr, "--degree", str(degree), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out, parse_int=str)
    assert err == "" and doc["validity"] == str(validity)
    assert len(doc["terms"]) == terms and first in (None, doc["terms"][0])


def test_verify_refuses_a_series_power_past_the_bit_cap(capsys):
    err = _power_too_large(8000, 2, 1, 1)
    assert main(["verify", "(1+a*b^-1)^8000 = 1", "--degree", "0"]) == 3
    assert capsys.readouterr() == ("user: error (%s)\n" % err[len("evaluation error: "):-1], err)
    assert main(["verify", "(a+b)^100000 = 1", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert err == _power_too_large(100000, 2, 1, 1)
    assert json.loads(out)["error"] == err[len("evaluation error: "):-1]
    assert main(["verify", "(1+a*b^-1)^400 = (a*b^-1+1)^400", "--degree", "0"]) == 0
    assert capsys.readouterr() == ("user: verified (degree 0, lhs 401 terms, rhs 401 terms)\n", "")


# --- the exit-code contract on generated input ----------------------------------

# Atoms of the identity language; every zeta atom of one call shares its order
# n. A working order whose L x phi(L) table of root powers passes
# cyclotomic.MAX_ROOT_TABLE is refused before it is built, so n is drawn
# either from 0..24 or from a few orders past that cap; an order between 25
# and the cap still builds its table, up to half a second an example. A theta
# sum past theta.MAX_THETA_TERMS indices is refused before its first term, so
# the degree is drawn from 0..8 or from 10^20 and 10^40, and one atom is a
# theta call whose index parabola dips to about -10^7 at any degree. A constant
# power is capped before it is taken, and so is the least-degree part P of a
# series power X^N: X^N keeps P^N whole, and a P^N estimated past
# laurent.MAX_POWER_BITS is refused before the first product. What lies
# above P is not capped yet: (1+a)^N at degree 10^20 has P = 1 and still
# grows with N (about 2 s at N = 2000), so exponents stay in -3..3 until
# each node has a budget.
_NUMBERS = st.one_of(st.integers(0, 99).map(str),
                     st.tuples(st.integers(0, 99), st.integers(0, 99)).map("%d/%d".__mod__))
_EXPONENTS = st.integers(-3, 3).map("^%d".__mod__)


@st.composite
def _atoms(draw, zeta_order):
    atom = draw(st.one_of(_NUMBERS, st.sampled_from(("a", "b", "q", "i", "omega",
                                                     "f(a^9999999, a^-9999998)")),
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
# out, because the terms of a series power above its least-degree part are
# not capped yet (above)
_RAW = st.text("abqiomegztfRIspc0123456789+-*/^(),= ", max_size=30).filter(
    lambda text: not re.search(r"\d{3}", text))


@st.composite
def cli_calls(draw):
    zeta_order = draw(st.one_of(st.integers(0, 24),
                                st.sampled_from((30030, 100003, 10 ** 9 + 7, 10 ** 40))))
    command = draw(st.sampled_from(("expand", "verify")))
    if draw(st.integers(0, 3)) == 0:
        text = draw(_RAW)
    elif command == "expand":
        text = draw(_sides(zeta_order))
    else:
        text = "%s = %s" % (draw(_sides(zeta_order)), draw(_sides(zeta_order)))
    if draw(st.booleans()):  # zeta(L,0) = 1 raises the working order to a multiple of L
        text = "zeta(%d,0)*%s" % (draw(st.sampled_from((4, 12, 24, 30030, 10 ** 6))), text)
    degree = draw(st.one_of(st.integers(0, 8), st.sampled_from((10 ** 20, 10 ** 40))))
    argv = [command, text, "--degree", str(degree),
            "--format", draw(st.sampled_from(("text", "json")))]
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
