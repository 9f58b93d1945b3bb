import json
import os
import subprocess
import sys

import pytest

from thetadissect.catalog import builtin_catalog
from thetadissect.cli import main
from thetadissect.exprlang import print_expr

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
])
def test_expand_folding_edge_cases(capsys, expr, code, out, err):
    assert main(["expand", expr, "--degree", "3"]) == code
    assert capsys.readouterr() == (out, err)
